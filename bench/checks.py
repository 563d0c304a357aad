"""Output checks computed apart from the program.

Nothing here imports ``volterrabound``: every reference value is
recomputed from the problem's own formulas with numpy and ``math``, so a
fault in the program's expression engine, quadrature or majorant cannot
also hide in the check.  Each checker returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Residual allowance on top of the solver's own Newton tolerance
# 1e-12 * (1 + |u_n|): rounding of a ~10^4-term lag sum evaluated in a
# different order.
RESIDUAL_TOL = 1e-12
RESIDUAL_ROUNDING = 1e-13
MAJORANT_RTOL = 1e-8
BLOWUP_STEPS = 3.0  # t_star may sit this many steps from the closed-form time
MIDPOINT_FACTOR = 10.0  # relative error allowed at t*/2, in units of (h/t*)^2


def read_trajectory(path):
    """(t, u, status) from a ``t,u`` CSV with a ``# status=`` trailer."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "t,u" or not lines[-1].startswith("# status="):
        raise ValueError(f"{path}: not a trajectory file")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    rows = rows.reshape(-1, 2)
    return rows[:, 0], rows[:, 1], lines[-1][len("# status="):]


def read_bound_rows(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "t,u,g,mu_inv":
        raise ValueError(f"{path}: not a bound file")
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).reshape(-1, 4)


def trapezoid_residuals(t, u, f, a, nodes):
    """|u_n - f(t_n) - h*(a_0/2 + sum_{0<j<n} a_j + a_n/2)| at each node n
    of a uniform grid, with a_j = a(t_n, t_j, u_j) and an exactly rounded
    sum (``math.fsum``)."""
    h = t[1] - t[0]
    out = []
    for n in nodes:
        terms = a(t[n], t[: n + 1], u[: n + 1])
        terms[0] *= 0.5
        terms[n] *= 0.5
        out.append(abs(u[n] - f(t[n]) - h * math.fsum(terms)))
    return np.array(out)


def check_trapezoid(t, u, f, a, nodes):
    """The trajectory solves the product-trapezoidal equations at ``nodes``
    to within the solver tolerance."""
    nodes = np.asarray(nodes)
    residuals = trapezoid_residuals(t, u, f, a, nodes)
    allowed = RESIDUAL_TOL * (1.0 + np.abs(u[nodes])) + RESIDUAL_ROUNDING
    bad = np.flatnonzero(residuals > allowed)
    return [
        f"trapezoid residual {residuals[i]:.3e} at t={t[nodes[i]]:.6g} exceeds {allowed[i]:.3e}"
        for i in bad[:3]
    ]


def check_bound_rows(rows):
    """Every row of bound.csv satisfies |u| <= g <= mu_inv."""
    u, g, mu_inv = np.abs(rows[:, 1]), rows[:, 2], rows[:, 3]
    bad = np.flatnonzero(~((u <= g) & (g <= mu_inv)))
    return [
        f"bound.csv row t={rows[i, 0]:.6g}: |u|={u[i]:.6g}, g={g[i]:.6g}, mu_inv={mu_inv[i]:.6g}"
        for i in bad[:3]
    ]


def envelope_rk4(consts, initial, t_end, h, refine=2):
    """RK4 of g' = D(t) + K(t) * g^(2p) from the envelope constants, with
    D = c0 e^(-b0 t) + c1 e^(-b1 t) + c2 e^(-b t) and
    K = c1 e^(-b1 t) + c2 e^(-b t), at step h/refine; returns the values
    on the coarse grid t_k = k*h."""
    c0, b0, c1, b1, c2, b, p = (consts[k] for k in ("c0", "b0", "c1", "b1", "c2", "b", "p"))
    two_p = 2.0 * p
    exp = math.exp

    def rhs(t, g):
        k = c1 * exp(-b1 * t) + c2 * exp(-b * t)
        return c0 * exp(-b0 * t) + k + k * g**two_p

    n = int(round(t_end / h))
    hf = h / refine
    g = float(initial)
    out = [g]
    for k in range(n):
        for j in range(refine):
            t = k * h + j * hf
            k1 = rhs(t, g)
            k2 = rhs(t + 0.5 * hf, g + 0.5 * hf * k1)
            k3 = rhs(t + 0.5 * hf, g + 0.5 * hf * k2)
            k4 = rhs(t + hf, g + hf * k3)
            g += (hf / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(g)
    return np.array(out)


def check_majorant(values, reference):
    """The program's majorant agrees with the reference RK4 at every node."""
    if len(values) != len(reference):
        return [f"majorant has {len(values)} nodes, reference {len(reference)}"]
    err = np.abs(values - reference) / np.maximum(1.0, np.abs(reference))
    k = int(np.argmax(err))
    if err[k] > MAJORANT_RTOL:
        return [f"majorant differs from the reference RK4 by {err[k]:.3e} (relative) at node {k}"]
    return []


def check_below_bound(t, values, coefficient, rate):
    """The majorant stays at or below the certified bound exp(rate*t)/coefficient."""
    bound = np.exp(rate * np.asarray(t)) / coefficient
    bad = np.flatnonzero(np.asarray(values) > bound)
    return [f"majorant {values[i]:.6g} exceeds the bound {bound[i]:.6g} at t={t[i]:.6g}" for i in bad[:3]]


def check_exponential_conditions(consts, coefficient, rate, initial, strict):
    """Recompute the conditions behind an exponential certificate
    w(t) = coefficient * exp(-rate*t) on exponential envelope data:

    - level: (c0+c1+c2)*c + (c1+c2)*c^(1-2p) <= rate at t = 0;
    - start: c * g(0) < 1 (<= 1 when the certificate is non-strict);
    - tail: every exponent of the normalised condition is <= 0, so its
      supremum over t >= 0 sits at t = 0.
    """
    c0, b0, c1, b1, c2, b, p = (consts[k] for k in ("c0", "b0", "c1", "b1", "c2", "b", "p"))
    c = coefficient
    problems = []
    level = (c0 + c1 + c2) * c + (c1 + c2) * c ** (1.0 - 2.0 * p)
    if not level <= rate:
        problems.append(f"level {level:.6g} exceeds the rate {rate:.6g}")
    start = c * initial
    if not (start < 1.0 if strict else start <= 1.0):
        problems.append(f"start condition w(0)*g(0) = {start:.6g}")
    exponents = [-(b0 + rate)] if c0 > 0.0 else []
    for amp, decay in ((c1, b1), (c2, b)):
        if amp > 0.0:
            exponents += [-(decay + rate), (2.0 * p - 1.0) * rate - decay]
    positive = [x for x in exponents if x > 0.0]
    if positive:
        problems.append(f"positive tail exponents {positive}")
    return problems


def blowup_time(c, k):
    """Closed-form blow-up time of u = c + int_0^t u^k ds: c^(1-k)/(k-1)."""
    return c ** (1.0 - k) / (k - 1.0)


def blowup_solution(c, k, t):
    """u(t) = (c^(1-k) - (k-1) t)^(-1/(k-1)) for t below the blow-up time."""
    return (c ** (1.0 - k) - (k - 1.0) * t) ** (-1.0 / (k - 1.0))


def check_blowup(t_star, c, k, h):
    """The reported blow-up time lies within a few steps of the closed form."""
    exact = blowup_time(c, k)
    if not abs(t_star - exact) <= BLOWUP_STEPS * h:
        return [f"t_star {t_star:.9g} is {abs(t_star - exact) / h:.3g} steps from t* = {exact:.9g}"]
    return []


def check_midpoint(t, u, c, k, h):
    """u at the node nearest t*/2 matches the closed form to O(h^2)."""
    exact_time = blowup_time(c, k)
    n = int(round(0.5 * exact_time / h))
    if n >= len(u):
        return [f"trajectory stops before t*/2 (node {n})"]
    exact = blowup_solution(c, k, t[n])
    err = abs(u[n] - exact) / exact
    allowed = MIDPOINT_FACTOR * (h / exact_time) ** 2
    if not err <= allowed:
        return [f"u({t[n]:.6g}) = {u[n]:.9g} vs closed form {exact:.9g}: relative error {err:.3e} > {allowed:.3e}"]
    return []

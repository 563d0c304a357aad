"""Time stepping for u(t) = f(t) + int_0^t a(t, s, u(s)) ds on [0, t_end].

The integral is discretized by the product trapezoidal rule over all
accepted nodes, which leaves one implicit scalar equation per step:

    u_n = f(t_n) + h * (a(t_n,t_0,u_0)/2 + sum_j a(t_n,t_j,u_j) + a(t_n,t_n,u_n)/2)

solved by damped Newton with the symbolic kernel derivative a_u.  A root
counts only where the slope 1 - (h/2)*a_u(t_n,t_n,u_n) is positive.
When Newton finds no such root, the step is halved locally (up to 40
times, or until t has no float left), and halved again without an
attempt while it rounds to the time that failed.  Exhaustion is
finite-time blow-up when an attempt's |u| crossed the blow-up cap, or
when |u| at the accepted nodes runs away (``_runaway``), as a blow-up as
steep as that of u^7 does long before the cap; any other exhaustion is a
step failure.
The first attempt at a grid node takes the full step; each later search
towards it starts from the last sub-step accepted (see :func:`solve`),
so near a blow-up the steps shrink geometrically with the solution's
time scale, as in Stuart & Floater, "On the computation of blow-up"
(1990).  A solve that never refines never meets this rule.

Cost: when the kernel separates as a = sum_k phi_k(t) * psi_k(s, u)
(``expr.separate``), the history enters through one running trapezoid
sum of psi_k per term, so N nodes cost O(N) kernel evaluations.  Other
kernels, and separable ones after a factor has left its domain or
overflowed, are summed over every stored node at every attempt: O(N^2).
The scalar work calls no evaluator: on its first solve each problem
generates three step functions (``_Stepper``, kept on the spec) with
every tree written inline as the scalar evaluator's statements, a domain
failure giving NaN instead of a raise.  ``prelude`` gives an attempt's f
and its lag from the running sums (NaN without them), ``newton`` solves
its implicit equation (template ``_NEWTON``, whose comment states its
contract), and ``push`` adds an accepted node to the sums.  The part of
a(t, t, u) and a_u(t, t, u) that does not read u, such as exp(-(t+t)),
is computed once per attempt, not at every residual.  Each function
counts its evaluations in a local and adds them to
``_Stepper.evaluations`` once per call.  Only the sum over the history
goes through ``evaluate``, once per attempt.  Each attempt's Newton
result is a plain tuple.

Structure: the march is two loops in :func:`solve`, over the grid nodes
and over the attempts towards one, with the running sums as local lists.
It calls the three step functions directly: an attempt calls ``prelude``
and ``newton``, an accepted one ``push``.  Python call overhead, not
kernel work, bounds the stepping, so no frame runs per residual, and
none between ``solve`` and the step functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .expr import _SCALAR, EvalDomainError, _hoist, _inline, evaluate, separate
from .ioutil import write_csv_atomic
from .model import ProblemSpec

__all__ = [
    "Grid",
    "Completed",
    "BlowUp",
    "StepFailure",
    "Trajectory",
    "NonConvergenceError",
    "solve",
    "picard_reference",
    "write_trajectory_csv",
]

_NEWTON_TOL = 1e-12  # residual bound per accepted node, relative to 1 + |u_n|
_BLOWUP_CAP = 1e8  # |u| beyond this is blow-up evidence
_MAX_HALVINGS = 40
_MAX_SUBNODES = 400  # refinement nodes allowed between two grid nodes
_NEWTON_ITERATIONS = 60
_DERIVATIVE_FLOOR = 1e-12  # below this the Newton slope is unusable; the attempt fails


class NonConvergenceError(Exception):
    """Fixed-point iteration failed to settle within its budget."""

    def __init__(self, message: str, sup_diff: float = math.inf):
        self.sup_diff = sup_diff
        super().__init__(message)


@dataclass(frozen=True)
class Grid:
    """Uniform grid t_k = k*h with n = round(t_end/h) + 1 nodes, ending at
    t_end: h must divide t_end to a relative 1e-9."""

    t_end: float
    h: float

    def __post_init__(self):
        if not (self.h > 0.0):
            raise ValueError("h must be > 0")
        if not (self.t_end > 0.0):
            raise ValueError("t_end must be > 0")
        steps = self.t_end / self.h
        if not (0.0 < steps < math.inf and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError(f"step {self.h!r} does not divide t_end {self.t_end!r}")

    @property
    def n(self) -> int:
        return int(round(self.t_end / self.h)) + 1

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n)


@dataclass(frozen=True)
class Completed:
    pass


@dataclass(frozen=True)
class BlowUp:
    t_star: float


@dataclass(frozen=True)
class StepFailure:
    t: float
    reason: str


Status = Union[Completed, BlowUp, StepFailure]


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on the grid nodes reached before termination."""

    grid: Grid
    values: np.ndarray
    status: Status

    def times(self) -> np.ndarray:
        return self.grid.times()[: len(self.values)]


def solve(spec: ProblemSpec, grid: Grid) -> Trajectory:
    """March the discretized equation across the grid.

    Each accepted node satisfies its implicit equation to residual
    <= 1e-12 * (1 + |u_n|) and |u_n| <= 1e8, the blow-up cap.  The
    returned trajectory is a pure function of the inputs (bit-identical
    on repeated runs).  Values stop at the last grid node accepted
    before blow-up or failure.

    One loop of attempts reaches each grid node from the last accepted
    node (t_cur, u_cur): a failed attempt halves the step ``h``, and an
    accepted one that falls short of the node adds a refinement subnode
    and starts a new search.  The first search towards a node starts at
    the full remaining step, each later one at the remaining step or, if
    that is longer, at the step the last subnode took, times two if it
    was accepted at its search's first attempt.  A halved step that still
    rounds to the time just tried is halved again, no attempt made twice.
    Subnodes stay in the history, so the quadrature remains consistent;
    only grid nodes are reported.  ``evidence`` says that an earlier,
    longer attempt of this search reached |u| > 1e8; it and ``_runaway``
    over the accepted nodes decide BlowUp against StepFailure.

    An attempt computes f, then the lag, then calls ``newton``; a domain
    failure (NaN from f, or a raise from the direct quadrature) makes
    the right-hand side NaN, which fails it before Newton.  For a
    separable kernel, ``closed[k]`` is the integral of psi_k over the
    closed segments between accepted nodes and ``last[k]`` is psi_k at
    the last accepted node, whose right half weight depends on the
    attempted step, so the lag at t is sum_k phi_k(t) * (closed[k] +
    half * last[k]).  The first lag from the sums that is not finite (a
    factor leaving its domain, NaN, or overflowing where the kernel does
    not) drops them for good, and the quadrature runs over the stored
    nodes from then on; without sums ``prelude`` gives a NaN lag, so one
    test serves both.  f goes first, and a NaN f keeps the sums.
    """
    stepper = spec._stepper
    prelude, newton, push = stepper.prelude, stepper.newton, stepper.push
    u_cur, _ = prelude(0.0, 0.0, None, None)
    if u_cur != u_cur:
        spec.f.scalar(0.0, None, None)  # raises the domain error
    t_cur = 0.0
    # The history in amortized-growth arrays, so the direct quadrature
    # reads contiguous views instead of converting lists every attempt.
    ht, hu = np.empty(256), np.empty(256)
    ht[0], hu[0] = t_cur, u_cur
    m = 1
    closed = last = None  # the running sums, while they serve
    if stepper.terms is not None:
        closed, last = [0.0] * stepper.terms, [0.0] * stepper.terms
        # With half = 0 this sets last[k] = psi_k(0, u_0), and closed[k]
        # stays 0.0 unless last[k] is not finite, which drops the sums at
        # the first lag either way.
        push(t_cur, u_cur, 0.0, closed, last)
    values = [u_cur]
    status: Status | None = None

    for target in grid.times()[1:].tolist():
        subnodes = halvings = 0
        evidence = False
        h = target - t_cur
        while True:
            # Land on the grid node exactly; rounding of t_cur + h must not
            # perturb where f and the kernel are sampled.
            t_cand = target if h == target - t_cur else t_cur + h
            half = 0.5 * (t_cand - t_cur)
            fval, lag = prelude(t_cand, half, closed, last)
            if fval == fval and not math.isfinite(lag):
                closed = last = None
                try:
                    lag = _direct_lag(spec, ht[:m], hu[:m], t_cand)
                except EvalDomainError:
                    lag = math.nan
            converged, u_new, max_abs = newton(t_cand, fval + lag, half, u_cur)
            if converged and abs(u_new) <= _BLOWUP_CAP:
                if m == len(ht):
                    ht = np.concatenate([ht, np.empty_like(ht)])
                    hu = np.concatenate([hu, np.empty_like(hu)])
                ht[m] = t_cur = t_cand
                hu[m] = u_cur = u_new
                m += 1
                if closed is not None:
                    push(t_cand, u_new, half, closed, last)
                if not t_cur < target:
                    break
                subnodes += 1
                if subnodes > _MAX_SUBNODES:
                    status = StepFailure(t=t_cur, reason="local refinement budget exhausted")
                    break
                # The next search starts from the step just taken, 2 * half,
                # doubled when it needed no halving.
                h = min(target - t_cur, half * (2.0 if halvings else 4.0))
                halvings = 0
                evidence = False
                continue
            if max_abs > _BLOWUP_CAP:  # max_abs >= |u_new|
                evidence = True
            halvings += 1
            h *= 0.5
            # A step that still rounds to t_cand would repeat the attempt
            # just failed: halve on, counting each halving it would have.
            while t_cur + h == t_cand and halvings <= _MAX_HALVINGS:
                halvings += 1
                h *= 0.5
            if halvings > _MAX_HALVINGS or t_cur + h <= t_cur:
                # Bracket: last accepted time and the smallest step that failed.
                if evidence or _runaway(ht[:m], hu[:m]):
                    status = BlowUp(t_star=0.5 * (t_cur + t_cand))
                else:
                    status = StepFailure(
                        t=t_cur, reason="step solve failed without |u| growth after local halving")
                break
        if status is not None:
            break
        values.append(u_cur)

    traj_values = np.array(values, dtype=float)
    traj_values.flags.writeable = False
    return Trajectory(grid=grid, values=traj_values, status=status or Completed())


def _runaway(ht, hu) -> bool:
    """Whether |u| doubled three times up to the last node, each doubling
    at most half as long as the one before (the times where |u|, linear
    between nodes, last rose through |u_last|/2, /4 and /8).

    Near u ~ (t* - t)^-g with g <= 1 the doubling times form a geometric
    series of ratio 2^(-1/g) <= 1/2, so t* lies within the last
    doubling's length of the last node.  Steps that follow u' = u^7 run t
    out of floats with u near 500, far below the cap."""
    a = np.abs(hu)
    times = [ht[-1]]
    for level in a[-1] / np.array([2.0, 4.0, 8.0]):
        below = np.flatnonzero(a <= level)
        if not (level > 0.0 and below.size):
            return False
        i = below[-1]  # before the last node, which is above the level
        times.append(ht[i] + (level - a[i]) / (a[i + 1] - a[i]) * (ht[i + 1] - ht[i]))
    d1, d2, d3 = np.subtract(times[:-1], times[1:])
    return bool(0.0 < d1 <= 0.5 * d2 and d2 <= 0.5 * d3)


def _direct_lag(spec, ht, hu, t_new) -> float:
    """Trapezoid sum of a(t_new, t_j, u_j) over the stored nodes (ht, hu)."""
    m = len(ht)
    # trapezoid weights over the nodes [t_0, ..., t_{m-1}, t_new]:
    # w_j = (d_{j-1} + d_j)/2 with segment lengths d and d_{-1} = 0
    d = np.empty(m)
    np.subtract(ht[1:], ht[:-1], out=d[: m - 1])
    d[m - 1] = t_new - ht[m - 1]
    w = np.empty(m)
    w[0] = 0.0
    w[1:] = d[: m - 1]
    w += d
    w *= 0.5
    return float(np.dot(w, np.broadcast_to(evaluate(spec.a, {"t": t_new, "s": ht, "u": hu}), (m,))))


# newton(t, rhs, weight, u_start) solves
# u = rhs + weight * a(t, t, u) by damped Newton from u_start.
#
# It returns the plain tuple (converged, value, max_abs): whether an
# accepted root was found, the last iterate (the root when converged),
# and the largest |u| seen among the iterates, the blow-up evidence.  A
# plain tuple, because a named one took about ten times as long to build,
# once per attempt.  A NaN rhs (f or the lag failed) fails the attempt
# before Newton, with no evaluation and max_abs = 0.
#
# The residual is u - rhs - weight * a(t, t, u) and the slope
# 1 - weight * a_u(t, t, u), written out at each use.  Newton stops
# without a root where the start residual is NaN, the slope is flat or
# not finite (a NaN from a or a_u is a domain failure), 30 halvings of
# its step find no decrease of the residual, or its iterations run out.
# The attempt then fails with the largest |u| reached so far, and the
# caller halves the step.
#
# A root is accepted only where the residual increases through it,
# slope > 0, as on the branch that continues the solution from the last
# node.  Elsewhere, such as the far root an odd power always has, the
# attempt fails with |u| as blow-up evidence.  The slope Newton computed
# at the iterate the root was reached from stands in for the slope at the
# root; only when the start already converged is the slope evaluated at
# the root.  NaN fails the test.
#
# max_abs >= |u| holds throughout: each iterate is a trial, and each trial
# enters max_abs before it can be taken.
#
# Each upper-case line becomes the statements of a tree at a point;
# HOISTED computes the part of a and a_u that does not read u, where a
# failure would make every residual NaN.
_NEWTON = """\
def newton(t, rhs, weight, u_start):
    if rhs != rhs:
        return False, u_start, 0.0
    n = 0
    try:
        HOISTED
        max_abs = abs(u_start)
        u = u_start
        A_AT_U
        n = 1
        fu = u - rhs - weight * a
        if fu != fu:
            return False, u, max_abs
        d = None  # slope at the Newton iterate the current u was reached from
        for _ in range(_NEWTON_ITERATIONS):
            if abs(fu) <= _NEWTON_TOL * (1.0 + abs(u)):
                break
            A_U_AT_U
            n += 1
            d = 1.0 - weight * a_u
            if not isfinite(d) or abs(d) < _DERIVATIVE_FLOOR:
                return False, u, max_abs
            step = fu / d
            size = abs(fu)
            for _ in range(30):
                trial = u - step
                A_AT_TRIAL
                n += 1
                ft = trial - rhs - weight * a
                if abs(trial) > max_abs:  # as max(max_abs, |trial|), NaN included
                    max_abs = abs(trial)
                if abs(ft) < size:  # false for a NaN or infinite ft
                    u, fu = trial, ft
                    break
                step *= 0.5
            else:
                return False, u, max_abs
        else:
            if not abs(fu) <= _NEWTON_TOL * (1.0 + abs(u)):
                return False, u, max_abs
        if d is None:
            A_U_AT_U
            n += 1
            d = 1.0 - weight * a_u
        return d > 0.0, u, max_abs
    finally:
        stepper.evaluations += n
"""


class _Stepper:
    """One problem's step functions, each tree written inline:
    ``prelude(t, half, closed, last)`` gives f(t) and, if f(t) is not NaN
    and the sums are given, the lag sum_k phi_k(t)*(closed[k] + half*last[k])
    from 0.0, else NaN; ``newton`` is :data:`_NEWTON`;
    ``push(s, u, half, closed, last)`` adds the accepted node (s, u) to the
    sums.  ``evaluations`` counts their evaluations of f, phi_k, psi_k, a
    and a_u; ``terms`` is the separated kernel's term count, or None."""

    def __init__(self, spec):
        self.evaluations = 0
        terms = separate(spec.a)
        self.terms = None if terms is None else len(terms)
        namespace = dict(_SCALAR.namespace)
        at_t, at_node = {"t": "t"}, {"s": "s", "u": "u"}
        prelude = [*_inline(spec.f, "fval", at_t, namespace),
                   "if fval != fval or closed is None:",
                   "    stepper.evaluations += 1",
                   "    return fval, nan",
                   "lag = 0.0"]
        push = []
        for k, (phi, psi) in enumerate(terms or ()):
            prelude += [*_inline(phi, "phi", at_t, namespace),
                        f"lag += phi * (closed[{k}] + half * last[{k}])"]
            push += [*_inline(psi, "psi", at_node, namespace),
                     f"closed[{k}] += half * (last[{k}] + psi)", f"last[{k}] = psi"]
        prelude += [f"stepper.evaluations += {1 + (self.terms or 0)}", "return fval, lag"]
        push.append(f"stepper.evaluations += {self.terms or 0}")

        diagonal = {"t": "t", "s": "t"}
        hoisted, names = _hoist([spec.a, spec.a_u], diagonal, namespace,
                                "n = 1; return False, u_start, abs(u_start)")
        blocks = {
            "HOISTED": hoisted,
            "A_AT_U": _inline(spec.a, "a", {**diagonal, "u": "u"}, namespace, names),
            "A_AT_TRIAL": _inline(spec.a, "a", {**diagonal, "u": "trial"}, namespace, names),
            "A_U_AT_U": _inline(spec.a_u, "a_u", {**diagonal, "u": "u"}, namespace, names),
        }
        source = ["def prelude(t, half, closed, last):", *("    " + line for line in prelude),
                  "def push(s, u, half, closed, last):", *("    " + line for line in push)]
        for line in _NEWTON.splitlines():
            indent, key = line[: len(line) - len(line.lstrip())], line.strip()
            source += [indent + text for text in blocks[key]] if key in blocks else [line]
        namespace.update(stepper=self, nan=math.nan, isfinite=math.isfinite, _NEWTON_TOL=_NEWTON_TOL,
                         _NEWTON_ITERATIONS=_NEWTON_ITERATIONS, _DERIVATIVE_FLOOR=_DERIVATIVE_FLOOR)
        exec(compile("\n".join(source) + "\n", "<stepper>", "exec"), namespace)
        self.prelude, self.newton, self.push = (namespace[name] for name in ("prelude", "newton", "push"))


# ---------------------------------------------------------------------------
# Picard reference iteration
# ---------------------------------------------------------------------------


def picard_reference(spec: ProblemSpec, grid: Grid, iterations: int = 50) -> Trajectory:
    """Fixed-point iteration u <- f + int a(t, s, u) on the same grid.

    Used in tests as an independent second solver on short horizons; the
    converged iterate satisfies the same trapezoidal equations as
    :func:`solve`.  Raises :class:`NonConvergenceError` when successive
    iterates still differ by more than 1e-8 in sup norm after the
    budget, or when the iteration leaves the floating-point range.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    t = grid.times()
    n = grid.n
    f_vals = np.broadcast_to(np.asarray(evaluate(spec.f, {"t": t}), dtype=float), (n,)).copy()
    u = f_vals.copy()
    diff = math.inf
    for _ in range(iterations):
        new = f_vals.copy()
        try:
            for m in range(1, n):
                w = np.full(m + 1, grid.h)
                w[0] = w[-1] = 0.5 * grid.h
                vals = evaluate(spec.a, {"t": float(t[m]), "s": t[: m + 1], "u": u[: m + 1]})
                new[m] = f_vals[m] + float(np.sum(w * vals))
        except EvalDomainError as exc:
            raise NonConvergenceError(f"iteration left the real domain: {exc}") from exc
        diff = float(np.max(np.abs(new - u)))
        u = new
        if diff <= 1e-8:
            u.flags.writeable = False
            return Trajectory(grid=grid, values=u, status=Completed())
    raise NonConvergenceError(
        f"no convergence after {iterations} iterations (sup diff {diff:.3e})", sup_diff=diff
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _status_fields(status: Status) -> dict:
    """The status as ``report.json`` stores it, and the CSV renders it."""
    if isinstance(status, Completed):
        return {"kind": "completed"}
    if isinstance(status, BlowUp):
        return {"kind": "blowup", "t_star": status.t_star}
    return {"kind": "step_failure", "t": status.t, "reason": status.reason}


def _trajectory_csv(traj: Trajectory, path: Union[str, Path]) -> tuple:
    """The ``write_csv_atomic`` target of the trajectory over leading
    columns (t, u): ``t,u`` rows and a trailing ``# status=...`` line."""
    fields = _status_fields(traj.status)
    status = " ".join([fields.pop("kind")] + [f"{k}={v}" if isinstance(v, str) else f"{k}={v:.17g}"
                                              for k, v in fields.items()])
    return path, "t,u", 2, len(traj.values), (f"# status={status}",)


def write_trajectory_csv(traj: Trajectory, path: Union[str, Path]) -> None:
    """Write ``t,u`` rows with 17 significant digits (binary64 round
    trip) and a trailing ``# status=...`` comment line."""
    write_csv_atomic((traj.times(), traj.values), [_trajectory_csv(traj, path)])

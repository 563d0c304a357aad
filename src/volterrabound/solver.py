"""Time stepping for u(t) = f(t) + int_0^t a(t, s, u(s)) ds on [0, t_end].

The integral is discretized by the product trapezoidal rule over all
accepted nodes, which leaves one implicit scalar equation per step:

    u_n = f(t_n) + h * (a(t_n,t_0,u_0)/2 + sum_j a(t_n,t_j,u_j) + a(t_n,t_n,u_n)/2)

solved by damped Newton with the symbolic kernel derivative a_u.  A root
counts only where the slope 1 - (h/2)*a_u(t_n,t_n,u_n) is positive.
When Newton finds no such root, the step is halved locally (up to 40 times);
exhaustion with evidence of |u| crossing the blow-up cap is reported as
finite-time blow-up, exhaustion without growth as a step failure.  Once
a node has that evidence, an attempt whose first slope, at the last
accepted value, is not positive starts past the fold of the blow-up
branch and fails at once, without Newton iterations.  This fold stop is
a heuristic: in seeded fuzzing it never changed a result on blow-up
kernels, but Newton overshoot on a kernel with an oscillating slope can
give evidence without a blow-up, and there a stopped attempt may have
had a root (``tests/test_solver.py::test_fold_stop_is_not_a_proof``).

Cost: when the kernel separates as a = sum_k phi_k(t) * psi_k(s, u)
(``expr.separate``), the history enters through one running trapezoid
sum of psi_k per term, so N nodes cost O(N) kernel evaluations.  Other
kernels, and separable ones after a factor has left its domain or
overflowed, are summed over every stored node at every attempt: O(N^2).
The scalar work (f, Newton's residual and slope, the running sums) calls
each tree's generated ``Expr.quiet`` function with positional floats,
one Python frame per evaluation, a domain failure being NaN; only the
sum over the history goes through ``evaluate``, once per attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .expr import EvalDomainError, Expr, evaluate, separate
from .ioutil import write_text_atomic
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


@dataclass(frozen=True)
class _SolveResult:
    converged: bool
    value: float
    max_abs: float  # largest |u| seen among iterates; blow-up evidence


class _LagSums:
    """Running trapezoid sums for a kernel a = sum_k phi_k(t) * psi_k(s, u).

    ``closed[k]`` is the integral of psi_k over the closed segments
    between accepted nodes, sum of d/2 * (psi_k(left) + psi_k(right));
    ``last[k]`` is psi_k at the last accepted node, whose right half
    weight d/2 depends on the attempted step.  The lag of an attempt at
    t is then sum_k phi_k(t) * (closed[k] + d/2 * last[k]): O(1) per
    attempt instead of O(history).
    """

    __slots__ = ("outer", "inner", "closed", "last")

    def __init__(self, terms, s0: float, u0: float):
        self.outer = [outer.quiet for outer, _ in terms]
        self.inner = [inner.quiet for _, inner in terms]
        self.closed = [0.0] * len(terms)
        self.last = self._inner_values(s0, u0)

    def _inner_values(self, s: float, u: float) -> list:
        return [inner(None, s, u) for inner in self.inner]

    def lag(self, t: float, half_step: float) -> float:
        total = 0.0
        for outer, closed, last in zip(self.outer, self.closed, self.last):
            total += outer(t, None, None) * (closed + half_step * last)
        return total

    def close_segment(self, half_step: float, s: float, u: float) -> None:
        new = self._inner_values(s, u)
        self.closed = [c + half_step * (a + b) for c, a, b in zip(self.closed, self.last, new)]
        self.last = new


class _History:
    """Append-only (t, u) store backed by amortized-growth arrays, so
    the per-step quadrature reads contiguous views instead of converting
    Python lists every attempt.  For a separable kernel it also keeps
    the running lag sums, until their lag is not finite once (a factor
    leaving its domain, NaN, or overflowing where the kernel does not);
    from then on the quadrature runs over the stored nodes.  A NaN in
    the sums stays until ``split_lag`` drops them, before any push."""

    __slots__ = ("t", "u", "n", "last_t", "last_u", "sums")

    def __init__(self, t0: float, u0: float, kernel: Expr):
        self.t = np.empty(256)
        self.u = np.empty(256)
        self.t[0] = self.last_t = t0
        self.u[0] = self.last_u = u0
        self.n = 1
        terms = separate(kernel, "t")
        self.sums = None if terms is None else _LagSums(terms, t0, u0)

    def push(self, t: float, u: float) -> None:
        half_step = 0.5 * (t - self.last_t)
        if self.n == len(self.t):
            self.t = np.concatenate([self.t, np.empty_like(self.t)])
            self.u = np.concatenate([self.u, np.empty_like(self.u)])
        self.t[self.n] = self.last_t = t
        self.u[self.n] = self.last_u = u
        self.n += 1
        if self.sums is not None:
            self.sums.close_segment(half_step, t, u)

    def split_lag(self, t: float, half_step: float) -> float | None:
        """The lag from the running sums, or None once they are unusable."""
        if self.sums is None:
            return None
        lag = self.sums.lag(t, half_step)
        if not math.isfinite(lag):
            self.sums = None
            return None
        return lag


def solve(spec: ProblemSpec, grid: Grid) -> Trajectory:
    """March the discretized equation across the grid.

    Each accepted node satisfies its implicit equation to residual
    <= 1e-12 * (1 + |u_n|) and |u_n| <= 1e8, the blow-up cap.  The
    returned trajectory is a pure function of the inputs (bit-identical
    on repeated runs).  Values stop at the last grid node accepted
    before blow-up or failure.
    """
    tgrid = grid.times()
    u0 = spec.f.scalar(0.0, None, None)
    hist = _History(0.0, u0, spec.a)
    values = [u0]
    status: Status = Completed()

    for n in range(1, grid.n):
        terminal = _advance_to(spec, hist, float(tgrid[n]))
        if terminal is not None:
            status = terminal
            break
        values.append(hist.last_u)

    traj_values = np.array(values, dtype=float)
    traj_values.flags.writeable = False
    return Trajectory(grid=grid, values=traj_values, status=status)


def _advance_to(spec, hist, target):
    """Extend the history to ``target``, refining locally if needed.

    Returns None on success or a terminal status.  Accepted refinement
    nodes stay in the history so the quadrature remains consistent; only
    grid nodes are reported in the trajectory.  ``blowup_evidence`` says
    that an earlier, longer attempt at this node reached |u| > 1e8; it
    decides BlowUp against StepFailure, and each later attempt at the
    node gets it for the fold stop of :func:`_implicit_scalar`.
    """
    subnodes = 0
    while hist.last_t < target:
        t_cur = hist.last_t
        h_full = target - t_cur
        h_loc = h_full
        halvings = 0
        blowup_evidence = False
        while True:
            # Land on the grid node exactly; rounding of t_cur + h_loc
            # must not perturb where f and the kernel are sampled.
            t_cand = target if h_loc == h_full else t_cur + h_loc
            res = _attempt_step(spec, hist, t_cand, blowup_evidence)
            if res.converged and abs(res.value) <= _BLOWUP_CAP:
                hist.push(t_cand, res.value)
                break
            if res.max_abs > _BLOWUP_CAP or (res.converged and abs(res.value) > _BLOWUP_CAP):
                blowup_evidence = True
            halvings += 1
            h_loc *= 0.5
            if halvings > _MAX_HALVINGS or t_cur + h_loc <= t_cur:
                # Bracket: last accepted time and the smallest step that failed.
                t_star = 0.5 * (t_cur + t_cand)
                if blowup_evidence:
                    return BlowUp(t_star=t_star)
                return StepFailure(
                    t=t_cur,
                    reason="step solve failed without |u| growth after local halving",
                )
        subnodes += 1
        if subnodes > _MAX_SUBNODES and hist.last_t < target:
            return StepFailure(t=hist.last_t, reason="local refinement budget exhausted")
    return None


def _attempt_step(spec, hist, t_new, blowup_evidence) -> _SolveResult:
    """One implicit solve at t_new over the current history.

    A domain failure (NaN from f, or a raise from the direct
    quadrature) fails the attempt, for the halving machinery to judge.
    f goes first: ``split_lag`` may drop the running sums.  f and the
    lag are computed even where the fold stop then ends the attempt, so
    the sums are dropped at the same attempt with or without the stop.
    """
    half_step = 0.5 * (t_new - hist.last_t)
    fval = spec.f.quiet(t_new, None, None)
    if math.isnan(fval):
        return _SolveResult(False, 0.0, 0.0)
    lag = hist.split_lag(t_new, half_step)
    if lag is None:
        try:
            lag = _direct_lag(spec, hist, t_new)
        except EvalDomainError:
            return _SolveResult(False, 0.0, 0.0)
    return _implicit_scalar(spec, t_new, fval + lag, half_step, hist.last_u, blowup_evidence)


def _direct_lag(spec, hist, t_new) -> float:
    """Trapezoid sum of a(t_new, t_j, u_j) over every stored node."""
    m = hist.n
    ht = hist.t[:m]
    hu = hist.u[:m]
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


def _implicit_scalar(spec, t, rhs, weight, u_start, blowup_evidence) -> _SolveResult:
    """Solve u = rhs + weight * a(t, t, u) by damped Newton from u_start.

    Newton stops without a root where the start residual is NaN, the
    slope is flat or not finite (a NaN from a or a_u is a domain
    failure), 30 halvings of its step find no decrease of the residual,
    or its iterations run out.  The attempt then fails with the largest
    |u| reached so far, and the caller halves the step.

    Fold stop: with ``blowup_evidence`` from a longer attempt at this
    node, a first slope at u_start that is not positive (NaN included)
    ends the attempt after one residual and one slope, with max_abs =
    |u_start|.  On a blow-up the start then lies past the fold, where
    failed attempts used to spend about 130 evaluations before their
    line search gave up.  The evidence is already set, so only a
    stopped attempt that Newton would have completed can change the
    result (see the module docstring).
    """
    a, a_u = spec.a.quiet, spec.a_u.quiet

    def residual(u: float) -> float:
        return u - rhs - weight * a(t, t, u)

    def slope(u: float) -> float:
        return 1.0 - weight * a_u(t, t, u)

    max_abs = abs(u_start)
    u = u_start
    fu = residual(u)
    if math.isnan(fu):
        return _SolveResult(False, u, max_abs)

    d = None  # slope at the Newton iterate the current u was reached from
    for _ in range(_NEWTON_ITERATIONS):
        if abs(fu) <= _NEWTON_TOL * (1.0 + abs(u)):
            return _on_branch(u, d, slope, max_abs)
        first = d is None
        d = slope(u)
        if first and blowup_evidence and not d > 0.0:
            return _SolveResult(False, u, max_abs)
        if not math.isfinite(d) or abs(d) < _DERIVATIVE_FLOOR:
            return _SolveResult(False, u, max_abs)
        step = fu / d
        for _ in range(30):
            trial = u - step
            ft = residual(trial)
            max_abs = max(max_abs, abs(trial))
            if math.isfinite(ft) and abs(ft) < abs(fu):
                u, fu = trial, ft
                break
            step *= 0.5
        else:
            return _SolveResult(False, u, max_abs)
    if abs(fu) <= _NEWTON_TOL * (1.0 + abs(u)):
        return _on_branch(u, d, slope, max_abs)
    return _SolveResult(False, u, max_abs)


def _on_branch(u, d, slope, max_abs) -> _SolveResult:
    """Accept the root u only where the residual increases through it,
    slope 1 - weight * a_u(t, t, u) > 0, as on the branch that continues
    the solution from the last node.  Elsewhere, such as the far root an
    odd power always has, the attempt fails with |u| as blow-up
    evidence.  ``d`` is the slope Newton computed at the iterate u was
    reached from; it stands in for the slope at u.  It is None only when
    the start already converged, and the slope is then evaluated at u;
    NaN fails the test."""
    if d is None:
        d = slope(u)
    if d > 0.0:
        return _SolveResult(True, u, max_abs)
    return _SolveResult(False, u, max(max_abs, abs(u)))


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


def write_trajectory_csv(traj: Trajectory, path: Union[str, Path]) -> None:
    """Write ``t,u`` rows with 17 significant digits (binary64 round
    trip) and a trailing ``# status=...`` comment line."""
    fields = _status_fields(traj.status)
    status = " ".join([fields.pop("kind")] + [f"{k}={v}" if isinstance(v, str) else f"{k}={v:.17g}"
                                              for k, v in fields.items()])
    rows = zip(map(float, traj.times()), map(float, traj.values))  # as in cli._write_bound_csv
    lines = ["t,u"] + ["%.17g,%.17g" % row for row in rows] + [f"# status={status}"]
    write_text_atomic(Path(path), "\n".join(lines) + "\n")

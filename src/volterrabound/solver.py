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
sum over the history goes through ``evaluate``, once per attempt.  Each
attempt's Newton result is a plain tuple, the cheapest object Python
builds for it.

Structure: the march is one loop in :func:`solve`, which holds the grid
nodes, the local halving and refinement, each attempt's f and lag, and
the running sums as local lists.  Each attempt makes one call, to
:func:`_implicit_scalar`, which writes the residual and the slope out
at each use.  Python call overhead, not kernel work, bounds the
stepping, so no helper frame runs per node or per residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .expr import EvalDomainError, evaluate, separate
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


# An attempt that failed before Newton, as (converged, value, max_abs).
_FAILED = (False, 0.0, 0.0)


def solve(spec: ProblemSpec, grid: Grid) -> Trajectory:
    """March the discretized equation across the grid.

    Each accepted node satisfies its implicit equation to residual
    <= 1e-12 * (1 + |u_n|) and |u_n| <= 1e8, the blow-up cap.  The
    returned trajectory is a pure function of the inputs (bit-identical
    on repeated runs).  Values stop at the last grid node accepted
    before blow-up or failure.

    Each grid node is reached from the last accepted node (t_cur, u_cur)
    by attempts at shorter and shorter steps: a failed attempt halves
    the step, and an accepted one that falls short of the node adds a
    refinement subnode.  Subnodes stay in the history, so the quadrature
    remains consistent; only grid nodes are reported.  ``evidence`` says
    that an earlier, longer attempt at this node reached |u| > 1e8; it
    decides BlowUp against StepFailure, and each later attempt at the
    node gets it for the fold stop of :func:`_implicit_scalar`.

    An attempt computes f, then the lag, then calls ``_implicit_scalar``;
    a domain failure (NaN from f, or a raise from the direct quadrature)
    fails it before Newton.  For a separable kernel, ``closed[k]`` is the
    integral of psi_k over the closed segments between accepted nodes
    and ``last[k]`` is psi_k at the last accepted node, whose right half
    weight depends on the attempted step, so the lag at t is sum_k
    phi_k(t) * (closed[k] + half * last[k]).  The first lag from the sums
    that is not finite (a factor leaving its domain, NaN, or overflowing
    where the kernel does not) drops them for good, and the quadrature
    runs over the stored nodes from then on.  f goes first, so the sums
    are dropped at the same attempt with or without the fold stop.
    """
    f = spec.f.quiet
    t_cur, u_cur = 0.0, spec.f.scalar(0.0, None, None)
    # The history in amortized-growth arrays, so the direct quadrature
    # reads contiguous views instead of converting lists every attempt.
    ht, hu = np.empty(256), np.empty(256)
    ht[0], hu[0] = t_cur, u_cur
    m = 1
    terms = separate(spec.a, "t")
    split = terms is not None
    if split:
        outer = [phi.quiet for phi, _ in terms]
        inner = [psi.quiet for _, psi in terms]
        closed = [0.0] * len(terms)
        last = [psi(None, t_cur, u_cur) for psi in inner]
    values = [u_cur]
    status: Status | None = None

    for target in grid.times()[1:].tolist():
        subnodes = 0
        while t_cur < target:
            h_full = h_loc = target - t_cur
            halvings = 0
            evidence = False
            while True:
                # Land on the grid node exactly; rounding of t_cur + h_loc
                # must not perturb where f and the kernel are sampled.
                t_cand = target if h_loc == h_full else t_cur + h_loc
                half = 0.5 * (t_cand - t_cur)
                res = _FAILED
                fval = f(t_cand, None, None)
                if fval == fval:
                    lag = None
                    if split:
                        lag = 0.0
                        for phi, c, l in zip(outer, closed, last):
                            lag += phi(t_cand, None, None) * (c + half * l)
                        if not math.isfinite(lag):
                            split = False
                            lag = None
                    if lag is None:
                        try:
                            lag = _direct_lag(spec, ht[:m], hu[:m], t_cand)
                        except EvalDomainError:
                            pass
                    if lag is not None:
                        res = _implicit_scalar(spec, t_cand, fval + lag, half, u_cur, evidence)
                converged, u_new, max_abs = res
                if converged and abs(u_new) <= _BLOWUP_CAP:
                    break
                if max_abs > _BLOWUP_CAP:  # max_abs >= |u_new|
                    evidence = True
                halvings += 1
                h_loc *= 0.5
                if halvings > _MAX_HALVINGS or t_cur + h_loc <= t_cur:
                    # Bracket: last accepted time and the smallest step that failed.
                    if evidence:
                        status = BlowUp(t_star=0.5 * (t_cur + t_cand))
                    else:
                        status = StepFailure(
                            t=t_cur,
                            reason="step solve failed without |u| growth after local halving",
                        )
                    break
            if status is not None:
                break
            if m == len(ht):
                ht = np.concatenate([ht, np.empty_like(ht)])
                hu = np.concatenate([hu, np.empty_like(hu)])
            ht[m] = t_cur = t_cand
            hu[m] = u_cur = u_new
            m += 1
            if split:
                for k, psi in enumerate(inner):
                    new = psi(None, t_cand, u_new)
                    closed[k] += half * (last[k] + new)
                    last[k] = new
            subnodes += 1
            if subnodes > _MAX_SUBNODES and t_cur < target:
                status = StepFailure(t=t_cur, reason="local refinement budget exhausted")
                break
        if status is not None:
            break
        values.append(u_cur)

    traj_values = np.array(values, dtype=float)
    traj_values.flags.writeable = False
    return Trajectory(grid=grid, values=traj_values, status=status or Completed())


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


def _implicit_scalar(spec, t, rhs, weight, u_start, blowup_evidence) -> tuple[bool, float, float]:
    """Solve u = rhs + weight * a(t, t, u) by damped Newton from u_start.

    Returns the plain tuple ``(converged, value, max_abs)``: whether an
    accepted root was found, the last iterate (the root when converged),
    and the largest |u| seen among the iterates, the blow-up evidence.
    A plain tuple, because a named one took about ten times as long to
    build, once per attempt.

    The residual is u - rhs - weight * a(t, t, u) and the slope
    1 - weight * a_u(t, t, u), written out at each use.  Newton stops
    without a root where the start residual is NaN, the slope is flat
    or not finite (a NaN from a or a_u is a domain failure), 30 halvings
    of its step find no decrease of the residual, or its iterations run
    out.  The attempt then fails with the largest |u| reached so far,
    and the caller halves the step.

    A root is accepted only where the residual increases through it,
    slope > 0, as on the branch that continues the solution from the
    last node.  Elsewhere, such as the far root an odd power always
    has, the attempt fails with |u| as blow-up evidence.  The slope
    Newton computed at the iterate the root was reached from stands in
    for the slope at the root; only when the start already converged is
    the slope evaluated at the root.  NaN fails the test.

    Fold stop: with ``blowup_evidence`` from a longer attempt at this
    node, a first slope at u_start that is not positive (NaN included)
    ends the attempt after one residual and one slope, with max_abs =
    |u_start|.  On a blow-up the start then lies past the fold, where
    failed attempts used to spend about 130 evaluations before their
    line search gave up.  The evidence is already set, so only a
    stopped attempt that Newton would have completed can change the
    result (see the module docstring).

    max_abs >= |u| holds throughout: each iterate is a trial, and each
    trial enters max_abs before it can be taken.
    """
    a, a_u = spec.a.quiet, spec.a_u.quiet
    max_abs = abs(u_start)
    u = u_start
    fu = u - rhs - weight * a(t, t, u)
    if fu != fu:
        return False, u, max_abs

    d = None  # slope at the Newton iterate the current u was reached from
    for _ in range(_NEWTON_ITERATIONS):
        if abs(fu) <= _NEWTON_TOL * (1.0 + abs(u)):
            break
        first = d is None
        d = 1.0 - weight * a_u(t, t, u)
        if first and blowup_evidence and not d > 0.0:
            return False, u, max_abs
        if not math.isfinite(d) or abs(d) < _DERIVATIVE_FLOOR:
            return False, u, max_abs
        step = fu / d
        size = abs(fu)
        for _ in range(30):
            trial = u - step
            ft = trial - rhs - weight * a(t, t, trial)
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
        d = 1.0 - weight * a_u(t, t, u)
    return d > 0.0, u, max_abs


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

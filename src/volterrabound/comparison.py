"""Majorant integration and the norm-derivative sanity check.

The growth inequality taken with equality,

    g'(t) = -damping(t) * g(t) + gain(t, g(t)) + drive(t),   g(0) = initial,

is an ordinary differential equation whose solution dominates every
solution of the inequality (comparison principle: the right side is
non-decreasing in g).  Integrating it numerically gives the extremal
curve against which both solver trajectories and certified bounds are
tested.  Classical RK4 is used here; the order mismatch with the
trapezoidal integral-equation solver is irrelevant to the domination
property, which carries its own tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .certificate import InequalityData
from .expr import EvalDomainError, evaluate, separate, variables
from .ioutil import write_text_atomic
from .solver import BlowUp, Completed, Grid

__all__ = [
    "MajorantCurve",
    "NormDerivativeReport",
    "propagate_majorant",
    "norm_derivative_check",
    "write_majorant_csv",
]


@dataclass(frozen=True)
class MajorantCurve:
    grid: Grid
    values: np.ndarray
    status: Union[Completed, BlowUp]

    def times(self) -> np.ndarray:
        return self.grid.times()[: len(self.values)]


def propagate_majorant(
    data: InequalityData, grid: Grid, blowup_cap: float = 1e8
) -> MajorantCurve:
    """Integrate the equality version of the inequality with RK4.

    Reports blow-up (midpoint of the crossing step) once the curve
    leaves [-cap, cap] or the reals; domain errors from the expressions
    themselves propagate.

    When the gain separates as sum_k phi_k(t) * psi_k(g) and damping and
    drive depend on t alone, every function of t is evaluated once, as
    an array over the stage times of all steps, and each stage evaluates
    only the psi_k.  Otherwise, or if an array evaluation leaves its
    domain anywhere on the grid, each stage evaluates all three
    expressions at its own time, and errors surface at the step where
    they occur.
    """

    def rhs(t: float, g: float) -> float:
        damping = float(evaluate(data.damping, {"t": t}))
        gain = float(evaluate(data.gain, {"t": t, "u": g}))
        drive = float(evaluate(data.drive, {"t": t}))
        return -damping * g + gain + drive

    times = grid.times()
    h = grid.h
    tables, inner = _stage_tables(data, times[:-1], h)

    def tabulated(t: float, g: float, row: list) -> float:
        # row: damping, drive, then phi_k, all at t
        gain = row[2] * float(evaluate(inner[0], {"u": g}))
        for phi, psi in zip(row[3:], inner[1:]):
            gain += phi * float(evaluate(psi, {"u": g}))
        slope = -row[0] * g + gain + row[1]
        # A product may overflow where the tree would raise; let it decide.
        return slope if math.isfinite(slope) else rhs(t, g)

    values = [float(data.initial)]
    status: Union[Completed, BlowUp] = Completed()
    g = float(data.initial)
    for n in range(1, grid.n):
        t = float(times[n - 1])
        if tables is None:
            k1 = rhs(t, g)
            k2 = rhs(t + 0.5 * h, g + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, g + 0.5 * h * k2)
            k4 = rhs(t + h, g + h * k3)
        else:
            start, middle, end = tables[n - 1].tolist()
            k1 = tabulated(t, g, start)
            k2 = tabulated(t + 0.5 * h, g + 0.5 * h * k1, middle)
            k3 = tabulated(t + 0.5 * h, g + 0.5 * h * k2, middle)
            k4 = tabulated(t + h, g + h * k3, end)
        g_new = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(g_new) or abs(g_new) > blowup_cap:
            status = BlowUp(t_star=t + 0.5 * h)
            break
        g = g_new
        values.append(g)
    curve = np.array(values, dtype=float)
    curve.flags.writeable = False
    return MajorantCurve(grid=grid, values=curve, status=status)


def _stage_tables(
    data: InequalityData, starts: np.ndarray, h: float
) -> tuple[Optional[np.ndarray], list]:
    """Every function of t in the right side at the RK4 stage times of
    each step, as an array indexed [step, stage, column], and the gain's
    g-factors psi_k.  The stages are t, t + h/2 and t + h; the columns
    damping, drive and the gain's t-factors phi_k.  (None, []) when the
    right side does not separate that way or an evaluation leaves its
    domain."""
    terms = separate(data.gain, "t")
    if terms is None or not variables(data.damping) | variables(data.drive) <= {"t"}:
        return None, []
    columns = [data.damping, data.drive] + [phi for phi, _ in terms]
    tables = np.empty((len(starts), 3, len(columns)))
    try:
        for stage, times in enumerate((starts, starts + 0.5 * h, starts + h)):
            for column, e in enumerate(columns):
                tables[:, stage, column] = evaluate(e, {"t": times})
    except EvalDomainError:
        return None, []
    return tables, [psi for _, psi in terms]


@dataclass(frozen=True)
class NormDerivativeReport:
    max_violation: float
    worst_t: float


def norm_derivative_check(
    samples: Sequence[tuple[float, float, float]], h: float
) -> NormDerivativeReport:
    """Check that |u|' never exceeds |u'| along sampled data.

    ``samples`` lists (t, u(t), u'(t)) at consecutive points spaced h
    apart.  The one-sided quotient (|u(t+h)| - |u(t)|) / h is compared
    against |u'(t)|; for C1 data the excess stays O(h) above zero, also
    across corners of |u|.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    worst = (-np.inf, float(samples[0][0]))
    for (t0, u0, du0), (_, u1, _) in zip(samples[:-1], samples[1:]):
        quotient = (abs(u1) - abs(u0)) / h
        violation = quotient - abs(du0)
        if violation > worst[0]:
            worst = (violation, float(t0))
    return NormDerivativeReport(max_violation=float(worst[0]), worst_t=worst[1])


def write_majorant_csv(curve: MajorantCurve, path: Union[str, Path]) -> None:
    """Write ``t,g`` rows in the same numeric format as trajectories."""
    lines = ["t,g"]
    for tk, gk in zip(curve.times(), curve.values):
        lines.append(f"{tk:.17g},{gk:.17g}")
    if isinstance(curve.status, BlowUp):
        lines.append(f"# status=blowup t_star={curve.status.t_star:.17g}")
    else:
        lines.append("# status=completed")
    write_text_atomic(Path(path), "\n".join(lines) + "\n")

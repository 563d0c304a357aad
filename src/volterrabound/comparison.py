"""Majorant integration.

The growth inequality taken with equality,

    g'(t) = k(t) * g(t)**(2p) + drive(t),   g(0) = initial,

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
from typing import Union

import numpy as np

from .certificate import InequalityData
from .solver import BlowUp, Completed, Grid

__all__ = [
    "MajorantCurve",
    "propagate_majorant",
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

    drive(t) and k(t) are tabulated once per grid at the three stage
    times t, t + h/2 and t + h of every step; each stage then costs one
    power of the state.  Reports blow-up (midpoint of the crossing step)
    once the curve leaves [-cap, cap] or the reals, or a stage overflows.
    """
    starts = grid.times()[:-1]
    h = grid.h
    two_p = 2.0 * data.decay.p
    tables = [data.decay.tabulate(t) for t in (starts, starts + 0.5 * h, starts + h)]
    (drive0, k0), (drive1, k1), (drive2, k2) = ((d.tolist(), k.tolist()) for d, k in tables)

    values = [float(data.initial)]
    status: Union[Completed, BlowUp] = Completed()
    g = float(data.initial)
    for n in range(grid.n - 1):
        try:
            s1 = k0[n] * math.pow(g, two_p) + drive0[n]
            s2 = k1[n] * math.pow(g + 0.5 * h * s1, two_p) + drive1[n]
            s3 = k1[n] * math.pow(g + 0.5 * h * s2, two_p) + drive1[n]
            s4 = k2[n] * math.pow(g + h * s3, two_p) + drive2[n]
            g_new = g + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        except OverflowError:
            g_new = math.inf
        if not math.isfinite(g_new) or abs(g_new) > blowup_cap:
            status = BlowUp(t_star=float(starts[n]) + 0.5 * h)
            break
        g = g_new
        values.append(g)
    curve = np.array(values, dtype=float)
    curve.flags.writeable = False
    return MajorantCurve(grid=grid, values=curve, status=status)

"""Seeded inputs for the two workloads.

Every problem is a plain dict in the program's problem-file schema
(docs/problem-schema.md).  Blow-up problems also carry a name and,
under ``"check"``, the parameters the independent checks in
``checks.py`` need.  The same seed always gives the same problems.
"""

from __future__ import annotations

import math
import random

import numpy as np

HALF_PI = math.pi / 2.0

# verify-long: the README example, u = exp(-t) + int exp(-(t+s)) atan(u) ds.
README_ATAN = {
    "f": "exp(-t)",
    "a": "exp(-(t+s))*atan(u)",
    "c0": 2.0,
    "b0": 1.0,
    "c1": HALF_PI,
    "b1": 2.0,
    "c2": HALF_PI,
    "b": 1.0,
    "p": 0.5,
}
VERIFY_T_END = 12.0
VERIFY_STEP = 1e-3  # 12 001 nodes
VERIFY_RESIDUAL_NODES = 24


def readme_atan_f(t):
    return np.exp(-t)


def readme_atan_a(t, s, u):
    return np.exp(-(t + s)) * np.arctan(u)


def residual_nodes(seed, n_nodes):
    """Seeded sample of grid nodes for the trapezoid residual check; the
    last node, whose lag sum is longest, is always included."""
    rng = np.random.default_rng(seed)
    picked = rng.choice(np.arange(1, n_nodes - 1), size=VERIFY_RESIDUAL_NODES - 1, replace=False)
    return np.sort(np.append(picked, n_nodes - 1))


# blowup-batch: u = c + int_0^t u^k ds, blow-up at t* = c^(1-k)/(k-1).
BLOWUP_NODES = 1000  # grid nodes before t*
BLOWUP_POWERS = (2.0, 2.0, 2.0, 2.5, 2.5, 2.5, 4.0, 4.0, 4.0)
# u^3 with c = 1 (t* = 1/2): the solver reports "completed" instead of
# blow-up, because for an odd power the implicit step always has a real
# root and bisection lands on a spurious negative one.  Kept as a failed
# operation so that a fix shows in the failure count.
ODD_POWER = (1.0, 3.0)


def blowup_problem(name, c, k, known_fault=None):
    t_star = c ** (1.0 - k) / (k - 1.0)
    return {
        "f": repr(c),
        "a": f"u^{k!r}",
        "c0": c,
        "b0": 0.0,
        "c1": 1.0,
        "b1": 0.0,
        "c2": 0.0,
        "b": 0.0,
        "p": 0.5 * k,
        "name": name,
        "check": {
            "c": c,
            "k": k,
            "step": t_star / BLOWUP_NODES,
            "t_end": 2.0 * t_star,
            "known_fault": known_fault,
        },
    }


def blowup_batch(seed):
    rng = random.Random(seed)
    batch = [
        blowup_problem(f"k{k:g}-{i}", rng.uniform(0.8, 1.25), k) for i, k in enumerate(BLOWUP_POWERS)
    ]
    c, k = ODD_POWER
    batch.append(
        blowup_problem("k3-odd", c, k, known_fault="odd-power blow-up reported as completed")
    )
    return batch

import json
import math

import numpy as np
import pytest

from volterrabound import (
    ExponentialDecayData,
    ExponentialWeight,
    build_problem,
    problem_from_dict,
)
from volterrabound.expr import Expr

HALF_PI = math.pi / 2.0


def atan_family_problem(rng):
    """Random kernel C * exp(-(m1*t + m2*s)) * atan(u) with envelopes
    derived by hand: sup|atan| = pi/2 bounds the diagonal with
    c1 = C*pi/2, b1 = m1+m2; the t-derivative integrates to at most
    C*m1*(pi/2)*exp(-m1*t)/m2, giving c2 = C*m1*pi/(2*m2), b = m1; and
    a_u = C*exp(-(m1*t+m2*s))/(1+u^2) >= 0.  The forcing envelope is
    padded by a relative 1e-12 so float rounding of c0*exp(-b0*t)
    against |f| + |f'| cannot flip an exact-equality margin.
    """
    amp = rng.uniform(0.3, 1.2)
    m1 = rng.uniform(0.5, 2.0)
    m2 = rng.uniform(0.5, 2.0)
    f0 = rng.uniform(0.3, 1.5)
    d = rng.uniform(0.3, 1.5)
    f_text = f"{f0!r}*exp(-{d!r}*t)"
    a_text = f"{amp!r}*exp(-({m1!r}*t+{m2!r}*s))*atan(u)"
    return build_problem(
        f_text,
        a_text,
        ExponentialDecayData(
            c0=f0 * (1.0 + d) * (1.0 + 1e-12),
            b0=d,
            c1=amp * HALF_PI,
            b1=m1 + m2,
            c2=amp * m1 * math.pi / (2.0 * m2),
            b=m1,
            p=0.5,
        ),
    )

ATAN_PROBLEM = {
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

# u = 1 + integral of u^2; closed form 1/(1-t), blow-up at t = 1.
QUADRATIC_PROBLEM = {
    "f": "1",
    "a": "u^2",
    "c0": 1.0,
    "b0": 0.0,
    "c1": 1.0,
    "b1": 0.0,
    "c2": 0.0,
    "b": 0.0,
    "p": 1.0,
}


@pytest.fixture
def atan_spec():
    return problem_from_dict(ATAN_PROBLEM)


@pytest.fixture
def quadratic_spec():
    return problem_from_dict(QUADRATIC_PROBLEM)


def decay_terms(decay, t):
    """The three drive terms of a decay record at t, from its named
    constants; k(t) is the sum of the last two."""
    if isinstance(decay, ExponentialDecayData):
        pairs = ((decay.c0, decay.b0), (decay.c1, decay.b1), (decay.c2, decay.b))
        return [c * np.exp(-rate * t) for c, rate in pairs]
    pairs = ((decay.d0, decay.e0), (decay.d1, decay.e1), (decay.d2, decay.e2))
    return [c * (1.0 + t) ** -order for c, order in pairs]


def margin_direct(data, weight, t):
    """The margin -w'/w^2 - k(t) * (1/w)^(2p) - drive(t) by direct
    substitution: 1/w and -w'/w^2 from the weight's two constants, k and
    drive summed from the decay record's constants.  1/w overflows to
    inf for large rate * t."""
    t = np.asarray(t, dtype=float)
    q, c = weight.rate, weight.coefficient
    with np.errstate(over="ignore"):
        if isinstance(weight, ExponentialWeight):
            inv = np.exp(q * t) / c  # -w'/w^2 = q * w / w^2
            growth = q * inv
        else:
            inv = (1.0 + t) ** q / c  # -w'/w^2 = q * (1+t)^(q-1) / c
            growth = q * inv / (1.0 + t)
        drive_0, drive_1, drive_2 = decay_terms(data.decay, t)
        gain = (drive_1 + drive_2) * inv ** (2.0 * data.decay.p)
    return growth - gain - (drive_0 + drive_1 + drive_2)


def write_problem(path, problem: dict) -> str:
    path.write_text(json.dumps(problem))
    return str(path)


def count_evaluations(monkeypatch):
    """Count calls of every tree's generated evaluators, by kind, from
    here to the end of the test: ``Expr.scalar`` and ``Expr.array`` hand
    out counting wrappers of the cached functions.  In the solver each
    array call is a sum over the whole history; its scalar evaluations
    are written inline and call nothing, so :func:`tally` counts them."""
    calls = {"array": 0, "scalar": 0}
    for kind in calls:
        cached = getattr(Expr, kind)

        def counted(e, kind=kind, cached=cached):
            fn = cached.__get__(e, type(e))

            def call(*args):
                calls[kind] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(Expr, kind, property(counted))
    return calls


def tally(spec):
    """A function that returns how many evaluations of f, phi_k, psi_k, a
    and a_u the solver's generated step functions for ``spec`` have made
    since this call.  Equal problems share one spec, so only the
    difference says what a test did."""
    start = spec._stepper.evaluations
    return lambda: spec._stepper.evaluations - start

import json
import math

import numpy as np
import pytest

from volterrabound import ExponentialDecayData, ForcingEnvelope, KernelEnvelope, build_problem

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
        ForcingEnvelope(c0=f0 * (1.0 + d) * (1.0 + 1e-12), b0=d),
        KernelEnvelope(
            c1=amp * HALF_PI, b1=m1 + m2, c2=amp * m1 * math.pi / (2.0 * m2), b=m1, p=0.5
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


def spec_from(problem: dict):
    return build_problem(
        problem["f"],
        problem["a"],
        ForcingEnvelope(c0=problem["c0"], b0=problem["b0"]),
        KernelEnvelope(
            c1=problem["c1"],
            b1=problem["b1"],
            c2=problem["c2"],
            b=problem["b"],
            p=problem["p"],
        ),
    )


@pytest.fixture
def atan_spec():
    return spec_from(ATAN_PROBLEM)


@pytest.fixture
def quadratic_spec():
    return spec_from(QUADRATIC_PROBLEM)


def decay_terms(decay, t):
    """The three drive terms of a decay record at t, from its named
    constants; k(t) is the sum of the last two."""
    if isinstance(decay, ExponentialDecayData):
        pairs = ((decay.c0, decay.b0), (decay.c1, decay.b1), (decay.c2, decay.b))
        return [c * np.exp(-rate * t) for c, rate in pairs]
    pairs = ((decay.d0, decay.e0), (decay.d1, decay.e1), (decay.d2, decay.e2))
    return [c * (1.0 + t) ** -order for c, order in pairs]


def write_problem(path, problem: dict) -> str:
    path.write_text(json.dumps(problem))
    return str(path)

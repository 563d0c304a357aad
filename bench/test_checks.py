"""Tests of the benchmark's independent checks and input generator.

    python3 -m pytest bench

Each checker must accept a correct output built here without the
program, and reject the same output perturbed.
"""

import math

import numpy as np
import pytest

import checks
import problems


def trapezoid_trajectory(f, a, h, n):
    """Product-trapezoidal solution by fixed-point iteration at each node;
    the test's own solver, sharing no code with the program."""
    t = h * np.arange(n)
    u = np.empty(n)
    u[0] = f(t[0])
    for m in range(1, n):
        lag = a(t[m], t[:m], u[:m])
        lag[0] *= 0.5
        rhs = f(t[m]) + h * math.fsum(lag)
        x = u[m - 1]
        for _ in range(100):
            x = rhs + 0.5 * h * float(a(t[m], np.array([t[m]]), np.array([x]))[0])
        u[m] = x
    return t, u


@pytest.fixture(scope="module")
def atan_trajectory():
    return trapezoid_trajectory(problems.readme_atan_f, problems.readme_atan_a, 0.01, 301)


def test_trapezoid_accepts_a_solution(atan_trajectory):
    t, u = atan_trajectory
    nodes = np.arange(1, len(t))
    assert checks.check_trapezoid(t, u, problems.readme_atan_f, problems.readme_atan_a, nodes) == []


@pytest.mark.parametrize("node", [5, 150, 300])
def test_trapezoid_rejects_a_perturbed_trajectory(atan_trajectory, node):
    t, u = atan_trajectory
    u = u.copy()
    u[node] *= 1.0 + 1e-9
    nodes = np.arange(1, len(t))
    found = checks.check_trapezoid(t, u, problems.readme_atan_f, problems.readme_atan_a, nodes)
    assert found and "trapezoid residual" in found[0]


def test_residual_sample_is_seeded():
    a = problems.residual_nodes(7, 12001)
    assert np.array_equal(a, problems.residual_nodes(7, 12001))
    assert not np.array_equal(a, problems.residual_nodes(8, 12001))
    assert a[-1] == 12000 and len(set(a)) == problems.VERIFY_RESIDUAL_NODES


def test_bound_rows():
    rows = np.array([[0.0, -1.0, 2.0, 3.0], [1.0, 1.5, 1.5, 4.0], [2.0, 0.5, 2.5, 2.5]])
    assert checks.check_bound_rows(rows) == []
    crossing = rows.copy()
    crossing[1, 2] = 4.5  # majorant above the certified bound
    assert checks.check_bound_rows(crossing)
    above = rows.copy()
    above[0, 1] = -2.5  # |u| above the majorant
    assert checks.check_bound_rows(above)


def test_envelope_rk4_matches_closed_form():
    # Without gain, g' = c0 exp(-b0 t) integrates to g0 + c0 (1 - exp(-b0 t)) / b0.
    consts = {"c0": 1.3, "b0": 0.7, "c1": 0.0, "b1": 1.0, "c2": 0.0, "b": 1.0, "p": 0.5}
    g = checks.envelope_rk4(consts, 0.4, t_end=5.0, h=1e-2)
    t = 1e-2 * np.arange(len(g))
    np.testing.assert_allclose(g, 0.4 + 1.3 * (1.0 - np.exp(-0.7 * t)) / 0.7, rtol=1e-10)


def test_majorant_checks():
    consts = dict(problems.README_ATAN)
    ref = checks.envelope_rk4(consts, 1.0, t_end=2.0, h=1e-2)
    t = 1e-2 * np.arange(len(ref))
    assert checks.check_majorant(ref.copy(), ref) == []
    perturbed = ref.copy()
    perturbed[100] *= 1.0 + 1e-6
    assert checks.check_majorant(perturbed, ref)
    assert checks.check_majorant(ref[:-1], ref)
    # The README certificate: coefficient ~1e-8, rate sqrt(10).
    assert checks.check_below_bound(t, ref, 1e-8, math.sqrt(10.0)) == []
    assert checks.check_below_bound(t, ref, 1.0, 0.1)  # majorant crosses the bound


def test_exponential_conditions():
    atan = dict(problems.README_ATAN)
    assert checks.check_exponential_conditions(atan, 1e-8, math.sqrt(10.0), 1.0, True) == []
    assert any("level" in x for x in checks.check_exponential_conditions(atan, 1e-8, 3.0, 1.0, True))
    assert any("start" in x for x in checks.check_exponential_conditions(atan, 2.0, 20.0, 1.0, True))
    assert checks.check_exponential_conditions(atan, 1.0, 20.0, 1.0, False) == []
    cubic = {"c0": 0.1, "b0": 1.0, "c1": 0.01, "b1": 2.0, "c2": 0.01, "b": 1.0, "p": 1.5}
    assert checks.check_exponential_conditions(cubic, 0.7, 0.5, 0.05, True) == []
    tail = checks.check_exponential_conditions(cubic, 0.7, 1.2, 0.05, True)
    assert any("tail" in x for x in tail)  # (2p-1)*rate exceeds b


@pytest.mark.parametrize("c,k", [(1.0, 2.0), (0.9, 2.5), (1.2, 4.0)])
def test_blowup_checks(c, k):
    t_star = checks.blowup_time(c, k)
    h = t_star / problems.BLOWUP_NODES
    assert checks.check_blowup(t_star - 0.5 * h, c, k, h) == []
    assert checks.check_blowup(t_star - 10.0 * h, c, k, h)  # misplaced t_star
    assert checks.check_blowup(2.0 * t_star, c, k, h)
    t = h * np.arange(problems.BLOWUP_NODES)
    u = checks.blowup_solution(c, k, t) * (1.0 + (h / t_star) ** 2)
    assert checks.check_midpoint(t, u, c, k, h) == []
    assert checks.check_midpoint(t, u * (1.0 + 1e-3), c, k, h)
    assert checks.check_midpoint(t[:400], u[:400], c, k, h)


def test_generators_are_seeded():
    a, b = problems.blowup_batch(5), problems.blowup_batch(6)
    assert a == problems.blowup_batch(5) and a != b
    # The odd-power problem is the same whatever the seed.
    assert a[-1] == b[-1] and a[-1]["check"]["known_fault"]
    assert sum(1 for p in a if p["check"]["known_fault"]) == 1

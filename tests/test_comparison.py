import math

import numpy as np
import pytest

from volterrabound import (
    BlowUp,
    Completed,
    ExponentialDecayData,
    ExponentialWeight,
    Grid,
    InequalityData,
    PowerDecayData,
    Trajectory,
    check_weight,
    derive_inequality,
    propagate_majorant,
    search_exponential,
    solve,
    validate_decay,
)

from conftest import decay_terms
from test_acceptance import norm_derivative_check

# g' = 1 + g^2, g(0) = 1: drive = 1 and k = 1, with closed form
# tan(t + pi/4), which leaves the reals at t = pi/4.
TANGENT = InequalityData(1.0, ExponentialDecayData(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))


def test_zero_right_side_constant_curve():
    data = InequalityData(3.0, ExponentialDecayData(0, 0, 0, 0, 0, 0, 1.0))
    curve = propagate_majorant(data, Grid(t_end=2.0, h=0.1))
    assert isinstance(curve, Trajectory)
    assert isinstance(curve.status, Completed)
    assert np.all(curve.values == 3.0)


def test_quadratic_majorant_matches_closed_form():
    curve = propagate_majorant(TANGENT, Grid(t_end=0.5, h=1e-3))
    assert abs(curve.values[-1] - math.tan(0.5 + math.pi / 4.0)) < 1e-6


def test_quadratic_majorant_blow_up():
    curve = propagate_majorant(TANGENT, Grid(t_end=2.0, h=1e-3))
    assert isinstance(curve.status, BlowUp)
    assert abs(curve.status.t_star - math.pi / 4.0) < 2e-3
    assert len(curve.values) < Grid(t_end=2.0, h=1e-3).n


def test_overflowing_stage_is_blow_up():
    # g' = g^100 + 1 from g(0) = 1: in the second step, the power of a
    # stage's state overflows before any value crosses the cap.
    data = InequalityData(1.0, ExponentialDecayData(0, 0, 1, 0, 0, 0, 50.0))
    curve = propagate_majorant(data, Grid(t_end=1.0, h=0.01))
    assert curve.status == BlowUp(t_star=0.015)


def test_rk4_convergence_order():
    errors = []
    for h in (0.02, 0.01, 0.005):
        curve = propagate_majorant(TANGENT, Grid(t_end=0.5, h=h))
        errors.append(abs(curve.values[-1] - math.tan(0.5 + math.pi / 4.0)))
    for e0, e1 in zip(errors, errors[1:]):
        order = math.log2(e0 / e1)
        assert 3.6 <= order <= 4.4


def test_majorant_dominates_solver_trajectory(atan_spec):
    assert validate_decay(atan_spec, t_max=10.0, u_max=5.0).passed
    grid = Grid(t_end=10.0, h=0.01)
    traj = solve(atan_spec, grid)
    data = derive_inequality(atan_spec)
    curve = propagate_majorant(data, grid)
    assert isinstance(curve.status, Completed)
    assert np.all(curve.values + 1e-9 >= np.abs(traj.values))


def test_majorant_dominates_randomized_suite():
    # Discrete comparison principle over the randomized kernel family:
    # any problem passing validation has its trajectory dominated by the
    # majorant of the derived inequality.
    from conftest import atan_family_problem

    rng = np.random.default_rng(31415)
    grid = Grid(t_end=8.0, h=0.01)
    for _ in range(8):
        spec = atan_family_problem(rng)
        assert validate_decay(spec, t_max=8.0, u_max=5.0).passed
        traj = solve(spec, grid)
        assert isinstance(traj.status, Completed)
        curve = propagate_majorant(derive_inequality(spec), grid)
        assert isinstance(curve.status, Completed)
        assert np.all(curve.values + 1e-9 >= np.abs(traj.values))


def test_majorant_stays_below_certified_bound():
    data = InequalityData(0.1, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    cert = search_exponential(data)
    assert cert.certified
    grid = Grid(t_end=20.0, h=0.01)
    curve = propagate_majorant(data, grid)
    bound = cert.bound_values(curve.times())
    assert np.all(curve.values < bound)


def test_majorant_nonstrict_equality_at_start():
    # w(0) * g(0) = 1: the bound is attained at t = 0 and strict afterwards.
    data = InequalityData(2.0, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    cert = check_weight(data, ExponentialWeight(coefficient=0.5, rate=2.0))
    assert cert.certified and not cert.verdict.strict
    grid = Grid(t_end=10.0, h=0.01)
    curve = propagate_majorant(data, grid)
    bound = cert.bound_values(curve.times())
    assert curve.values[0] == bound[0]
    assert np.all(curve.values <= bound)
    assert np.all(curve.values[1:] < bound[1:])


def _scalar_rk4(data, grid):
    """RK4 on the equality, drive and k summed from the record's
    constants at every stage.  The terms go through numpy's exp and power
    on one-element arrays, as the tabulation does on the whole grid."""
    two_p = 2.0 * data.decay.p

    def rhs(t, g):
        terms = [float(x[0]) for x in decay_terms(data.decay, np.array([t]))]
        return (terms[1] + terms[2]) * g**two_p + ((terms[0] + terms[1]) + terms[2])

    times, h, g = grid.times(), grid.h, data.initial
    values = [g]
    for n in range(1, grid.n):
        t = float(times[n - 1])
        k1 = rhs(t, g)
        k2 = rhs(t + 0.5 * h, g + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, g + 0.5 * h * k2)
        k4 = rhs(t + h, g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values.append(g)
    return np.array(values)


@pytest.mark.parametrize(
    "data",
    [
        InequalityData(0.5, ExponentialDecayData(0.5, 1.0, 0.3, 2.0, 0.2, 0.5, 0.75)),
        InequalityData(0.5, PowerDecayData(0.5, 2.0, 0.3, 1.5, 0.2, 3.0, 0.75)),
    ],
    ids=["exponential", "power"],
)
def test_majorant_matches_stage_by_stage_rk4(data):
    grid = Grid(t_end=5.0, h=0.01)
    curve = propagate_majorant(data, grid)
    assert isinstance(curve.status, Completed)
    assert np.array_equal(curve.values, _scalar_rk4(data, grid))


# ---------------------------------------------------------------------------
# norm derivative check
# ---------------------------------------------------------------------------


def _samples(fn, dfn, t0, t1, h):
    ts = np.arange(t0, t1, h)
    return [(float(t), fn(float(t)), dfn(float(t))) for t in ts]


def test_norm_derivative_positive_region():
    h = 1e-5
    report = norm_derivative_check(_samples(math.sin, math.cos, 0.1, 1.0, h), h)
    assert report.max_violation <= 2.0 * h


def test_norm_derivative_across_corner():
    # |t^2 - 1| has a corner at t = 1; one-sided quotients stay within
    # O(h) of |u'|.
    h = 1e-5
    samples = _samples(lambda t: t * t - 1.0, lambda t: 2.0 * t, 0.9, 1.1, h)
    report = norm_derivative_check(samples, h)
    assert report.max_violation <= 2.0 * h


def test_norm_derivative_zero_function():
    h = 1e-4
    report = norm_derivative_check(_samples(lambda t: 0.0, lambda t: 0.0, 0.0, 1.0, h), h)
    assert report.max_violation <= 0.0


def test_norm_derivative_argument_checks():
    with pytest.raises(ValueError):
        norm_derivative_check([(0.0, 0.0, 0.0)], 1e-5)
    with pytest.raises(ValueError):
        norm_derivative_check([(0.0, 0.0, 0.0), (1e-5, 0.0, 0.0)], 0.0)

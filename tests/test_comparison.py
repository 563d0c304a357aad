import math

import numpy as np
import pytest

from volterrabound import (
    BlowUp,
    Completed,
    ExponentialWeight,
    Grid,
    InequalityData,
    check_weight,
    derive_inequality,
    evaluate,
    make_exponential_data,
    norm_derivative_check,
    parse,
    propagate_majorant,
    search_exponential,
    solve,
    validate_decay,
    write_majorant_csv,
)
from volterrabound.expr import Constant



ZERO = Constant(0.0)


def test_zero_right_side_constant_curve():
    data = InequalityData(damping=ZERO, gain=ZERO, drive=ZERO, initial=3.0)
    curve = propagate_majorant(data, Grid(t_end=2.0, h=0.1))
    assert isinstance(curve.status, Completed)
    assert np.all(curve.values == 3.0)


def test_quadratic_majorant_matches_closed_form():
    # g' = g^2, g(0) = 1 has closed form 1/(1-t).
    data = InequalityData(damping=ZERO, gain=parse("u^2"), drive=ZERO, initial=1.0)
    curve = propagate_majorant(data, Grid(t_end=0.5, h=1e-3))
    assert abs(curve.values[-1] - 2.0) < 1e-6


def test_quadratic_majorant_blow_up():
    data = InequalityData(damping=ZERO, gain=parse("u^2"), drive=ZERO, initial=1.0)
    curve = propagate_majorant(data, Grid(t_end=2.0, h=1e-3))
    assert isinstance(curve.status, BlowUp)
    assert 0.9 < curve.status.t_star < 1.1
    assert len(curve.values) < Grid(t_end=2.0, h=1e-3).n


def test_rk4_convergence_order():
    data = InequalityData(damping=ZERO, gain=parse("u^2"), drive=ZERO, initial=1.0)
    errors = []
    for h in (0.02, 0.01, 0.005):
        curve = propagate_majorant(data, Grid(t_end=0.5, h=h))
        errors.append(abs(curve.values[-1] - 2.0))
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
    data = make_exponential_data(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0, initial=0.1)
    cert = search_exponential(data)
    assert cert.certified
    grid = Grid(t_end=20.0, h=0.01)
    curve = propagate_majorant(data, grid)
    bound = cert.bound_values(curve.times())
    assert np.all(curve.values < bound)


def test_majorant_nonstrict_equality_at_start():
    # w(0) * g(0) = 1: the bound is attained at t = 0 and strict afterwards.
    data = make_exponential_data(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0, initial=2.0)
    cert = check_weight(data, ExponentialWeight(coefficient=0.5, rate=2.0))
    assert cert.certified and not cert.verdict.strict
    grid = Grid(t_end=10.0, h=0.01)
    curve = propagate_majorant(data, grid)
    bound = cert.bound_values(curve.times())
    assert curve.values[0] == bound[0]
    assert np.all(curve.values <= bound)
    assert np.all(curve.values[1:] < bound[1:])


def _scalar_rk4(data, grid):
    """RK4 on the equality, every expression evaluated at every stage."""

    def rhs(t, g):
        damping = evaluate(data.damping, {"t": t})
        return -damping * g + evaluate(data.gain, {"t": t, "u": g}) + evaluate(data.drive, {"t": t})

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
    "gain, exact",
    [
        ("atan(t*u)/(1 + t^2)", True),  # does not separate: the stage-by-stage loop
        ("exp(-t)*u^2 + 0.5*exp(-2*t)*atan(u)", False),  # tabulated in t
    ],
)
def test_majorant_matches_stage_by_stage_rk4(gain, exact):
    data = InequalityData(
        damping=parse("0.1"), gain=parse(gain), drive=parse("exp(-t)"), initial=0.5
    )
    grid = Grid(t_end=5.0, h=0.01)
    curve = propagate_majorant(data, grid)
    assert isinstance(curve.status, Completed)
    reference = _scalar_rk4(data, grid)
    if exact:
        assert np.array_equal(curve.values, reference)
    else:
        assert np.allclose(curve.values, reference, rtol=1e-14, atol=0.0)


def test_majorant_domain_error_propagates():
    from volterrabound import EvalDomainError

    data = InequalityData(damping=ZERO, gain=ZERO, drive=parse("1/(1-t)"), initial=0.0)
    with pytest.raises(EvalDomainError):
        propagate_majorant(data, Grid(t_end=2.0, h=0.5))


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


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_majorant_csv(tmp_path):
    data = InequalityData(damping=ZERO, gain=ZERO, drive=ZERO, initial=2.0)
    curve = propagate_majorant(data, Grid(t_end=1.0, h=0.5))
    path = tmp_path / "majorant.csv"
    write_majorant_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,g"
    assert lines[-1] == "# status=completed"
    assert [float(line.split(",")[1]) for line in lines[1:-1]] == [2.0, 2.0, 2.0]

import math

import numpy as np
import pytest

from volterrabound import (
    BlowUp,
    Completed,
    EvalDomainError,
    ExponentialDecayData,
    Grid,
    NonConvergenceError,
    StepFailure,
    build_problem,
    picard_reference,
    solve,
    write_trajectory_csv,
)
from volterrabound import solver

from conftest import count_evaluations


def zero_kernel_spec(f_text: str):
    return build_problem(f_text, "0", ExponentialDecayData(2, 0, 0, 0, 0, 0, 1))


def linear_spec():
    # u = 1 + int 2u  <=>  u' = 2u, u(0) = 1, so u(t) = exp(2t).
    return build_problem("1", "2*u", ExponentialDecayData(1, 0, 2, 0, 0, 0, 0.5))


def test_grid_nodes():
    g = Grid(t_end=1.0, h=0.25)
    assert g.n == 5
    assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        Grid(t_end=1.0, h=0.0)
    with pytest.raises(ValueError):
        Grid(t_end=0.0, h=0.1)


def test_grid_step_must_divide_horizon():
    # round(1/0.6) + 1 = 3 nodes would end at t = 1.2, and 0.4 at t = 0.8.
    for t_end, h in ((1.0, 0.6), (1.0, 0.4), (1.0, 3.0), (1.0, math.inf), (math.inf, 0.1)):
        with pytest.raises(ValueError, match="does not divide t_end"):
            Grid(t_end=t_end, h=h)
    assert Grid(t_end=12.0, h=1e-3).n == 12001
    assert Grid(t_end=1.0, h=0.1).times()[-1] == pytest.approx(1.0, rel=1e-15)


def test_grid_always_starts_at_zero():
    # The equation is posed from t = 0; a grid starting elsewhere would
    # silently solve a different problem.
    with pytest.raises(TypeError):
        Grid(2.0, 0.01, 1.0)


@pytest.mark.parametrize("f_text, fn", [("cos(t)", np.cos), ("exp(-t)", lambda t: np.exp(-t))])
def test_zero_kernel_reproduces_forcing_exactly(f_text, fn):
    spec = zero_kernel_spec(f_text)
    traj = solve(spec, Grid(t_end=2.0, h=0.05))
    assert isinstance(traj.status, Completed)
    # within 1 ulp of f at every node (the implicit solve may round the
    # last bit, and numpy/libm transcendentals can differ in the last bit)
    reference = fn(traj.times())
    assert np.all(np.abs(traj.values - reference) <= np.spacing(np.abs(reference)))


def test_initial_value_is_exact_forcing(quadratic_spec):
    traj = solve(quadratic_spec, Grid(t_end=0.1, h=0.01))
    assert traj.values[0] == 1.0


def test_linear_kernel_against_closed_form():
    traj = solve(linear_spec(), Grid(t_end=1.0, h=1e-3))
    exact = math.exp(2.0)
    assert abs(traj.values[-1] - exact) / exact < 1e-4


def test_trapezoid_convergence_order():
    exact = math.exp(2.0)
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = solve(linear_spec(), Grid(t_end=1.0, h=h))
        errors.append(abs(traj.values[-1] - exact))
    for e0, e1 in zip(errors, errors[1:]):
        order = math.log2(e0 / e1)
        assert 1.8 <= order <= 2.2


def test_quadratic_kernel_short_horizon(quadratic_spec):
    # closed form u = 1/(1-t)
    traj = solve(quadratic_spec, Grid(t_end=0.5, h=1e-3))
    assert isinstance(traj.status, Completed)
    assert abs(traj.values[-1] - 2.0) / 2.0 < 1e-4


def test_quadratic_kernel_blow_up(quadratic_spec):
    traj = solve(quadratic_spec, Grid(t_end=2.0, h=1e-3))
    assert isinstance(traj.status, BlowUp)
    assert 0.95 < traj.status.t_star < 1.05
    # values stop at the last accepted grid node before t_star
    assert len(traj.values) < Grid(t_end=2.0, h=1e-3).n
    assert traj.times()[-1] < traj.status.t_star
    assert np.all(np.abs(traj.values) <= 1e8)


def test_determinism(quadratic_spec):
    g = Grid(t_end=0.8, h=1e-3)
    t1 = solve(quadratic_spec, g)
    t2 = solve(quadratic_spec, g)
    assert np.array_equal(t1.values, t2.values)
    assert t1.status == t2.status


def test_golden_values_pin_every_operation(atan_spec):
    # Exact values, so that reordering one floating-point operation in
    # the evaluators or the stepping cannot pass unseen.
    traj = solve(atan_spec, Grid(t_end=12.0, h=1e-3))
    assert [float(traj.values[n]) for n in (1000, 6000, 12000)] == [
        0.5260490368466382,
        0.003781508520807322,
        9.37345127299089e-06,
    ]
    # u = 1 + int u^2.5 blows up at t* = 2/3; steps of t*/1000.
    t_star = 1.0 / 1.5
    spec = build_problem("1.0", "u^2.5", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1.25))
    traj = solve(spec, Grid(t_end=2.0 * t_star, h=t_star / 1000))
    assert traj.status == BlowUp(t_star=0.6663980366771215)
    # Near t* the solve accepts 48 refinement subnodes, each reached by
    # halving the step.
    assert (len(traj.values), float(traj.values[-1])) == (1000, 127.59728674442196)
    # atan(t*s*u) does not separate: the direct quadrature at every step.
    spec = build_problem("exp(-t)", "atan(t*s*u)", ExponentialDecayData(2, 1, 2, 0, 2, 0, 0.5))
    traj = solve(spec, Grid(t_end=1.0, h=2e-3))
    assert traj.status == Completed() and len(traj.values) == 501
    assert [float(traj.values[n]) for n in (100, 300, 500)] == [
        0.8222404202385973,
        0.6247150336793296,
        0.6782598283527898,
    ]
    # exp(s) overflows past s ~ 709.8: the running sums serve the nodes
    # before it, the direct quadrature the nodes after.
    env = ExponentialDecayData(10, 0, 10, 0, 0, 0, 1)
    spec = build_problem("1 + 0.5*cos(t)", "exp(s-t)*atan(u)", env)
    traj = solve(spec, Grid(t_end=800.0, h=1.0))
    assert traj.status == Completed() and len(traj.values) == 801
    assert [float(traj.values[n]) for n in (709, 711, 800)] == [
        2.4981596731279683,
        2.567523965819635,
        2.029787499061464,
    ]
    # sqrt(u) with u dragged below 0: halving ends without growth.
    spec = build_problem("0.1 - t", "sqrt(u)", ExponentialDecayData(2, 0, 1, 0, 0, 0, 0.5))
    traj = solve(spec, Grid(t_end=1.0, h=0.01))
    assert traj.status == StepFailure(
        t=0.12774711292955662, reason="step solve failed without |u| growth after local halving"
    )
    assert len(traj.values) == 13


def test_failed_trials_raise_no_domain_error(monkeypatch):
    # Past the fold of u = 1 + int u^2.5 Newton's trials reach u < 0,
    # where u^2.5 has no real value.  The stepping reads that as NaN
    # from the quiet evaluator, so not one EvalDomainError is built.
    built = []
    init = EvalDomainError.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(EvalDomainError, "__init__", counting_init)
    t_star = 1.0 / 1.5
    spec = build_problem("1.0", "u^2.5", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1.25))
    traj = solve(spec, Grid(t_end=2.0 * t_star, h=t_star / 1000))
    assert isinstance(traj.status, BlowUp)
    assert built == []


def test_monotone_comparison_in_forcing():
    # a_u >= 0 makes the scheme monotone in the forcing.
    kernel = (math.pi / 2, 2.0, math.pi / 2, 1.0, 0.5)
    low = build_problem("0.5*exp(-t)", "exp(-(t+s))*atan(u)", ExponentialDecayData(1.0, 1.0, *kernel))
    high = build_problem("exp(-t)", "exp(-(t+s))*atan(u)", ExponentialDecayData(2.0, 1.0, *kernel))
    grid = Grid(t_end=5.0, h=0.01)
    u_low = solve(low, grid)
    u_high = solve(high, grid)
    assert np.all(u_low.values <= u_high.values + 1e-9)


def test_step_failure_when_kernel_leaves_domain():
    # sqrt(u) with a forcing that drags u negative: the implicit root
    # disappears without any growth, which is a step failure, not blow-up.
    spec = build_problem(
        "0.1 - t", "sqrt(u)", ExponentialDecayData(2, 0, 1, 0, 0, 0, 0.5)
    )
    traj = solve(spec, Grid(t_end=1.0, h=0.01))
    assert isinstance(traj.status, StepFailure)
    assert 0.0 < traj.status.t < 1.0


def test_forcing_domain_error_at_start_propagates():
    spec = build_problem(
        "log(t)", "0", ExponentialDecayData(1, 0, 0, 0, 0, 0, 1)
    )
    with pytest.raises(EvalDomainError):
        solve(spec, Grid(t_end=1.0, h=0.5))


def test_forcing_pole_detected_as_blow_up():
    # A pole in f alone drives |u| past the cap; the halving machinery
    # localizes it like a kernel-driven blow-up.
    spec = build_problem(
        "1/(1-t)", "0", ExponentialDecayData(1, 0, 0, 0, 0, 0, 1)
    )
    traj = solve(spec, Grid(t_end=2.0, h=0.125))
    assert isinstance(traj.status, BlowUp)
    assert 0.95 < traj.status.t_star < 1.05


def test_odd_power_blow_up_not_continued_on_a_spurious_root():
    # u = 1 + int u^3 blows up at t* = 1/2.  The implicit step of an odd
    # power always has a real root; past the fold only a far negative one
    # with slope 1 - w*a_u < 0 is left, and it must not be accepted.
    spec = build_problem("1", "u^3", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1.5))
    h = 5e-4
    traj = solve(spec, Grid(t_end=1.0, h=h))
    assert isinstance(traj.status, BlowUp)
    assert abs(traj.status.t_star - 0.5) <= 3 * h
    assert np.all(traj.values > 0.0)


def test_flat_step_without_root_fails_at_once(quadratic_spec, monkeypatch):
    # u = 1 + 0.5*u^2 has no real root, and at u = 1 its slope 1 - u is
    # zero: the attempt fails after one residual and one slope, leaving
    # the step to the caller's halving, with no |u| growth reported.
    calls = count_evaluations(monkeypatch)
    converged, _, max_abs = solver._implicit_scalar(quadratic_spec, 0.5, 1.0, 0.5, 1.0, False)
    assert not converged
    assert calls["scalar"] <= 2 and calls["array"] == 0
    assert max_abs == 1.0


def test_start_past_the_fold_fails_at_once_with_blow_up_evidence(quadratic_spec, monkeypatch):
    # u = 1 + 0.5*u^2 from u = 2, where the slope 1 - 0.5*2u is -1: with
    # blow-up evidence at the node the attempt ends after one residual
    # and one slope; without it Newton runs as before (values captured
    # from the solver before the fold stop existed).
    calls = count_evaluations(monkeypatch)
    res = solver._implicit_scalar(quadratic_spec, 0.5, 1.0, 0.5, 2.0, True)
    assert calls == {"array": 0, "scalar": 2}
    assert res == (False, 2.0, 2.0)
    calls["scalar"] = 0
    res = solver._implicit_scalar(quadratic_spec, 0.5, 1.0, 0.5, 2.0, False)
    assert calls == {"array": 0, "scalar": 4}
    assert res == (False, 1.0, 2.0)


def _fold_stop_problems():
    """The blow-up powers of the benchmark's batch, and seeded kernels
    with several real roots per step, c up to 30."""
    rng = np.random.default_rng(13)
    for k in (2.0, 2.5, 3.0, 4.0):
        c = rng.uniform(0.8, 1.25)
        t_star = c ** (1.0 - k) / (k - 1.0)
        yield f"{c!r}", f"u^{k!r}", Grid(t_end=2.0 * t_star, h=t_star / 200)
    for family in ("{c}*cos(u)^2*u", "{c}*sin(u)*u^2", "{c}*exp(u)", "-{c}*u^3"):
        for _ in range(3):
            c, f = rng.uniform(0.5, 30.0), rng.uniform(0.2, 3.0)
            forcing = str(rng.choice(["{f}", "{f}*cos(t)", "{f} - t", "-{f}"]))
            yield forcing.format(f=repr(f)), family.format(c=repr(c)), Grid(t_end=1.0, h=1.0 / 100)


def test_fold_stop_ends_only_attempts_that_fail_without_it(monkeypatch):
    # Every attempt made with blow-up evidence is re-run without it.
    # Where the stop changed the result, the attempt ended at its start
    # and the full Newton solve fails too, so halving, BlowUp or
    # StepFailure and t_star come out as without the stop.
    implicit = solver._implicit_scalar
    stopped = []

    def compared(spec, t, rhs, weight, u_start, blowup_evidence):
        res = implicit(spec, t, rhs, weight, u_start, blowup_evidence)
        if blowup_evidence:
            full = implicit(spec, t, rhs, weight, u_start, False)
            if res != full:
                stopped.append(t)
                assert res == (False, u_start, abs(u_start))
                converged, value, _ = full
                assert not (converged and abs(value) <= solver._BLOWUP_CAP)
        return res

    monkeypatch.setattr(solver, "_implicit_scalar", compared)
    env = ExponentialDecayData(1, 0, 1, 0, 0, 0, 1)
    statuses = set()
    for f_text, a_text, grid in _fold_stop_problems():
        spec = build_problem(f_text, a_text, env)
        before = len(stopped)
        statuses.add(type(solve(spec, grid).status))
        if a_text.startswith("u^"):
            assert len(stopped) > before, a_text
    assert statuses == {BlowUp, Completed}
    assert len(stopped) > 100


def test_fold_stop_is_not_a_proof():
    # u = 2.72*cos(t) + int 58.5*cos(u)^2*u on steps of 0.04 climbs to
    # u = 2.7e6, where the slope of the kernel swings through zero every
    # unit of u and Newton overshoots past the blow-up cap without a
    # blow-up.  At t = 3.92499 an attempt starts on a falling slope, so
    # the stop ends it, yet Newton would have found a root on a rising
    # slope 27 units away.  The refinement then takes other subnodes:
    # the solve still ends in the same step failure with the same 99
    # grid values, reported at t = 3.94083 instead of 3.94446.
    spec = build_problem("2.7224606461719154*cos(t)", "58.543202818164076*cos(u)^2*u",
                         ExponentialDecayData(1, 0, 1, 0, 0, 0, 1))
    attempt = (spec, 3.924994384996661, 2682057.8782359874, 2.6707572287065773e-07, 2682057.8017126475)
    assert solver._implicit_scalar(*attempt, True) == (
        False, 2682057.8017126475, 2682057.8017126475
    )
    assert solver._implicit_scalar(*attempt, False) == (
        True, 2682085.096567382, 2683806.778020116
    )


def test_quartic_blow_up_golden_with_few_evaluations(monkeypatch):
    # u = 1 + int u^4 blows up at t* = 1/3; steps of t*/1000.  The status
    # is the one the solver gave before the fold stop, which cut the
    # quiet evaluations of this solve from 174 323 to about 40 000.
    calls = count_evaluations(monkeypatch)
    t_star = 1.0 / 3.0
    spec = build_problem("1.0", "u^4", ExponentialDecayData(1, 0, 1, 0, 0, 0, 2))
    traj = solve(spec, Grid(t_end=2.0 * t_star, h=t_star / 1000))
    assert traj.status == BlowUp(t_star=0.33325523423631676)
    assert calls["array"] == 0 and calls["scalar"] <= 45_000


# ---------------------------------------------------------------------------
# Separable kernels: running lag sums against the direct quadrature
# ---------------------------------------------------------------------------

# A factor the splitter refuses (t and s inside one atan) whose value is
# exactly 1: the same kernel values, summed over the whole history.
DIRECT = "*(1 + 0*atan(t*s))"


def _split_and_direct(f_text, a_text, grid):
    env = ExponentialDecayData(10, 0, 10, 0, 0, 0, 1)
    split = solve(build_problem(f_text, a_text, env), grid)
    direct = solve(build_problem(f_text, f"({a_text}){DIRECT}", env), grid)
    return split, direct


@pytest.mark.parametrize(
    "f_text, a_text, t_end",
    [
        ("exp(-t)", "exp(-(t+s))*atan(u)", 5.0),
        ("1", "u^2", 0.9),
        ("1", "2*u", 1.0),
        ("2 + cos(t)", "exp(-t)*atan(u) - 0.5*t*exp(-2*s)*u/(1 + u^2)", 5.0),
    ],
)
def test_split_lag_matches_direct_quadrature(f_text, a_text, t_end):
    split, direct = _split_and_direct(f_text, a_text, Grid(t_end=t_end, h=1e-3))
    assert split.status == direct.status == Completed()
    rel = np.abs(split.values - direct.values) / np.maximum(np.abs(direct.values), 1e-300)
    assert np.max(rel) <= 1e-13


def test_split_lag_falls_back_where_a_factor_overflows(monkeypatch):
    # exp(s-t) splits into exp(-t) * exp(s), and exp(s) overflows past
    # s ~ 709.8 where the kernel itself stays below 1.  The running sums
    # serve the nodes before that, the direct quadrature the 90 after.
    calls = count_evaluations(monkeypatch)
    split, direct = _split_and_direct("1", "exp(s-t)*atan(u)", Grid(t_end=800.0, h=1.0))
    assert calls["array"] == 800 + 90
    assert split.status == direct.status == Completed()
    assert len(split.values) == 801
    assert np.max(np.abs(split.values - direct.values) / np.abs(direct.values)) <= 1e-13


def test_non_separable_kernel_matches_picard():
    spec = build_problem(
        "exp(-t)", "atan(t*s*u)", ExponentialDecayData(2, 1, 2, 0, 2, 0, 0.5)
    )
    grid = Grid(t_end=1.0, h=2e-3)
    direct = solve(spec, grid)
    assert np.max(np.abs(direct.values - picard_reference(spec, grid).values)) < 1e-6


def test_separable_kernel_never_evaluates_over_the_history(monkeypatch, atan_spec):
    # A silent fallback to the direct quadrature would pass every other
    # test, at O(N^2) cost.
    calls = count_evaluations(monkeypatch)
    traj = solve(atan_spec, Grid(t_end=2.0, h=1e-3))
    assert len(traj.values) == 2001
    assert calls["array"] == 0 and calls["scalar"] > 2000
    # The counter does see the direct quadrature, once per step.
    direct = build_problem("exp(-t)", "exp(-(t+s))*atan(u)" + DIRECT, atan_spec.envelope)
    solve(direct, Grid(t_end=0.01, h=1e-3))
    assert calls["array"] == 10


# ---------------------------------------------------------------------------
# Picard reference
# ---------------------------------------------------------------------------


def test_picard_zero_kernel_converges_immediately():
    spec = zero_kernel_spec("cos(t)")
    traj = picard_reference(spec, Grid(t_end=1.0, h=0.1), iterations=1)
    assert isinstance(traj.status, Completed)
    assert np.array_equal(traj.values, np.cos(traj.times()))


def test_picard_cross_validates_solver(quadratic_spec):
    grid = Grid(t_end=0.5, h=1e-3)
    direct = solve(quadratic_spec, grid)
    fixed_point = picard_reference(quadratic_spec, grid)
    assert np.max(np.abs(direct.values - fixed_point.values)) < 1e-6


def test_picard_diverges_past_blow_up(quadratic_spec):
    with pytest.raises(NonConvergenceError):
        picard_reference(quadratic_spec, Grid(t_end=1.5, h=0.01))


def test_picard_cross_validates_atan_problem(atan_spec):
    spec = atan_spec
    grid = Grid(t_end=1.0, h=2e-3)
    direct = solve(spec, grid)
    fixed_point = picard_reference(spec, grid)
    assert np.max(np.abs(direct.values - fixed_point.values)) < 1e-6


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_trajectory_csv_format(tmp_path, quadratic_spec):
    traj = solve(quadratic_spec, Grid(t_end=0.2, h=0.1))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u"
    assert lines[-1] == "# status=completed"
    assert len(lines) == 2 + len(traj.values)
    t0, u0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(u0) == 1.0
    # 17 significant digits round-trip binary64
    for line, value in zip(lines[1:-1], traj.values):
        assert float(line.split(",")[1]) == value


def test_trajectory_csv_rows_cross_write_chunks(tmp_path):
    # 2 501 rows span three of the writer's 1 024-row conversion chunks;
    # every (t, u) must come back as the same binary64 pair, in order.
    traj = solve(linear_spec(), Grid(t_end=1.0, h=4e-4))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    rows = [tuple(map(float, line.split(","))) for line in path.read_text().splitlines()[1:-1]]
    assert rows == list(zip(traj.times().tolist(), traj.values.tolist()))


def test_trajectory_csv_blowup_status(tmp_path, quadratic_spec):
    traj = solve(quadratic_spec, Grid(t_end=2.0, h=0.01))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    last = path.read_text().splitlines()[-1]
    assert last.startswith("# status=blowup t_star=")
    assert float(last.split("=")[-1]) == traj.status.t_star


def test_trajectory_csv_step_failure_status(tmp_path):
    spec = build_problem(
        "0.1 - t", "sqrt(u)", ExponentialDecayData(2, 0, 1, 0, 0, 0, 0.5)
    )
    traj = solve(spec, Grid(t_end=1.0, h=0.01))
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    last = path.read_text().splitlines()[-1]
    assert last.startswith("# status=step_failure t=")
    assert "reason=" in last

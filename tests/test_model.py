import math
from dataclasses import asdict

import numpy as np
import pytest

from volterrabound import (
    ExponentialDecayData,
    ProblemFileError,
    VariableScopeError,
    build_problem,
    evaluate,
    load_problem,
    problem_from_dict,
    to_text,
    validate_decay,
)
from volterrabound.expr import EvalDomainError, ExprSyntaxError
from volterrabound.model import _kernel_monotone

from conftest import ATAN_PROBLEM, QUADRATIC_PROBLEM, count_evaluations, write_problem


def test_build_problem_derives_all_partials(atan_spec):
    t, s, u = 0.4, 0.2, 0.8
    b = {"t": t, "s": s, "u": u}
    base = math.exp(-(t + s)) * math.atan(u)
    assert evaluate(atan_spec.a, b) == pytest.approx(base, rel=1e-14)
    assert evaluate(atan_spec.a_t, b) == pytest.approx(-base, rel=1e-14)
    assert evaluate(atan_spec.a_u, b) == pytest.approx(
        math.exp(-(t + s)) / (1.0 + u * u), rel=1e-14
    )
    assert evaluate(atan_spec.f_prime, {"t": t}) == pytest.approx(-math.exp(-t), rel=1e-14)


def test_build_problem_accepts_quadratic_example(quadratic_spec):
    assert evaluate(quadratic_spec.a, {"t": 0.0, "s": 0.0, "u": 3.0}) == 9.0
    assert evaluate(quadratic_spec.a_u, {"t": 0.0, "s": 0.0, "u": 3.0}) == 6.0


def test_forcing_scope_rejected():
    with pytest.raises(VariableScopeError):
        build_problem("exp(-s)", "u^2", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1))
    with pytest.raises(VariableScopeError):
        build_problem("u", "u^2", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1))


def test_parse_errors_bubble_up():
    with pytest.raises(ExprSyntaxError):
        build_problem("exp(-t", "u^2", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1))


def test_envelope_validation():
    with pytest.raises(ValueError, match="c0 must be >= 0"):
        ExponentialDecayData(c0=-1.0, b0=0.0, c1=0.0, b1=0.0, c2=0.0, b=0.0, p=1.0)
    with pytest.raises(ValueError, match="p must be > 0"):
        ExponentialDecayData(c0=0.0, b0=0.0, c1=1.0, b1=0.0, c2=0.0, b=0.0, p=0.0)
    # The record admits negative rates (power data in log time needs
    # them); a problem envelope does not.
    growing = ExponentialDecayData(c0=0.0, b0=0.0, c1=1.0, b1=-0.5, c2=0.0, b=0.0, p=1.0)
    with pytest.raises(ValueError, match="b1 must be >= 0"):
        build_problem("1", "u", growing)


# ---------------------------------------------------------------------------
# validate_decay
# ---------------------------------------------------------------------------


def test_forcing_margin_exact_zero_at_equality():
    # |f| + |f'| = 2 exp(-t) matches the envelope 2 exp(-t) exactly.
    spec = build_problem(
        "exp(-t)", "0", ExponentialDecayData(2.0, 1.0, 0, 0, 0, 0, 1)
    )
    report = validate_decay(spec, t_max=10.0, u_max=1.0)
    check = report.check("forcing-decay")
    assert check.margin == 0.0
    assert check.passed


def test_kernel_diagonal_margin_quadratic():
    # |a(t,t,u)| = u^2 <= 1 + u^2 leaves margin exactly 1.
    spec = problem_from_dict(QUADRATIC_PROBLEM)
    report = validate_decay(spec, t_max=5.0, u_max=3.0)
    check = report.check("kernel-diagonal")
    assert check.margin == pytest.approx(1.0, abs=1e-12)
    assert check.passed


def test_kernel_variation_against_closed_form(atan_spec):
    # Independent oracle: int_0^t e^(-(t+s)) ds = e^(-t) (1 - e^(-t)),
    # so the margin at (t, u_max) is
    #   (pi/2) e^(-t) (1 + u_max) - atan(u_max) e^(-t) (1 - e^(-t)).
    u_max = 4.0
    report = validate_decay(atan_spec, t_max=8.0, u_max=u_max)
    check = report.check("kernel-variation")
    assert check.passed
    ts = np.linspace(0.0, 8.0, 201)  # validate_decay's fixed t grid
    margins = (math.pi / 2.0) * np.exp(-ts) * (1.0 + u_max) - math.atan(u_max) * np.exp(
        -ts
    ) * (1.0 - np.exp(-ts))
    assert check.margin == pytest.approx(float(np.min(margins)), rel=1e-8)


def test_kernel_monotone_sign_matches_min_sample(atan_spec):
    report = validate_decay(atan_spec, t_max=5.0, u_max=2.0)
    assert report.check("kernel-monotone").passed  # a_u = e^(-(t+s))/(1+u^2) > 0

    spec = problem_from_dict(QUADRATIC_PROBLEM)
    report2 = validate_decay(spec, t_max=5.0, u_max=2.0)
    check = report2.check("kernel-monotone")
    # a_u = 2u dips to -2 u_max on the sampled box; verdict is its sign.
    assert check.margin == pytest.approx(-4.0, abs=1e-12)
    assert not check.passed
    assert not report2.passed


def test_atan_problem_passes_all_hypotheses(atan_spec):
    report = validate_decay(atan_spec, t_max=20.0, u_max=10.0)
    assert report.passed, report.as_dict()


def test_validation_deterministic(atan_spec):
    r1 = validate_decay(atan_spec, t_max=12.0, u_max=6.0)
    r2 = validate_decay(atan_spec, t_max=12.0, u_max=6.0)
    assert r1 == r2  # dataclass equality covers margins bit for bit


def test_validation_monotone_in_envelopes():
    # Enlarging amplitudes or shrinking decay rates never turns a pass
    # into a fail on the same grid.
    rng = np.random.default_rng(99)
    base = dict(ATAN_PROBLEM)
    for _ in range(10):
        loose = dict(base)
        loose["c0"] = base["c0"] * (1.0 + rng.uniform(0.0, 2.0))
        loose["c1"] = base["c1"] * (1.0 + rng.uniform(0.0, 2.0))
        loose["c2"] = base["c2"] * (1.0 + rng.uniform(0.0, 2.0))
        loose["b0"] = base["b0"] * rng.uniform(0.2, 1.0)
        loose["b1"] = base["b1"] * rng.uniform(0.2, 1.0)
        loose["b"] = base["b"] * rng.uniform(0.2, 1.0)
        report = validate_decay(problem_from_dict(loose), t_max=15.0, u_max=5.0)
        assert report.passed, loose


def test_validation_domain_error_fails_report():
    spec = build_problem(
        "1", "log(u)", ExponentialDecayData(1, 0, 1, 0, 0, 0, 1)
    )
    report = validate_decay(spec, t_max=2.0, u_max=2.0)  # samples include u <= 0
    assert not report.passed
    assert any("error" in c.point for c in report.checks if not c.passed)


def test_validation_argument_checks(atan_spec):
    with pytest.raises(ValueError):
        validate_decay(atan_spec, t_max=0.0, u_max=1.0)
    with pytest.raises(ValueError):
        validate_decay(atan_spec, t_max=1.0, u_max=0.0)


@pytest.mark.parametrize(
    "t_max, u_max", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, 1e308)]
)
def test_validation_rejects_ranges_it_cannot_grid(atan_spec, t_max, u_max):
    # linspace(-u_max, u_max) overflows in stop - start past half the float range.
    with pytest.raises(ValueError):
        validate_decay(atan_spec, t_max=t_max, u_max=u_max)


@pytest.mark.parametrize(
    "problem, points",
    [
        (
            ATAN_PROBLEM,
            {
                "forcing-decay": {"t": 0.0},
                "kernel-diagonal": {"t": 50.0, "u": 0.0},
                "kernel-variation": {"t": 50.0, "profile": 10.0},
                "kernel-monotone": {"t": 50.0, "s": 50.0, "u": -10.0},
            },
        ),
        (
            # Every margin here ties along t, so each point is at t = 0.
            QUADRATIC_PROBLEM,
            {
                "forcing-decay": {"t": 0.0},
                "kernel-diagonal": {"t": 0.0, "u": -10.0},
                "kernel-variation": {"t": 0.0, "profile": 10.0},
                "kernel-monotone": {"t": 0.0, "s": 0.0, "u": -10.0},
            },
        ),
    ],
)
def test_report_points(problem, points):
    report = validate_decay(problem_from_dict(problem), t_max=50.0, u_max=10.0)
    assert {c.name: c.point for c in report.checks} == points


def test_first_minimum_in_t_major_order_wins_a_tie():
    # a = t*u^2: the diagonal margin 0.5 - 3.5u^2 at t = 4 ties at
    # u = -2 and u = 2, both profiles give the integral 4u^2, and
    # a_u = 2tu ties over every s.  The first sample of each tie wins.
    spec = build_problem("1", "t*u^2", ExponentialDecayData(1, 0, 0.5, 0, 0, 0, 1))
    report = validate_decay(spec, t_max=4.0, u_max=2.0)
    assert [(c.margin, c.point) for c in report.checks] == [
        (0.0, {"t": 0.0}),
        (-13.5, {"t": 4.0, "u": -2.0}),
        (-16.0, {"t": 4.0, "profile": 2.0}),
        (-16.0, {"t": 4.0, "s": 0.0, "u": -2.0}),
    ]


def test_domain_error_names_first_failing_node_over_the_grid():
    # a_t = u/(2*sqrt(t - 2s)): the whole s-grid is evaluated at once, so
    # the sqrt node fails (at s > t/2) before the division (at s = t/2).
    spec = build_problem("1", "sqrt(t-2*s)*u", ExponentialDecayData(1, 0, 1, 0, 1, 0, 1))
    check = validate_decay(spec, t_max=4.0, u_max=2.0).check("kernel-variation")
    assert check.margin == -math.inf
    assert check.point == {"error": "sqrt of a negative value in sqrt((t - (2.0 * s)))"}


def kernel_variation_by_loop(spec, t_max, u_max):
    """Reference: the kernel-variation margin one t and one profile at a
    time, with Simpson on a per-t s-grid; the first strict minimum wins."""
    w = np.ones(201)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    growth = 1.0 + u_max ** (2.0 * spec.envelope.p)
    worst = (math.inf, {"t": 0.0, "profile": u_max})
    for t in np.linspace(0.0, t_max, 201).tolist():
        s = np.linspace(0.0, t, 201)
        for u in (u_max, -u_max):
            vals = np.abs(evaluate(spec.a_t, {"t": t, "s": s, "u": u}))
            integral = (t / 200 / 3.0) * float(np.sum(w * vals))
            margin = spec.envelope.c2 * math.exp(-spec.envelope.b * t) * growth - integral
            if margin < worst[0]:
                worst = (margin, {"t": t, "profile": u})
    return worst


@pytest.mark.parametrize(
    "kernel", ["exp(-(t+s))*atan(u)", "sin(t-s)*u", "exp(s-t)*atan(u)", "log(1+t+s)*u^3", "t*u^2"]
)
def test_kernel_variation_matches_the_loop_bit_for_bit(kernel):
    spec = build_problem("1", kernel, ExponentialDecayData(1, 0, 1, 0, 0.7, 0.3, 0.75))
    check = validate_decay(spec, t_max=13.0, u_max=3.5).check("kernel-variation")
    assert (check.margin, check.point) == kernel_variation_by_loop(spec, 13.0, 3.5)


def test_kernel_variation_evaluates_once_per_profile(atan_spec, monkeypatch):
    # f and f', the diagonal, a_t once per profile, and a_u once per
    # block of 16 t values.
    calls = count_evaluations(monkeypatch)
    validate_decay(atan_spec, t_max=50.0, u_max=10.0)
    assert calls["array"] <= 2 + 1 + 2 + 13


def kernel_monotone_by_loop(spec, ts, us):
    """Reference: the kernel-monotone margins one t at a time, each on
    its own s-grid, with the first minimum in (s, u) order."""
    per_t = []
    for t in ts.tolist():
        s_nodes = np.linspace(0.0, t, 51)
        vals = np.broadcast_to(
            evaluate(spec.a_u, {"t": t, "s": s_nodes[:, None], "u": us[None, :]}), (51, len(us))
        )
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        per_t.append((vals[i, j], s_nodes[i], us[j]))
    minima, s_at, u_at = np.array(per_t).T
    return minima, {"t": ts, "s": s_at, "u": u_at}


def _margins_and_points(margins_and_point):
    margins, point = margins_and_point
    return margins.tobytes(), {key: axis.tobytes() for key, axis in point.items()}


@pytest.mark.parametrize(
    "kernel",
    [
        "exp(-(t+s))*atan(u)", "sin(t-s)*u", "exp(s-t)*atan(u)", "log(1+t+s)*u^3", "t*u^2",
        "(s-0.3*t)^2*u", "log(9.5-t)*u^2",
    ],
)
def test_kernel_monotone_matches_the_loop_bit_for_bit(kernel):
    # (s-0.3*t)^2*u has its minima inside the s-rows, where one linspace
    # over the t column would round some s differently.  The last
    # kernel's a_u leaves its domain from t = 9.555 on, inside the block
    # of t values 144-159: both name the same node.
    spec = build_problem("1", kernel, ExponentialDecayData(1, 0, 1, 0, 0.7, 0.3, 0.75))
    ts, us = np.linspace(0.0, 13.0, 201), np.linspace(-3.5, 3.5, 41)
    try:
        expected = _margins_and_points(kernel_monotone_by_loop(spec, ts, us))
    except EvalDomainError as exc:
        with pytest.raises(EvalDomainError) as raised:
            _kernel_monotone(spec, ts, us)
        assert str(raised.value) == str(exc) == "log of a non-positive value in log((9.5 - t))"
    else:
        assert _margins_and_points(_kernel_monotone(spec, ts, us)) == expected


def test_kernel_monotone_domain_error_names_first_failing_node_in_its_block():
    # a_u = 2u*(log(3.1 - t) + log(3.0 - t)) fails at t = 3.0 in the
    # second log and at t = 3.1 in the first, both in the block of t
    # values 144-159.  The loop one t at a time named the second log; the
    # block is evaluated at once, so its first failing node is the first.
    spec = build_problem("1", "u^2*(log(3.1-t)+log(3.0-t))", ExponentialDecayData(1, 0, 1, 0, 1, 0, 1))
    ts, us = np.linspace(0.0, 4.0, 201), np.linspace(-2.0, 2.0, 41)
    with pytest.raises(EvalDomainError, match=r"in log\(\(3\.0 - t\)\)"):
        kernel_monotone_by_loop(spec, ts, us)
    check = validate_decay(spec, t_max=4.0, u_max=2.0).check("kernel-monotone")
    assert check.margin == -math.inf
    assert check.point == {"error": "log of a non-positive value in log((3.1 - t))"}


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


def problem_to_dict(spec):
    return {"f": to_text(spec.f), "a": to_text(spec.a), **asdict(spec.envelope)}


def test_problem_file_round_trip(tmp_path):
    path = write_problem(tmp_path / "p.json", ATAN_PROBLEM)
    spec = load_problem(path)
    again = problem_to_dict(spec)
    reloaded = problem_from_dict(again)
    assert evaluate(reloaded.a, {"t": 0.3, "s": 0.1, "u": 1.0}) == evaluate(
        spec.a, {"t": 0.3, "s": 0.1, "u": 1.0}
    )
    assert reloaded.envelope == spec.envelope


def test_problem_file_missing_field(tmp_path):
    bad = dict(ATAN_PROBLEM)
    del bad["p"]
    path = write_problem(tmp_path / "p.json", bad)
    with pytest.raises(ProblemFileError, match="missing fields"):
        load_problem(path)


def test_problem_file_invalid_constant(tmp_path):
    bad = dict(ATAN_PROBLEM, p=-1.0)
    path = write_problem(tmp_path / "p.json", bad)
    with pytest.raises(ProblemFileError):
        load_problem(path)


def test_problem_file_not_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("not json {")
    with pytest.raises(ProblemFileError):
        load_problem(str(path))


def test_problem_file_missing(tmp_path):
    with pytest.raises(ProblemFileError):
        load_problem(str(tmp_path / "nope.json"))


def test_extra_keys_ignored(tmp_path):
    extended = dict(ATAN_PROBLEM, comment="fixture")
    path = write_problem(tmp_path / "p.json", extended)
    load_problem(path)

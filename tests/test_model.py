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
from volterrabound.expr import ExprSyntaxError

from conftest import ATAN_PROBLEM, QUADRATIC_PROBLEM, write_problem


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

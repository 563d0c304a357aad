"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).  Expected
values come from closed forms, independent oracles computed in place,
or exponent arithmetic restated in the test body; tolerances are fixed
here, not tuned.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from volterrabound import (
    BlowUp,
    Completed,
    ExponentialDecayData,
    ExponentialWeight,
    Grid,
    InequalityData,
    PowerDecayData,
    PowerWeight,
    build_problem,
    check_weight,
    derive_inequality,
    differentiate,
    evaluate,
    propagate_majorant,
    search_exponential,
    solve,
    validate_decay,
)
from volterrabound.certificate import RATE_GRID
from volterrabound.cli import main as cli_main

from conftest import QUADRATIC_PROBLEM, atan_family_problem, margin_direct, write_problem
from test_expr import _random_expr, central_difference

HALF_PI = math.pi / 2.0


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_quadratic_kernel_reproduction(quadratic_spec):
    """u = 1 + int u^2 has closed form 1/(1-t): finite values at 0.5 and
    0.9 and finite-time blow-up at t = 1."""
    start = time.monotonic()
    traj = solve(quadratic_spec, Grid(t_end=0.9, h=1e-4))
    assert isinstance(traj.status, Completed)
    u_half = traj.values[5000]
    u_nine = traj.values[9000]
    blow = solve(quadratic_spec, Grid(t_end=2.0, h=1e-4))
    elapsed = time.monotonic() - start
    ok = (
        abs(u_half - 2.0) / 2.0 <= 1e-3
        and abs(u_nine - 10.0) / 10.0 <= 1e-2
        and isinstance(blow.status, BlowUp)
        and 0.95 < blow.status.t_star < 1.05
        and elapsed < 10.0
    )
    _report(
        "criterion 1: quadratic-kernel reproduction and blow-up",
        ok,
        f"u(0.5)={u_half:.6f}, u(0.9)={u_nine:.4f}, "
        f"t*={blow.status.t_star:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_zero_kernel_identity():
    """With a = 0 every node must reproduce f to <= 1 ulp."""
    worst = 0.0
    for f_text, fn in (("cos(t)", np.cos), ("exp(-t)", lambda t: np.exp(-t))):
        spec = build_problem(
            f_text, "0", ExponentialDecayData(2.0, 0.0, 0, 0, 0, 0, 1)
        )
        traj = solve(spec, Grid(t_end=3.0, h=0.05))
        reference = fn(traj.times())
        ulps = np.abs(traj.values - reference) / np.spacing(np.abs(reference))
        worst = max(worst, float(np.max(ulps)))
    _report("criterion 2: zero-kernel identity", worst <= 1.0, f"worst {worst:.2f} ulp")


def test_criterion_3_linear_kernel_oracle():
    """u = 1 + int 2u is u(t) = exp(2t); second-order convergence."""
    spec = build_problem("1", "2*u", ExponentialDecayData(1, 0, 2, 0, 0, 0, 0.5))
    exact = math.exp(2.0)
    errors = []
    for h in (1e-3, 5e-4, 2.5e-4, 1.25e-4):  # three halvings
        traj = solve(spec, Grid(t_end=1.0, h=h))
        errors.append(abs(traj.values[-1] - exact))
    rel = errors[0] / exact
    orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
    ok = rel <= 1e-4 and all(1.8 <= o <= 2.2 for o in orders)
    _report(
        "criterion 3: linear-kernel value and convergence order",
        ok,
        f"rel err {rel:.2e}, orders {[f'{o:.2f}' for o in orders]}",
    )


def test_criterion_4_certificate_soundness_suite():
    """20 randomized slow-growth kernel problems: validated envelopes
    plus a certificate imply the exponential bound along the computed
    trajectory with positive slack on [0, 20]."""
    start = time.monotonic()
    rng = np.random.default_rng(424242)
    grid = Grid(t_end=20.0, h=0.01)
    worst_slack = math.inf
    count = 0
    while count < 20:
        spec = atan_family_problem(rng)
        report = validate_decay(spec, t_max=20.0, u_max=5.0)
        assert report.passed, report.as_dict()
        cert = search_exponential(derive_inequality(spec))
        assert cert.certified, cert.verdict
        traj = solve(spec, grid)
        assert isinstance(traj.status, Completed)
        bound = cert.bound_values(traj.times())
        slack = float(np.min(bound - np.abs(traj.values)))
        worst_slack = min(worst_slack, slack)
        assert slack > 0.0
        count += 1
    elapsed = time.monotonic() - start
    ok = worst_slack > 0.0 and elapsed < 60.0
    _report(
        "criterion 4: certificate soundness over 20 randomized problems",
        ok,
        f"min slack {worst_slack:.3g}, {elapsed:.1f}s",
    )


def test_criterion_5_certificate_refusal(tmp_path, capsys, quadratic_spec):
    """The quadratic-kernel envelopes admit no certificate: the tail
    exponent (2p-1)*rate - b1 = rate stays positive for every rate on
    the sweep grid, and the CLI reports the refusal with exit code 2."""
    p, b1 = QUADRATIC_PROBLEM["p"], QUADRATIC_PROBLEM["b1"]
    all_positive = all((2.0 * p - 1.0) * q - b1 > 0.0 for q in RATE_GRID)
    cert = search_exponential(derive_inequality(quadratic_spec))
    problem = write_problem(tmp_path / "p.json", QUADRATIC_PROBLEM)
    code = cli_main(["certify", "--problem", problem, "--out", str(tmp_path)])
    capsys.readouterr()
    ok = all_positive and not cert.certified and code == 2
    _report(
        "criterion 5: refusal of the blow-up problem",
        ok,
        f"exit {code}, reason: {cert.verdict.reason[:60]}...",
    )


def test_criterion_6_closed_form_search_check():
    """Symmetric envelopes (0.1, 2.0) with p = 1: the level function
    0.3c + 0.2/c is minimized at c* = sqrt(2/3) and the largest
    admissible rate is 2."""
    data = InequalityData(0.1, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    cert = search_exponential(data)
    expected_c = math.sqrt(2.0 / 3.0)
    grid_margin = float(np.min(margin_direct(data, cert.weight, np.linspace(0.0, 50.0, 5001))))
    ok = (
        cert.certified
        and cert.weight.rate == 2.0
        and abs(cert.weight.coefficient - expected_c) <= 1e-6
        and grid_margin >= -1e-12
    )
    _report(
        "criterion 6: closed-form search check",
        ok,
        f"rate={cert.weight.rate}, coeff={cert.weight.coefficient:.8f} "
        f"(target {expected_c:.8f}), grid margin {grid_margin:.3g}",
    )


def _certified_instances(rng, count):
    """(data, certificate) pairs with certified verdicts: searched
    exponential weights, explicit exponential and power candidates, and
    two seeds attaining the start condition with equality."""
    instances = []
    # equality seeds first: w(0)*g(0) = 0.5 * 2 = 1 exactly
    eq_data = InequalityData(2.0, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    for rate in (2.0, 1.5):
        cert = check_weight(eq_data, ExponentialWeight(coefficient=0.5, rate=rate))
        assert cert.certified and not cert.verdict.strict
        instances.append((eq_data, cert))
    # an explicit exponential and a power-law instance
    exp_data = InequalityData(0.5, ExponentialDecayData(0.2, 1.0, 0.2, 1.0, 0.1, 1.0, 1.0))
    explicit = check_weight(exp_data, ExponentialWeight(coefficient=0.5, rate=1.0))
    assert explicit.certified
    instances.append((exp_data, explicit))
    pow_data = InequalityData(0.5, PowerDecayData(0.5, 2.0, 0.25, 3.0, 0.25, 2.5, 1.0))
    pow_cert = check_weight(pow_data, PowerWeight(coefficient=0.5, rate=1.5))
    assert pow_cert.certified
    instances.append((pow_data, pow_cert))
    attempts = 0
    while len(instances) < count and attempts < 500:
        attempts += 1
        c0, c1, c2 = rng.uniform(0.05, 0.6, size=3)
        b0, b1, b = rng.uniform(1.0, 3.0, size=3)
        p = float(rng.choice([0.5, 0.75, 1.0, 1.5]))
        g0 = rng.uniform(0.0, 1.5)
        data = InequalityData(g0, ExponentialDecayData(c0, b0, c1, b1, c2, b, p))
        cert = search_exponential(data)
        if cert.certified:
            instances.append((data, cert))
    return instances[:count]


def test_criterion_7_majorant_below_certified_bound():
    """50 certified instances: the RK4 curve of the inequality taken
    with equality stays below the certified bound at every node,
    non-strictly at the equality seeds."""
    rng = np.random.default_rng(1337)
    instances = _certified_instances(rng, 50)
    assert len(instances) == 50
    grid = Grid(t_end=15.0, h=0.01)
    worst = math.inf
    for data, cert in instances:
        curve = propagate_majorant(data, grid)
        assert isinstance(curve.status, Completed)
        bound = cert.bound_values(curve.times())
        gap = bound - curve.values
        if cert.verdict.strict:
            assert np.all(gap > 0.0)
        else:
            assert np.all(gap >= 0.0)
            assert np.all(gap[1:] > 0.0)
        worst = min(worst, float(np.min(gap[1:])))
    _report(
        "criterion 7: majorant curves below certified bounds (50 instances)",
        worst > 0.0,
        f"min positive gap {worst:.3g}",
    )


def test_criterion_8_derivative_engine():
    """Symbolic derivatives against central differences over 1000
    random (expression, point) pairs at h = 1e-6."""
    rng = np.random.default_rng(65537)
    checked = 0
    worst = 0.0
    while checked < 1000:
        e = _random_expr(rng, depth=3)
        var = ("t", "s", "u")[rng.integers(0, 3)]
        point = {name: rng.uniform(0.3, 2.0) for name in ("t", "s", "u")}
        try:
            sym = evaluate(differentiate(e, var), point)
            fd = central_difference(e, var, point)
        except Exception:
            continue
        if not (math.isfinite(sym) and math.isfinite(fd)) or abs(sym) > 1e6:
            continue
        rel = abs(sym - fd) / (1.0 + abs(sym))
        worst = max(worst, rel)
        checked += 1
    _report(
        "criterion 8: derivative engine vs central differences (1000 pairs)",
        worst <= 1e-6,
        f"worst relative deviation {worst:.2e}",
    )


@dataclass(frozen=True)
class NormDerivativeReport:
    max_violation: float
    worst_t: float


def norm_derivative_check(samples, h: float) -> NormDerivativeReport:
    """Check that |u|' never exceeds |u'| along sampled data.

    ``samples`` lists (t, u(t), u'(t)) at consecutive points spaced h
    apart.  The one-sided quotient (|u(t+h)| - |u(t)|) / h is compared
    against |u'(t)|; for C1 data the excess stays O(h) above zero, also
    across corners of |u|.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    worst = (-np.inf, float(samples[0][0]))
    for (t0, u0, du0), (_, u1, _) in zip(samples[:-1], samples[1:]):
        quotient = (abs(u1) - abs(u0)) / h
        violation = quotient - abs(du0)
        if violation > worst[0]:
            worst = (violation, float(t0))
    return NormDerivativeReport(max_violation=float(worst[0]), worst_t=worst[1])


def test_criterion_9_norm_derivative_property():
    """(|u(t+h)| - |u(t)|)/h never exceeds |u'(t)| by more than 2h for
    sin t, t^2 - 1, and exp(-t) sin 3t at h = 1e-5."""
    h = 1e-5
    cases = [
        ("sin t", lambda t: math.sin(t), lambda t: math.cos(t), 0.0, math.pi),
        ("t^2 - 1", lambda t: t * t - 1.0, lambda t: 2.0 * t, 0.0, 2.0),
        (
            "exp(-t) sin 3t",
            lambda t: math.exp(-t) * math.sin(3.0 * t),
            lambda t: math.exp(-t) * (3.0 * math.cos(3.0 * t) - math.sin(3.0 * t)),
            0.0,
            3.0,
        ),
    ]
    worst = -math.inf
    for _, fn, dfn, t0, t1 in cases:
        ts = np.arange(t0, t1, h)
        samples = [(float(t), fn(float(t)), dfn(float(t))) for t in ts]
        report = norm_derivative_check(samples, h)
        worst = max(worst, report.max_violation)
    _report(
        "criterion 9: norm-derivative bound",
        worst <= 2.0 * h,
        f"max violation {worst:.3e} vs 2h = {2*h:.0e}",
    )

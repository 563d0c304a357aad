import json
import math

import numpy as np
import pytest

from volterrabound import (
    Certified,
    Completed,
    ExponentComparison,
    ExponentialDecayData,
    ExponentialWeight,
    Grid,
    InequalityData,
    PowerDecayData,
    PowerWeight,
    Refused,
    Trajectory,
    build_problem,
    check_weight,
    derive_inequality,
    problem_from_dict,
    search_exponential,
    search_power,
    solve,
    verify_solution_bound,
)
from conftest import decay_terms, margin_direct, QUADRATIC_PROBLEM


# ---------------------------------------------------------------------------
# derive_inequality
# ---------------------------------------------------------------------------


def test_derive_quadratic_example(quadratic_spec):
    data = derive_inequality(quadratic_spec)
    assert data.decay is quadratic_spec.envelope  # the problem's own record, not a copy
    assert data.decay == ExponentialDecayData(1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    # drive = 1 + 1 = 2 (constant), gain = 1 * g^2
    drive, k = data.decay.tabulate(np.array([0.0, 1.0, 7.3]))
    assert drive.tolist() == [2.0, 2.0, 2.0]
    assert k.tolist() == [1.0, 1.0, 1.0]
    assert data.initial == 1.0


def test_derive_vanishing_kernel_envelope():
    spec = build_problem(
        "exp(-t)", "0", ExponentialDecayData(2.0, 1.0, 0, 0, 0, 0, 1)
    )
    data = derive_inequality(spec)
    assert data.decay is spec.envelope
    ts = np.array([0.0, 0.4, 3.0])
    drive, k = data.decay.tabulate(ts)
    assert np.all(k == 0.0)
    assert drive == pytest.approx(2.0 * np.exp(-ts), rel=1e-15)


def test_derive_atan_structure(atan_spec):
    # Direct substitution oracle: drive and gain from the constants.
    data = derive_inequality(atan_spec)
    assert data.decay is atan_spec.envelope
    hp = math.pi / 2.0
    for t in (0.0, 0.7, 2.5):
        drive, k = data.decay.tabulate(np.array([t]))
        expected_drive = 2.0 * math.exp(-t) + hp * math.exp(-2.0 * t) + hp * math.exp(-t)
        assert drive[0] == pytest.approx(expected_drive, rel=1e-14)
        assert k[0] == pytest.approx(hp * math.exp(-2.0 * t) + hp * math.exp(-t), rel=1e-14)
    assert data.initial == 1.0  # |f(0)| = 1, not the looser c0 = 2
    assert isinstance(data.decay, ExponentialDecayData) and data.decay.p == 0.5


# ---------------------------------------------------------------------------
# check_weight
# ---------------------------------------------------------------------------


def test_check_weight_refuses_quadratic_data_for_any_rate(quadratic_spec):
    data = derive_inequality(quadratic_spec)
    for rate in (0.5, 1.0, 10.0):
        cert = check_weight(data, ExponentialWeight(coefficient=0.5, rate=rate))
        assert isinstance(cert.verdict, Refused)
        assert isinstance(cert.tail_check, ExponentComparison)
        # the failing exponent is (2p-1)*rate - b1 = rate > 0
        assert rate in cert.tail_check.exponents
        assert "tail" in cert.verdict.reason


def test_check_weight_symmetric_envelopes():
    data = InequalityData(0.1, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    cert = check_weight(data, ExponentialWeight(coefficient=0.8165, rate=2.0))
    assert cert.verdict == Certified(strict=True)
    assert cert.margin_min >= 0.0
    assert cert.tail_check.passed


def test_check_weight_rejects_nonpositive_weight():
    for family in (ExponentialWeight, PowerWeight):
        for coefficient in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be > 0"):
                family(coefficient, 1.0)


def test_check_weight_needs_matching_decay_data():
    power = InequalityData(0.5, PowerDecayData(1.0, 2.0, 0, 0, 0, 0, 1.0))
    with pytest.raises(ValueError, match="exponential decay data"):
        check_weight(power, ExponentialWeight(1.0, 1.0))
    exponential = InequalityData(0.5, ExponentialDecayData(1.0, 1.0, 0, 0, 0, 0, 1.0))
    with pytest.raises(ValueError, match="power-law decay data"):
        check_weight(exponential, PowerWeight(1.0, 1.0))


def test_decay_records_reject_bad_constants():
    # Finite constants, amplitudes >= 0 and p > 0 make the gain
    # k(t) * g^(2p) non-negative and non-decreasing in g >= 0.
    for record, names in (
        (ExponentialDecayData, ("c0", "b0", "c1", "b1", "c2", "b", "p")),
        (PowerDecayData, ("d0", "e0", "d1", "e1", "d2", "e2", "p")),
    ):
        good = dict(zip(names, (0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 1.0)))
        assert InequalityData(0.5, record(**good)).decay.p == 1.0
        for name in names:
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                    record(**{**good, name: bad})
        for name in names[0:6:2]:
            with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
                record(**{**good, name: -1e-300})
        for p in (0.0, -1.0):
            with pytest.raises(ValueError, match="^p must be > 0"):
                record(**{**good, "p": p})
        for initial in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^initial must be a finite number"):
                InequalityData(initial, record(**good))
        with pytest.raises(ValueError, match="^initial must be >= 0"):
            InequalityData(-1.0, record(**good))


def test_weights_reject_non_finite_constants():
    # An infinite coefficient would certify |u| <= exp(t)/inf = 0 on a
    # NaN margin; the error names the field.
    for family in (ExponentialWeight, PowerWeight):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^coefficient must be a finite number"):
                family(bad, 1.0)
            with pytest.raises(ValueError, match="^rate must be a finite number"):
                family(1.0, bad)


def test_check_weight_overflow_is_a_refusal():
    # c < 1 raised to 1 - 2p = -5 overflows: the margin at t = 0 is -inf.
    data = InequalityData(0, ExponentialDecayData(1, 1, 1, 1, 0, 0, 3.0))
    cert = check_weight(data, ExponentialWeight(1e-100, 0.5))
    assert isinstance(cert.verdict, Refused)
    assert cert.margin_min == -math.inf
    assert "negative margin -inf at t=0" in cert.verdict.reason


def test_refused_certificate_carries_no_bound():
    # The tail exponent of this weight is positive; the refusal still
    # names the candidate, but claims no bound.
    data = InequalityData(0, ExponentialDecayData(1, 1, 1, 1, 0, 0, 1.0))
    cert = check_weight(data, ExponentialWeight(1.0, 0.1))
    assert not cert.certified
    payload = cert.to_dict()
    assert payload["bound"] is None
    assert (payload["family"], payload["coefficient"], payload["rate"]) == ("exponential", 1.0, 0.1)
    with pytest.raises(ValueError, match="carries no bound"):
        cert.bound_values([0.0, 1.0])


def test_strictness_propagation():
    data = InequalityData(2.0, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    # w(0) * g(0) = 0.5 * 2 = 1 exactly: certified, but not strict
    cert = check_weight(data, ExponentialWeight(coefficient=0.5, rate=2.0))
    assert cert.verdict == Certified(strict=False)
    # w(0) * g(0) = 0.25 * 2 = 0.5 < 1: strict
    cert2 = check_weight(data, ExponentialWeight(coefficient=0.25, rate=2.0))
    assert cert2.verdict == Certified(strict=True)
    # w(0) * g(0) > 1: refused
    cert3 = check_weight(data, ExponentialWeight(coefficient=0.6, rate=2.0))
    assert isinstance(cert3.verdict, Refused)
    assert "start condition" in cert3.verdict.reason


# ---------------------------------------------------------------------------
# search_exponential
# ---------------------------------------------------------------------------


def test_search_symmetric_envelopes_closed_form():
    # Independent minimizer oracle: h(c) = 0.3 c + 0.2 / c has its
    # minimum at c* = sqrt(2/3) with h(c*) = 2 sqrt(0.06) <= rate 2.
    data = InequalityData(0.1, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    cert = search_exponential(data)
    assert cert.verdict == Certified(strict=True)
    assert cert.weight.rate == 2.0
    assert abs(cert.weight.coefficient - math.sqrt(2.0 / 3.0)) < 1e-6
    assert cert.margin_min >= -1e-12


def test_search_refuses_quadratic_envelopes(quadratic_spec):
    data = derive_inequality(quadratic_spec)
    cert = search_exponential(data)
    assert isinstance(cert.verdict, Refused)
    assert cert.weight is None and cert.to_dict()["bound"] is None
    # for every rate on the sweep grid the tail exponent is positive
    from volterrabound.certificate import RATE_GRID

    p, b1 = 1.0, 0.0
    assert all((2.0 * p - 1.0) * q - b1 > 0.0 for q in RATE_GRID)


def test_search_pure_forcing_degenerate():
    data = InequalityData(1.0, ExponentialDecayData(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    cert = search_exponential(data)
    assert isinstance(cert.verdict, Certified)
    c, q = cert.weight.coefficient, cert.weight.rate
    # level condition c0 * c <= rate and strict start condition
    assert 1.0 * c <= q
    assert c * 1.0 < 1.0
    assert cert.margin_min >= 0.0


@pytest.mark.parametrize(
    "decay, certified",
    [
        ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5), True),  # pure forcing
        ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5), True),  # pure forcing, no drive
        ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5), True),  # p <= 1/2
        ((1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5), False),  # p > 1/2
    ],
)
def test_search_with_a_subnormal_initial_value_gives_a_verdict(decay, certified):
    # 1/1e-320 overflows; the coefficient bracket must stay finite.
    cert = search_exponential(InequalityData(1e-320, ExponentialDecayData(*decay)))
    assert cert.certified == certified, cert.verdict
    if certified:
        assert cert.verdict == Certified(strict=True)
        assert cert.weight.coefficient * 1e-320 < 1.0


def test_search_level_condition_failure():
    # p > 1/2 with huge amplitudes and slow decay: min h exceeds the
    # largest admissible rate, refusal carries the best margin.
    data = InequalityData(0.01, ExponentialDecayData(50.0, 0.1, 50.0, 0.1, 50.0, 0.1, 1.0))
    cert = search_exponential(data)
    assert isinstance(cert.verdict, Refused)
    assert "level condition" in cert.verdict.reason
    assert cert.margin_min is not None and cert.margin_min < 0.0


def test_search_rate_cap_rounded_down_until_tails_are_non_positive():
    # The cap 3.9/5 times the state slope 5 rounds to 3.9 + 4.4e-16; the
    # search steps the cap down by ulps instead of refusing on rounding.
    data = InequalityData(0, ExponentialDecayData(0, 4.4, 0.206, 3.9, 0, 4.5, 3.0))
    cert = search_exponential(data)
    assert cert.certified, cert.verdict
    assert all(x <= 0.0 for x in cert.tail_check.exponents)
    assert cert.weight.rate == pytest.approx(3.9 / 5.0, rel=1e-15)


def test_search_level_overflow_is_a_refusal():
    # c < 1 raised to 1 - 2p for a huge p overflows: the level is infinite.
    data = InequalityData(2.0, ExponentialDecayData(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1e300))
    cert = search_exponential(data)
    assert isinstance(cert.verdict, Refused)
    assert "min h = inf" in cert.verdict.reason


def test_search_with_overflowing_state_amplitudes_is_a_refusal():
    # c1 + c2 overflows, so c* = (2p-1)*inf/inf is NaN.  The clip sends it
    # to the bracket's left end, where the level is infinite.
    for search, decay in (
        (search_exponential, ExponentialDecayData(1e308, 1.0, 1e308, 2.0, 1e308, 1.0, 1.0)),
        (search_power, PowerDecayData(1e308, 2.0, 1e308, 3.0, 1e308, 2.0, 1.0)),
    ):
        cert = search(InequalityData(1.0, decay))
        assert isinstance(cert.verdict, Refused)
        assert "level condition failed: min h = inf" in cert.verdict.reason


def test_search_requires_exponential_data():
    data = InequalityData(0.0, PowerDecayData(1.0, 2.0, 0, 0, 0, 0, 1.0))
    with pytest.raises(ValueError, match="exponential decay data"):
        search_exponential(data)


def test_search_rate_monotonicity():
    # If (c, rate) certifies, so does (c, rate') for rate' >= rate with
    # tails still admissible (p = 1/2 keeps every rate admissible).
    rng = np.random.default_rng(7)
    for _ in range(20):
        decay = ExponentialDecayData(
            rng.uniform(0.1, 1.0),
            rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 1.0),
            rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 1.0),
            rng.uniform(0.5, 2.0),
            0.5,
        )
        data = InequalityData(rng.uniform(0.0, 1.5), decay)
        cert = search_exponential(data)
        if not cert.certified:
            continue
        w = cert.weight
        for factor in (1.5, 4.0):
            again = check_weight(data, ExponentialWeight(w.coefficient, w.rate * factor))
            assert again.certified, (w, factor)


def test_margin_factored_path_matches_direct_expression():
    # Dual route: the factored margin at t = 0 must agree with the
    # margin by direct substitution into the inequality, for
    # exponential weights on exponential data and for power weights on
    # power data, whose factored margin goes through log-time.
    from volterrabound.certificate import _margin_at_zero, _reduction_data

    rng = np.random.default_rng(11)
    for family, record, decay_range in (
        (ExponentialWeight, ExponentialDecayData, (0.0, 2.0)),
        (PowerWeight, PowerDecayData, (0.0, 4.0)),
    ):
        for _ in range(25):
            c0, c1, c2 = rng.uniform(0.05, 1.0, size=3)
            b0, b1, b = rng.uniform(*decay_range, size=3)
            p = float(rng.choice([0.5, 0.75, 1.0, 1.5]))
            q = rng.uniform(0.2, 2.0)
            c3 = rng.uniform(0.1, 1.5)
            data = InequalityData(0.1, record(c0, b0, c1, b1, c2, b, p))
            weight = family(coefficient=c3, rate=q)
            factored = _margin_at_zero(_reduction_data(data, family), weight)
            direct = float(margin_direct(data, weight, 0.0))
            assert abs(factored - direct) <= 1e-9 * (1.0 + abs(direct)), family


def test_power_margin_is_reported_at_zero_for_rates_below_one():
    # With rate < 1 the power margin (q/c) * (1+t)^(q-1) * (1 - sum)
    # falls with t, but its sign is that at t = 0 and the certificate
    # reports the margin there.
    data = InequalityData(0.5, PowerDecayData(0.2, 2.0, 0.1, 3.0, 0.0, 0.0, 1.0))
    weight = PowerWeight(coefficient=1.0, rate=0.5)
    cert = check_weight(data, weight)
    assert cert.verdict == Certified(strict=True)
    direct = margin_direct(data, weight, np.linspace(0.0, 50.0, 5001))
    assert cert.margin_min == pytest.approx(float(direct[0]), rel=1e-12)
    assert cert.margin_min > float(direct[-1]) > 0.0


def test_reduction_equivalence_grid_vs_closed_form():
    # For exponential weights on exponential data both the verdict and
    # the sign of the direct margin on [0, 50] at resolution 1e-2 follow
    # the closed-form conditions: every tail exponent <= 0 and
    # h(c) <= rate.  The closed form here is recomputed from first
    # principles, independent of the implementation's reduction.
    rng = np.random.default_rng(20250810)
    coarse = lambda lo, hi: rng.integers(int(lo * 4), int(hi * 4) + 1) / 4.0
    checked = 0
    while checked < 100:
        c0, c1, c2 = rng.uniform(0.3, 1.5, size=3)
        b0, b1, b = (coarse(0.0, 2.5) for _ in range(3))
        p = float(rng.choice([0.75, 1.0, 1.5]))
        q = max(coarse(0.25, 2.0), 0.25)
        g0 = rng.uniform(0.0, 2.0)
        c3 = rng.uniform(0.05, 0.95 / max(g0, 0.5))
        data = InequalityData(g0, ExponentialDecayData(c0, b0, c1, b1, c2, b, p))

        level = (c0 + c1 + c2) * c3 + (c1 + c2) * c3 ** (1.0 - 2.0 * p)
        tails_ok = (2.0 * p - 1.0) * q - b1 <= 0.0 and (2.0 * p - 1.0) * q - b <= 0.0
        closed_form = tails_ok and level <= q

        weight = ExponentialWeight(c3, q)
        cert = check_weight(data, weight)
        grid_margin = float(np.min(margin_direct(data, weight, np.linspace(0.0, 50.0, 5001))))
        assert cert.certified == closed_form, (c0, b0, c1, b1, c2, b, p, q, c3, level)
        assert (grid_margin >= 0.0) == closed_form, (q, c3, level, grid_margin)
        checked += 1


# ---------------------------------------------------------------------------
# search_power
# ---------------------------------------------------------------------------


def test_power_degenerate_drive():
    # drive (1+t)^-2 alone: (1, 1) is an explicit witness and the sweep
    # must certify as well.
    data = InequalityData(0.5, PowerDecayData(1.0, 2.0, 0, 0, 0, 0, 1.0))
    explicit = check_weight(data, PowerWeight(coefficient=1.0, rate=1.0))
    assert explicit.verdict == Certified(strict=True)
    assert explicit.margin_min >= 0.0
    found = search_power(data)
    assert found.certified
    assert found.weight.coefficient * 0.5 < 1.0


def test_power_order_comparison_refusal():
    # gain order 2p*r + 1 - e1 stays positive for every rate when the
    # state decay order is below 1 and p >= 1.
    data = InequalityData(0.5, PowerDecayData(0.5, 2.0, 0.5, 0.5, 0.0, 0.0, 1.0))
    cert = search_power(data)
    assert isinstance(cert.verdict, Refused)
    assert "no admissible rate" in cert.verdict.reason


def test_power_zero_initial_trivially_strict():
    data = InequalityData(0.0, PowerDecayData(1.0, 2.0, 0.2, 3.0, 0.0, 0.0, 1.0))
    cert = search_power(data)
    assert cert.certified
    assert cert.verdict.strict


def _assert_power_condition_pointwise(data, w, ts):
    # independent pointwise inequality check of the defining condition
    for t in ts:
        drive_0, drive_1, drive_2 = decay_terms(data.decay, float(t))
        bound = (1.0 + t) ** w.rate / w.coefficient
        lhs = (drive_1 + drive_2) * bound ** (2.0 * data.decay.p) + drive_0 + drive_1 + drive_2
        rhs = w.rate * (1.0 + t) ** (w.rate - 1.0) / w.coefficient
        assert lhs <= rhs * (1.0 + 1e-12), t


def test_power_certified_bound_dominates_majorant_pointwise():
    data = InequalityData(0.5, PowerDecayData(0.5, 2.0, 0.25, 3.0, 0.25, 2.5, 1.0))
    cert = search_power(data)
    assert cert.certified
    _assert_power_condition_pointwise(data, cert.weight, np.linspace(0.0, 40.0, 401))


def test_power_search_takes_the_rate_cap_off_the_grid():
    # The state order 2.5 caps the rate at (2.5 - 1)/(2p - 1) = 1.5, which
    # lies between two RATE_GRID points; h(c*) = 2*sqrt(2.2*0.25) ~ 1.483
    # is above the grid point below the cap, so only the cap certifies.
    data = InequalityData(0.5, PowerDecayData(1.95, 3.0, 0, 0, 0.25, 2.5, 1.0))
    cert = search_power(data)
    assert cert.certified
    assert cert.weight.rate == 1.5
    assert cert.weight.coefficient == pytest.approx(math.sqrt(0.25 / 2.2), rel=1e-12)
    ts = np.concatenate((np.linspace(0.0, 40.0, 401), np.geomspace(40.0, 1e6, 200)))
    _assert_power_condition_pointwise(data, cert.weight, ts)


def test_search_power_requires_power_data():
    data = InequalityData(0.0, ExponentialDecayData(1, 1, 0, 0, 0, 0, 1.0))
    with pytest.raises(ValueError, match="power-law decay data"):
        search_power(data)


# ---------------------------------------------------------------------------
# verify_solution_bound
# ---------------------------------------------------------------------------


def test_verify_bound_zero_kernel():
    spec = build_problem(
        "exp(-t)", "0", ExponentialDecayData(2.0, 1.0, 0, 0, 0, 0, 1)
    )
    traj = solve(spec, Grid(t_end=5.0, h=0.01))
    data = derive_inequality(spec)
    cert = check_weight(data, ExponentialWeight(coefficient=0.5, rate=1.0))
    assert cert.certified
    report = verify_solution_bound(traj, cert)
    assert report.holds
    assert report.min_slack > 0.0


def test_verify_bound_detects_manual_violation():
    spec = build_problem(
        "exp(-t)", "0", ExponentialDecayData(2.0, 1.0, 0, 0, 0, 0, 1)
    )
    traj = solve(spec, Grid(t_end=5.0, h=0.1))
    data = derive_inequality(spec)
    cert = check_weight(data, ExponentialWeight(coefficient=0.5, rate=1.0))
    tampered_values = traj.values.copy()
    k = 17
    tampered_values[k] = 1e9
    tampered = Trajectory(grid=traj.grid, values=tampered_values, status=Completed())
    report = verify_solution_bound(tampered, cert)
    assert not report.holds
    assert report.worst_index == k
    assert report.min_slack < 0.0


def test_verify_bound_preconditions(quadratic_spec):
    data = InequalityData(0.1, ExponentialDecayData(0.1, 2, 0.1, 2, 0.1, 2, 1.0))
    good = check_weight(data, ExponentialWeight(0.5, 2.0))
    blown = solve(quadratic_spec, Grid(t_end=2.0, h=0.01))
    with pytest.raises(ValueError, match="did not complete"):
        verify_solution_bound(blown, good)
    refused = check_weight(data, ExponentialWeight(0.6, 2.0))
    refused_hard = check_weight(
        derive_inequality(quadratic_spec), ExponentialWeight(0.5, 1.0)
    )
    ok = solve(quadratic_spec, Grid(t_end=0.5, h=0.01))
    with pytest.raises(ValueError, match="not certified"):
        verify_solution_bound(ok, refused_hard)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_certificate_to_dict_round_trips_through_json():
    data = InequalityData(0.1, ExponentialDecayData(0.1, 2.0, 0.1, 2.0, 0.1, 2.0, 1.0))
    cert = search_exponential(data)
    payload = json.loads(json.dumps(cert.to_dict()))
    assert payload["family"] == "exponential"
    assert payload["verdict"] == "certified"
    assert payload["strict"] is True
    assert payload["rate"] == 2.0
    assert payload["tail_check"]["kind"] == "exponent_comparison"
    assert all(x <= 0 for x in payload["tail_check"]["exponents"])
    assert "exp" in payload["bound"]

    refusal = search_exponential(derive_inequality(problem_from_dict(QUADRATIC_PROBLEM)))
    payload2 = json.loads(json.dumps(refusal.to_dict()))
    assert payload2["verdict"] == "refused"
    assert payload2["bound"] is None

"""Verifiable global growth bounds for the scalar differential inequality

    g'(t) <= k(t) * g(t)**(2p) + drive(t),    g(0) = initial,

where k and drive are closed-form sums of non-negative decay terms, held
as their constants only, in the decay records of :mod:`.model`
(:class:`ExponentialDecayData`, the problem's own envelope, or
:class:`PowerDecayData`).  Each record checks on construction that its
amplitudes are >= 0 and p > 0, so the gain k(t) * g**(2p) is
non-negative and non-decreasing in g >= 0 by construction.  A
certificate is a positive C1 weight function w(t) satisfying

    k(t) * (1/w(t))**(2p) + drive(t) <= -w'(t) / w(t)**2

for all t >= 0 together with the start condition w(0) * g(0) < 1 (or
<= 1 for the non-strict variant); it entails g(t) < 1/w(t) for all t.
Trajectories of the integral-equation solver inherit the bound because
|u(t)| satisfies exactly this inequality when the problem's decay
envelopes hold.

For exponential decay data the weight w(t) = coefficient * exp(-rate*t)
reduces, after dividing by the right side, to a sum of exponentials
staying below 1; with every exponent non-positive the supremum sits at
t = 0 and the whole condition collapses to the scalar level check

    h(c) = (c0+c1+c2)*c + (c1+c2)*c**(1-2p) <= rate.

Power-law decay data is the same problem in log-time tau = log(1+t):
the change of variable turns a term d * (1+t)**(-e) into
d * exp(-(e-1)*tau) and w(t) = coefficient * (1+t)**(-rate) into the
exponential weight in tau.  One margin, one tail check and one
closed-form search serve both families.  With every tail exponent
non-positive the normalized sum is non-increasing, so the condition holds
for all t >= 0 exactly when its margin at t = 0 is >= 0: every verdict
is decided from scalars, with no sampled grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .expr import evaluate
from .model import (
    DecayData,
    ExponentialDecayData,
    PowerDecayData,
    ProblemSpec,
    _json_float,
    _require_finite,
)
from .solver import Completed, Trajectory

__all__ = [
    "ExponentialWeight",
    "PowerWeight",
    "InequalityData",
    "Certified",
    "Refused",
    "ExponentComparison",
    "Certificate",
    "BoundReport",
    "derive_inequality",
    "check_weight",
    "search_exponential",
    "search_power",
    "verify_solution_bound",
]

# Candidate growth rates for p <= 1/2, log-spaced; taking the first one at
# or above the level keeps h(c) <= rate off equality.
RATE_GRID = np.logspace(-3.0, 3.0, 601)
_COEFF_FLOOR = 1e-8  # left end of the coefficient bracket in searches
_COEFF_CAP = 1e8  # right end when the start condition puts no limit


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Weight:
    """The two constants of a weight, finite and > 0."""

    coefficient: float
    rate: float

    def __post_init__(self):
        _require_finite(coefficient=self.coefficient, rate=self.rate)
        if not (self.coefficient > 0.0 and self.rate > 0.0):
            raise ValueError("coefficient and rate must be > 0")


@dataclass(frozen=True)
class ExponentialWeight(_Weight):
    """w(t) = coefficient * exp(-rate * t); implied bound exp(rate*t)/coefficient."""

    def bound_values(self, t):
        with np.errstate(over="ignore"):
            return np.exp(self.rate * np.asarray(t, dtype=float)) / self.coefficient

    def bound_text(self) -> str:
        return f"(exp(({float(self.rate)!r} * t)) / {float(self.coefficient)!r})"


@dataclass(frozen=True)
class PowerWeight(_Weight):
    """w(t) = coefficient * (1+t)**(-rate); implied bound (1+t)**rate / coefficient."""

    def bound_values(self, t):
        with np.errstate(over="ignore"):
            return (1.0 + np.asarray(t, dtype=float)) ** self.rate / self.coefficient

    def bound_text(self) -> str:
        return f"(((1.0 + t) ^ {float(self.rate)!r}) / {float(self.coefficient)!r})"


WeightFamily = Union[ExponentialWeight, PowerWeight]


# ---------------------------------------------------------------------------
# Inequality data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityData:
    """The growth inequality g' <= k(t) * g**(2p) + drive(t), g(0) = initial,
    with k and drive the closed-form sums of one decay record."""

    initial: float
    decay: DecayData

    def __post_init__(self):
        _require_finite(initial=self.initial)
        if not (self.initial >= 0.0):
            raise ValueError("initial must be >= 0")


def derive_inequality(spec: ProblemSpec) -> InequalityData:
    """The growth inequality of a problem: its envelope record is the
    decay record, and the initial value is the exact |f(0)| (not the
    looser constant c0)."""
    return InequalityData(abs(float(evaluate(spec.f, {"t": 0.0}))), spec.envelope)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certified:
    strict: bool


@dataclass(frozen=True)
class Refused:
    reason: str


@dataclass(frozen=True)
class ExponentComparison:
    """Exact tail condition: the listed exponents must all be <= 0, so
    the normalized condition attains its supremum at t = 0 and the
    margin there decides the whole half line."""

    exponents: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(x <= 0.0 for x in self.exponents)


@dataclass(frozen=True)
class Certificate:
    weight: Optional[WeightFamily]
    verdict: Union[Certified, Refused]
    margin_min: Optional[float]
    tail_check: ExponentComparison

    @property
    def certified(self) -> bool:
        return isinstance(self.verdict, Certified)

    def bound_values(self, t) -> np.ndarray:
        if not self.certified:
            raise ValueError("refused certificate carries no bound")
        return np.asarray(self.weight.bound_values(t), dtype=float)

    def to_dict(self) -> dict:
        out: dict = {
            "family": _family_name(self.weight),
            "verdict": "certified" if self.certified else "refused",
            "margin_min": _json_float(self.margin_min),
            "bound": self.weight.bound_text() if self.certified else None,
        }
        if self.weight is not None:
            out["coefficient"] = self.weight.coefficient
            out["rate"] = self.weight.rate
        if isinstance(self.verdict, Certified):
            out["strict"] = self.verdict.strict
        else:
            out["reason"] = self.verdict.reason
        out["tail_check"] = {
            "kind": "exponent_comparison",
            "exponents": list(self.tail_check.exponents),
            "passed": self.tail_check.passed,
        }
        return out


def _family_name(weight: Optional[WeightFamily]) -> Optional[str]:
    if isinstance(weight, ExponentialWeight):
        return "exponential"
    if isinstance(weight, PowerWeight):
        return "power"
    return None


def _refusal(reason: str, margin: Optional[float], exponents: tuple) -> Certificate:
    return Certificate(
        weight=None,
        verdict=Refused(reason),
        margin_min=margin,
        tail_check=ExponentComparison(exponents),
    )


# ---------------------------------------------------------------------------
# Margin evaluation
# ---------------------------------------------------------------------------


def _power(base: float, exponent: float) -> float:
    """base ** exponent, with an overflow (c < 1 raised to a huge
    negative power) read as inf."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _log_time_data(d: PowerDecayData) -> ExponentialDecayData:
    """Power data in log-time tau = log(1+t): the change of variable
    multiplies each term by 1+t, and (1+t) * d * (1+t)**(-e) is
    d * exp(-(e-1) * tau)."""
    return ExponentialDecayData(d.d0, d.e0 - 1.0, d.d1, d.e1 - 1.0, d.d2, d.e2 - 1.0, d.p)


def _reduction_data(data: InequalityData, family: type) -> ExponentialDecayData:
    """Exponential decay data in the weight family's own time variable:
    t for exponential weights, tau = log(1+t) for power weights."""
    if family is ExponentialWeight and isinstance(data.decay, ExponentialDecayData):
        return data.decay
    if family is PowerWeight and isinstance(data.decay, PowerDecayData):
        return _log_time_data(data.decay)
    kind = "exponential" if family is ExponentialWeight else "power-law"
    raise ValueError(f"{family.__name__} needs {kind} decay data")


def _reduction_terms(d: ExponentialDecayData):
    """(amplitude, state, slope, decay) for each active term of the
    normalized condition of the weight c * exp(-q*t),

        sum_i amplitude_i * (c**(1-2p) if state_i else c) / q
              * exp((slope_i * q - decay_i) * t) <= 1.

    Drive terms have slope -1 and state terms slope 2p-1; inactive
    envelope terms are dropped."""
    pairs = d.pairs()
    drive = [(c, False, -1.0, decay) for c, decay in pairs if c > 0.0]
    state = [(c, True, 2.0 * d.p - 1.0, decay) for c, decay in pairs[1:] if c > 0.0]
    return drive + state


def _tail_exponents(terms, rate: float) -> tuple[float, ...]:
    return tuple(slope * rate - decay for _, _, slope, decay in terms)


def _margin_at_zero(d: ExponentialDecayData, weight: WeightFamily) -> float:
    """margin(0) = -w'/w**2 - k * (1/w)**(2p) - drive at t = 0, in the
    factored form (q/c) * (1 - normalized sum); tau = log(1+0) = 0 makes
    it the same for both weight families.

    The factored form never produces NaN: q/c may overflow to inf, and
    the normalized sum is exactly zero at equality.
    """
    q, c = weight.rate, weight.coefficient
    shrink = _power(c, 1.0 - 2.0 * d.p)
    total = 0.0
    for amplitude, state, _, _ in _reduction_terms(d):
        total = total + amplitude * (shrink if state else c) / q
    normalized = 1.0 - total
    return 0.0 if normalized == 0.0 else (q / c) * normalized


def check_weight(data: InequalityData, weight: WeightFamily) -> Certificate:
    """Check one candidate weight against the inequality data.

    The weight needs the matching decay record (exponential for an
    exponential weight, power-law for a power weight); otherwise this
    raises ValueError.  Certification requires every tail exponent
    <= 0, the margin

        -w'/w**2 - k(t) * (1/w)**(2p) - drive(t)

    at t = 0 to be >= 0, and the start condition w(0)*g(0) <= 1 (strict
    bound when < 1).  The non-positive tail exponents make the
    normalized condition non-increasing in t, so the margin at t = 0
    decides it for all t >= 0.
    """
    d = _reduction_data(data, type(weight))
    margin = _margin_at_zero(d, weight)
    tail = ExponentComparison(_tail_exponents(_reduction_terms(d), weight.rate))
    start = weight.coefficient * data.initial

    failures = []
    if not tail.passed:
        positive = [x for x in tail.exponents if x > 0.0]
        failures.append(f"positive tail exponent(s) {positive}")
    if not (margin >= 0.0):
        failures.append(f"negative margin {margin:.6g} at t=0")
    if start > 1.0:
        failures.append(f"start condition failed: w(0)*g(0) = {start:.6g} > 1")

    if failures:
        verdict: Union[Certified, Refused] = Refused("; ".join(failures))
    else:
        verdict = Certified(strict=bool(start < 1.0))
    return Certificate(weight=weight, verdict=verdict, margin_min=margin, tail_check=tail)


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def _coefficient_bracket(initial: float) -> tuple[float, float]:
    """Admissible weight coefficients: (0, 1/initial) from the strict
    start condition, clipped to a representable bracket."""
    if initial > 0.0:
        # For a subnormal initial 1/initial overflows, and the largest
        # float still meets the strict start condition.
        hi = min((1.0 / initial) * (1.0 - 1e-12), sys.float_info.max)
    else:
        hi = _COEFF_CAP
    lo = min(_COEFF_FLOOR, hi * 1e-3)
    return lo, hi


def _rate_interval(terms) -> tuple[float, float]:
    """(floor, cap) of the rates q keeping every tail exponent
    slope*q - decay non-positive.  Each exponent is linear in q: a
    negative slope bounds q below, a positive one above, and a constant
    positive exponent leaves no rate (cap = -inf).  Each bound is moved
    inwards by ulps until its exponent, as rounded, is <= 0."""
    floor, cap = 0.0, math.inf
    for _, _, slope, decay in terms:
        if slope == 0.0:
            if decay < 0.0:
                cap = -math.inf
            continue
        bound = decay / slope
        while slope * bound - decay > 0.0:
            bound = math.nextafter(bound, -math.inf if slope > 0.0 else math.inf)
        if slope > 0.0:
            cap = min(cap, bound)
        else:
            floor = max(floor, bound)
    return floor, cap


def _search(data: InequalityData, family: type) -> Certificate:
    d = _reduction_data(data, family)
    terms = _reduction_terms(d)
    floor, cap = _rate_interval(terms)
    if cap <= 0.0:
        slowest = min(decay for _, state, _, decay in terms if state)
        return _refusal(
            "no admissible rate: the tail exponent (2p-1)*rate stays "
            "positive for every rate > 0 because the kernel envelopes "
            "do not decay",
            None,
            ((2.0 * d.p - 1.0) * float(RATE_GRID[0]) - slowest,),
        )
    top = cap if cap < math.inf else float(RATE_GRID[-1])
    if floor > top:
        return _refusal(
            f"no admissible rate: the tail exponents need rate >= {floor:.6g}, "
            f"above the largest admissible rate {top:.6g}",
            None,
            _tail_exponents(terms, top),
        )
    lo, hi = _coefficient_bracket(data.initial)
    total = d.c0 + d.c1 + d.c2
    state_total = d.c1 + d.c2

    if state_total == 0.0:
        # Pure forcing: the condition is total * c <= rate, satisfiable
        # for every rate, so the smallest admissible grid rate wins.  The
        # coefficient sits at half its feasible range to stay clear of
        # equality knife edges.
        rate = float(RATE_GRID[np.searchsorted(RATE_GRID, floor)])
        if total > 0.0:
            coefficient = 0.5 * min(rate / total, hi)
        else:
            coefficient = 0.5 * hi if data.initial > 0.0 else 1.0
    elif d.p > 0.5:
        # The level function h(c) = total*c + state_total*c**(1-2p) is
        # convex with its minimum where h'(c) = 0; the rate is the cap.
        c_star = ((2.0 * d.p - 1.0) * state_total / total) ** (1.0 / (2.0 * d.p))
        coefficient = min(hi, max(lo, c_star))  # a NaN c* (inf/inf) lands on lo
        level = total * coefficient + state_total * _power(coefficient, 1.0 - 2.0 * d.p)
        if level > cap:
            return _refusal(
                f"level condition failed: min h = {level:.6g} exceeds the largest "
                f"admissible rate {cap:.6g} (best margin {cap - level:.6g})",
                cap - level,
                tuple(slope * cap - decay for _, state, slope, decay in terms if state),
            )
        rate = cap
    else:
        # p <= 1/2: h is non-decreasing and does not depend on the rate,
        # so the coefficient is the bracket's left end and the rate the
        # first grid rate at or above both h and the floor.
        coefficient = lo
        level = total * lo + state_total * lo ** (1.0 - 2.0 * d.p)
        i = int(np.searchsorted(RATE_GRID, max(level, floor)))
        if i == len(RATE_GRID):
            return _refusal(
                f"level condition failed on the whole rate grid: min h = {level:.6g} "
                f"exceeds {top:.6g} (best margin {top - level:.6g})",
                top - level,
                (),
            )
        rate = float(RATE_GRID[i])
    return check_weight(data, family(coefficient, rate))


def search_exponential(data: InequalityData) -> Certificate:
    """Search the family w(t) = c * exp(-rate*t) for a certificate.

    Admissible rates keep every tail exponent non-positive.  For p > 1/2
    the state terms cap the rate at min(active kernel decay rates)/(2p-1);
    the search takes that cap, with the coefficient minimizing the level
    function, c* = ((2p-1)*(c1+c2)/(c0+c1+c2))**(1/(2p)), clipped to the
    admissible bracket.  For p <= 1/2 the level function is
    non-decreasing, so the coefficient is the bracket's left end and the
    rate the first point of RATE_GRID at or above its level (slowest
    certified growth on the grid).  A refusal is a verdict, not an error.
    """
    return _search(data, ExponentialWeight)


def search_power(data: InequalityData) -> Certificate:
    """Search the family w(t) = c * (1+t)**(-rate) for a certificate.

    Requires power-law decay data.  This is :func:`search_exponential`
    in log-time tau = log(1+t), where a decay order e_i is the
    exponential rate e_i - 1; orders below 1 put a floor under the rate.
    """
    return _search(data, PowerWeight)


# ---------------------------------------------------------------------------
# Trajectory verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    holds: bool
    min_slack: float
    worst_index: int
    worst_t: float
    worst_u: float
    worst_bound: float

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "min_slack": _json_float(self.min_slack),
            "worst_index": self.worst_index,
            "worst_t": self.worst_t,
            "worst_u": self.worst_u,
            "worst_bound": _json_float(self.worst_bound),
        }


def verify_solution_bound(traj: Trajectory, cert: Certificate) -> BoundReport:
    """Check |u_n| < bound(t_n) at every node of a completed trajectory
    (non-strict comparison when the certificate is non-strict)."""
    if not cert.certified:
        raise ValueError("certificate is not certified")
    if not isinstance(traj.status, Completed):
        raise ValueError("trajectory did not complete")
    t = traj.times()
    bound = cert.bound_values(t)
    slack = bound - np.abs(traj.values)
    k = int(np.argmin(slack))
    min_slack = float(slack[k])
    strict = cert.verdict.strict
    holds = bool(min_slack > 0.0) if strict else bool(min_slack >= 0.0)
    return BoundReport(
        holds=holds,
        min_slack=min_slack,
        worst_index=k,
        worst_t=float(t[k]),
        worst_u=float(traj.values[k]),
        worst_bound=float(bound[k]),
    )

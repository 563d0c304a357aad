"""Verifiable global growth bounds for the scalar differential inequality

    g'(t) <= -damping(t) * g(t) + gain(t, g(t)) + drive(t),    g(0) = initial,

where gain(t, .) is non-negative and non-decreasing on g >= 0.  A
certificate is a positive C1 weight function w(t) satisfying

    gain(t, 1/w(t)) + drive(t) <= (1/w(t)) * (damping(t) - w'(t)/w(t))

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
closed-form search serve both families, and every certificate rests on
the exponent comparison, which covers the whole half line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .expr import (
    Binary,
    Constant,
    Expr,
    Unary,
    Variable,
    evaluate,
    to_text,
)
from .model import ProblemSpec
from .solver import Completed, Trajectory

__all__ = [
    "ExponentialWeight",
    "PowerWeight",
    "ExponentialDecayData",
    "PowerDecayData",
    "InequalityData",
    "Certified",
    "Refused",
    "ExponentComparison",
    "Certificate",
    "BoundReport",
    "derive_inequality",
    "make_exponential_data",
    "make_power_data",
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


def _var_t() -> Expr:
    return Variable("t")


@dataclass(frozen=True)
class ExponentialWeight:
    """w(t) = coefficient * exp(-rate * t); implied bound exp(rate*t)/coefficient."""

    coefficient: float
    rate: float

    def __post_init__(self):
        if not (self.coefficient > 0.0 and self.rate > 0.0):
            raise ValueError("coefficient and rate must be > 0")

    def values(self, t):
        return self.coefficient * np.exp(-self.rate * np.asarray(t, dtype=float))

    def derivative_values(self, t):
        return -self.rate * self.values(t)

    def bound_values(self, t):
        with np.errstate(over="ignore"):
            return np.exp(self.rate * np.asarray(t, dtype=float)) / self.coefficient

    def bound_expr(self) -> Expr:
        grow = Unary("exp", Binary("mul", Constant(self.rate), _var_t()))
        return Binary("div", grow, Constant(self.coefficient))


@dataclass(frozen=True)
class PowerWeight:
    """w(t) = coefficient * (1+t)**(-rate); implied bound (1+t)**rate / coefficient."""

    coefficient: float
    rate: float

    def __post_init__(self):
        if not (self.coefficient > 0.0 and self.rate > 0.0):
            raise ValueError("coefficient and rate must be > 0")

    def values(self, t):
        return self.coefficient * (1.0 + np.asarray(t, dtype=float)) ** (-self.rate)

    def derivative_values(self, t):
        return -self.rate * self.coefficient * (1.0 + np.asarray(t, dtype=float)) ** (
            -self.rate - 1.0
        )

    def bound_values(self, t):
        with np.errstate(over="ignore"):
            return (1.0 + np.asarray(t, dtype=float)) ** self.rate / self.coefficient

    def bound_expr(self) -> Expr:
        grow = Binary("pow", Binary("add", Constant(1.0), _var_t()), Constant(self.rate))
        return Binary("div", grow, Constant(self.coefficient))


WeightFamily = Union[ExponentialWeight, PowerWeight]


# ---------------------------------------------------------------------------
# Inequality data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialDecayData:
    """Constants of exponential-decay data: drive and gain built from
    c0*e^(-b0 t) + c1*e^(-b1 t) + c2*e^(-b t) and (c1 e^(-b1 t) + c2 e^(-b t)) g^(2p)."""

    c0: float
    b0: float
    c1: float
    b1: float
    c2: float
    b: float
    p: float


@dataclass(frozen=True)
class PowerDecayData:
    """Power-law analogue with terms d_i * (1+t)**(-e_i)."""

    d0: float
    e0: float
    d1: float
    e1: float
    d2: float
    e2: float
    p: float


@dataclass(frozen=True)
class InequalityData:
    """Right-hand side of the growth inequality.

    ``gain`` is an expression in (t, u) where u stands for the state g;
    it must be non-negative and non-decreasing in u on the range checked
    (verified by sampling in :func:`check_weight`).  ``exp_data`` and
    ``power_data`` carry the structured decay constants that the margin
    and the exact tail check of each weight family are computed from.
    """

    damping: Expr
    gain: Expr
    drive: Expr
    initial: float
    exp_data: Optional[ExponentialDecayData] = None
    power_data: Optional[PowerDecayData] = None

    def __post_init__(self):
        if not (self.initial >= 0.0):
            raise ValueError("initial value must be >= 0")


def _decay_term(c: float, rate: float) -> Optional[Expr]:
    """c * exp(-rate * t), dropped when c = 0, constant when rate = 0."""
    if c == 0.0:
        return None
    if rate == 0.0:
        return Constant(c)
    decay = Unary("exp", Binary("mul", Constant(-rate), _var_t()))
    return Binary("mul", Constant(c), decay)


def _power_term(c: float, order: float) -> Optional[Expr]:
    """c * (1+t)**(-order), dropped when c = 0, constant when order = 0."""
    if c == 0.0:
        return None
    if order == 0.0:
        return Constant(c)
    base = Binary("add", Constant(1.0), _var_t())
    return Binary("mul", Constant(c), Binary("pow", base, Constant(-order)))


def _sum_terms(terms: list) -> Expr:
    terms = [term for term in terms if term is not None]
    if not terms:
        return Constant(0.0)
    total = terms[0]
    for term in terms[1:]:
        if isinstance(total, Constant) and isinstance(term, Constant):
            total = Constant(total.value + term.value)
        else:
            total = Binary("add", total, term)
    return total


def _state_gain(coefficient: Expr, two_p: float) -> Expr:
    if isinstance(coefficient, Constant) and coefficient.value == 0.0:
        return Constant(0.0)
    power = Binary("pow", Variable("u"), Constant(two_p))
    if isinstance(coefficient, Constant) and coefficient.value == 1.0:
        return power
    return Binary("mul", coefficient, power)


def derive_inequality(spec: ProblemSpec) -> InequalityData:
    """Translate a problem's decay envelopes into inequality data.

    The damping term is identically zero here; drive collects the three
    envelope decays, gain carries the state growth factor g**(2p), and
    the initial value is the exact |f(0)| (not the looser constant c0).
    """
    fe, ke = spec.forcing_env, spec.kernel_env
    drive = _sum_terms(
        [_decay_term(fe.c0, fe.b0), _decay_term(ke.c1, ke.b1), _decay_term(ke.c2, ke.b)]
    )
    gain_coef = _sum_terms([_decay_term(ke.c1, ke.b1), _decay_term(ke.c2, ke.b)])
    gain = _state_gain(gain_coef, 2.0 * ke.p)
    initial = abs(float(evaluate(spec.f, {"t": 0.0})))
    return InequalityData(
        damping=Constant(0.0),
        gain=gain,
        drive=drive,
        initial=initial,
        exp_data=ExponentialDecayData(
            c0=fe.c0, b0=fe.b0, c1=ke.c1, b1=ke.b1, c2=ke.c2, b=ke.b, p=ke.p
        ),
    )


def make_exponential_data(
    c0: float,
    b0: float,
    c1: float,
    b1: float,
    c2: float,
    b: float,
    p: float,
    initial: float,
) -> InequalityData:
    """Inequality data with exponential decay structure, built directly
    from constants (for certificates detached from any problem file)."""
    drive = _sum_terms([_decay_term(c0, b0), _decay_term(c1, b1), _decay_term(c2, b)])
    gain = _state_gain(_sum_terms([_decay_term(c1, b1), _decay_term(c2, b)]), 2.0 * p)
    return InequalityData(
        damping=Constant(0.0),
        gain=gain,
        drive=drive,
        initial=initial,
        exp_data=ExponentialDecayData(c0=c0, b0=b0, c1=c1, b1=b1, c2=c2, b=b, p=p),
    )


def make_power_data(
    d0: float,
    e0: float,
    d1: float,
    e1: float,
    d2: float,
    e2: float,
    p: float,
    initial: float,
) -> InequalityData:
    """Inequality data with power-law decay structure (1+t)**(-e_i)."""
    drive = _sum_terms([_power_term(d0, e0), _power_term(d1, e1), _power_term(d2, e2)])
    gain = _state_gain(_sum_terms([_power_term(d1, e1), _power_term(d2, e2)]), 2.0 * p)
    return InequalityData(
        damping=Constant(0.0),
        gain=gain,
        drive=drive,
        initial=initial,
        power_data=PowerDecayData(d0=d0, e0=e0, d1=d1, e1=e1, d2=d2, e2=e2, p=p),
    )


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
    the normalized condition attains its supremum at t = 0 and the grid
    check extends to the whole half line."""

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
    bound: Optional[Expr]

    @property
    def certified(self) -> bool:
        return isinstance(self.verdict, Certified)

    def bound_values(self, t) -> np.ndarray:
        if self.weight is None:
            raise ValueError("refused certificate carries no bound")
        return np.asarray(self.weight.bound_values(t), dtype=float)

    def to_dict(self) -> dict:
        out: dict = {
            "family": _family_name(self.weight),
            "verdict": "certified" if self.certified else "refused",
            "margin_min": _json_float(self.margin_min),
            "bound": to_text(self.bound) if self.bound is not None else None,
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


def _json_float(x: Optional[float]):
    if x is None:
        return None
    return x if math.isfinite(x) else repr(x)


def _refusal(reason: str, margin: Optional[float], exponents: tuple) -> Certificate:
    return Certificate(
        weight=None,
        verdict=Refused(reason),
        margin_min=margin,
        tail_check=ExponentComparison(exponents),
        bound=None,
    )


# ---------------------------------------------------------------------------
# Margin evaluation
# ---------------------------------------------------------------------------


def _log_time_data(d: PowerDecayData) -> ExponentialDecayData:
    """Power data in log-time tau = log(1+t): the change of variable
    multiplies each term by 1+t, and (1+t) * d * (1+t)**(-e) is
    d * exp(-(e-1) * tau)."""
    return ExponentialDecayData(
        c0=d.d0, b0=d.e0 - 1.0, c1=d.d1, b1=d.e1 - 1.0, c2=d.d2, b=d.e2 - 1.0, p=d.p
    )


def _reduction_data(data: InequalityData, family: type) -> ExponentialDecayData:
    """Exponential decay data in the weight family's own time variable:
    t for exponential weights, tau = log(1+t) for power weights."""
    if family is ExponentialWeight and data.exp_data is not None:
        return data.exp_data
    if family is PowerWeight and data.power_data is not None:
        return _log_time_data(data.power_data)
    kind = "exponential" if family is ExponentialWeight else "power-law"
    raise ValueError(f"{family.__name__} needs {kind} decay data")


def _reduction_terms(d: ExponentialDecayData):
    """(amplitude, state, slope, decay) for each active term of the
    normalized condition of the weight c * exp(-q*t),

        sum_i amplitude_i * (c**(1-2p) if state_i else c) / q
              * exp((slope_i * q - decay_i) * t) <= 1.

    Drive terms have slope -1 and state terms slope 2p-1; inactive
    envelope terms are dropped."""
    pairs = ((d.c0, d.b0), (d.c1, d.b1), (d.c2, d.b))
    drive = [(c, False, -1.0, decay) for c, decay in pairs if c > 0.0]
    state = [(c, True, 2.0 * d.p - 1.0, decay) for c, decay in pairs[1:] if c > 0.0]
    return drive + state


def _tail_exponents(terms, rate: float) -> tuple[float, ...]:
    return tuple(slope * rate - decay for _, _, slope, decay in terms)


def _margin_factored(d: ExponentialDecayData, weight: WeightFamily, t: np.ndarray) -> np.ndarray:
    """margin(t) = (q/c) * exp(q*tau) * (1 - normalized sum), with tau = t
    for exponential weights and tau = log(1+t), divided by 1+t, for
    power weights.

    The factored form never produces NaN: the factor > 0 may overflow to
    inf, and the normalized sum is exactly zero at equality.
    """
    power = isinstance(weight, PowerWeight)
    tau = np.log1p(t) if power else t
    q, c = weight.rate, weight.coefficient
    shrink = c ** (1.0 - 2.0 * d.p)
    total = np.zeros_like(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = (q / c) * np.exp(q * tau)
        for amplitude, state, slope, decay in _reduction_terms(d):
            coef = amplitude * (shrink if state else c) / q
            total = total + coef * np.exp((slope * q - decay) * tau)
        normalized = 1.0 - total
        # inf * 0 in the discarded branch of the where is masked out
        margin = np.where(normalized == 0.0, 0.0, factor * normalized)
    return margin / (1.0 + t) if power else margin


def _margin_generic(data: InequalityData, weight: WeightFamily, t: np.ndarray) -> np.ndarray:
    """The margin assembled from the damping, gain and drive expressions;
    the reference that the factored margin is tested against."""
    w = np.asarray(weight.values(t), dtype=float)
    if np.any(~np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("weight must be positive and finite on the grid")
    wp = np.asarray(weight.derivative_values(t), dtype=float)
    inv = 1.0 / w
    damping = np.asarray(evaluate(data.damping, {"t": t}), dtype=float)
    drive = np.asarray(evaluate(data.drive, {"t": t}), dtype=float)
    gain = np.asarray(evaluate(data.gain, {"t": t, "u": inv}), dtype=float)
    return inv * (damping - wp * inv) - gain - drive


def _check_gain_shape(data: InequalityData) -> None:
    """Sample the gain for non-negativity and monotonicity in the state."""
    probes_t = np.linspace(0.0, 10.0, 5)
    probes_g = np.array([0.0, 1e-3, 1.0, 1e3, 1e6])
    for t in probes_t:
        vals = np.asarray(
            evaluate(data.gain, {"t": float(t), "u": probes_g}), dtype=float
        )
        vals = np.broadcast_to(vals, probes_g.shape)
        if np.any(vals < -1e-12):
            raise ValueError("gain must be non-negative on g >= 0")
        if np.any(np.diff(vals) < -1e-9 * (1.0 + np.abs(vals[:-1]))):
            raise ValueError("gain must be non-decreasing in the state")


def check_weight(
    data: InequalityData,
    weight: WeightFamily,
    t_max: float = 50.0,
    n_samples: int = 5001,
) -> Certificate:
    """Check one candidate weight against the inequality data.

    The weight needs the matching decay data (``exp_data`` for an
    exponential weight, ``power_data`` for a power weight); otherwise
    this raises ValueError.  The margin

        (1/w) * (damping - w'/w) - gain(t, 1/w) - drive

    is evaluated in factored form on a uniform grid over [0, t_max];
    certification requires the minimum margin >= 0, the start condition
    w(0)*g(0) <= 1 (strict bound when < 1), and every tail exponent
    <= 0, which extends the condition from t = 0 to all t >= 0.
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be > 0")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    _check_gain_shape(data)
    d = _reduction_data(data, type(weight))
    grid = np.linspace(0.0, t_max, n_samples)
    margins = _margin_factored(d, weight, grid)
    tail = ExponentComparison(_tail_exponents(_reduction_terms(d), weight.rate))
    start = weight.coefficient * data.initial

    margin_min = float(np.min(margins))
    failures = []
    if not tail.passed:
        positive = [x for x in tail.exponents if x > 0.0]
        failures.append(f"positive tail exponent(s) {positive}")
    if margin_min < 0.0:
        worst = float(grid[int(np.argmin(margins))])
        failures.append(f"negative margin {margin_min:.6g} at t={worst:.6g}")
    if start > 1.0:
        failures.append(f"start condition failed: w(0)*g(0) = {start:.6g} > 1")

    if failures:
        verdict: Union[Certified, Refused] = Refused("; ".join(failures))
    else:
        verdict = Certified(strict=bool(start < 1.0))
    return Certificate(
        weight=weight,
        verdict=verdict,
        margin_min=margin_min,
        tail_check=tail,
        bound=weight.bound_expr(),
    )


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


def _coefficient_bracket(initial: float) -> tuple[float, float]:
    """Admissible weight coefficients: (0, 1/initial) from the strict
    start condition, clipped to a representable bracket."""
    if initial > 0.0:
        hi = (1.0 / initial) * (1.0 - 1e-12)
    else:
        hi = _COEFF_CAP
    lo = min(_COEFF_FLOOR, hi * 1e-3)
    return lo, hi


def _rate_interval(terms) -> tuple[float, float]:
    """(floor, cap) of the rates q keeping every tail exponent
    slope*q - decay non-positive.  Each exponent is linear in q: a
    negative slope bounds q below, a positive one above, and a constant
    positive exponent leaves no rate (cap = -inf)."""
    floor, cap = 0.0, math.inf
    for _, _, slope, decay in terms:
        if slope > 0.0:
            cap = min(cap, decay / slope)
        elif slope < 0.0:
            floor = max(floor, decay / slope)
        elif decay < 0.0:
            cap = -math.inf
    return floor, cap


def _search(data: InequalityData, family: type, t_max: float, n_samples: int) -> Certificate:
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
        coefficient = min(max(c_star, lo), hi)
        level = total * coefficient + state_total * coefficient ** (1.0 - 2.0 * d.p)
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
    return check_weight(data, family(coefficient, rate), t_max, n_samples)


def search_exponential(
    data: InequalityData, t_max: float = 50.0, n_samples: int = 5001
) -> Certificate:
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
    return _search(data, ExponentialWeight, t_max, n_samples)


def search_power(
    data: InequalityData, t_max: float = 50.0, n_samples: int = 5001
) -> Certificate:
    """Search the family w(t) = c * (1+t)**(-rate) for a certificate.

    Requires power-law decay data.  This is :func:`search_exponential`
    in log-time tau = log(1+t), where a decay order e_i is the
    exponential rate e_i - 1; orders below 1 put a floor under the rate.
    """
    return _search(data, PowerWeight, t_max, n_samples)


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

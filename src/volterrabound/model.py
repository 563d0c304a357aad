"""Problem definitions, their decay records, and numerical validation of
the decay hypotheses.

A problem is a forcing term f(t), a kernel a(t, s, u), and envelope
constants asserting exponential decay:

    |f(t)| + |f'(t)|          <= c0 * exp(-b0*t)
    |a(t, t, u)|              <= c1 * exp(-b1*t) * (1 + |u|**(2p))
    int_0^t |a_t(t, s, u)| ds <= c2 * exp(-b*t)  * (1 + |u(t)|**(2p))
    a_u(t, s, u)              >= 0

The seven constants are held in one :class:`ExponentialDecayData`
record, from the problem file to the growth inequality and its
majorant; :class:`PowerDecayData` is its power-law analogue, used by
certificates detached from any problem file.  The certificate
machinery downstream consumes only these constants;
:func:`validate_decay` checks, by deterministic sampling, that the
constants actually bound the declared expressions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .expr import (
    EvalDomainError,
    Expr,
    ExprError,
    differentiate,
    evaluate,
    parse,
    variables,
)

__all__ = [
    "ExponentialDecayData",
    "PowerDecayData",
    "ProblemSpec",
    "HypothesisCheck",
    "ValidationReport",
    "VariableScopeError",
    "ProblemFileError",
    "build_problem",
    "validate_decay",
    "problem_from_dict",
    "load_problem",
]

_SIMPSON_PANELS = 200  # composite Simpson resolution for the kernel-variation integral
_T_SAMPLES = 201
_U_SAMPLES = 41
_MONOTONE_S_SAMPLES = 51
_MONOTONE_BLOCK = 16  # t values per evaluation of a_u
_PROBLEM_CACHE = 32  # problems build_problem keeps per process


class VariableScopeError(ValueError):
    """An expression uses a variable outside its allowed scope."""


class ProblemFileError(ValueError):
    """A problem file is missing fields or carries invalid values."""


def _require_finite(**constants: float) -> None:
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _decay_sums(pairs, decay, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """drive(t) and k(t) on an array of times: drive sums all three terms
    (amplitude, rate) of ``pairs``, in order, and k the last two.  Zero
    amplitudes are left out, so a term that overflows never meets a zero
    factor."""
    drive = k = np.zeros_like(t)
    with np.errstate(over="ignore"):
        for i, (amplitude, rate) in enumerate(pairs):
            if amplitude != 0.0:
                term = amplitude * decay(rate)
                drive = drive + term
                if i > 0:
                    k = k + term
    return drive, k


def _check_constants(record, amplitudes: tuple[str, ...]) -> None:
    """Finite constants, non-negative amplitudes and p > 0: then the gain
    k(t) * g**(2p) is non-negative and non-decreasing in g >= 0."""
    _require_finite(**asdict(record))
    for name in amplitudes:
        if not (getattr(record, name) >= 0.0):
            raise ValueError(f"{name} must be >= 0")
    if not (record.p > 0.0):
        raise ValueError("p must be > 0")


@dataclass(frozen=True)
class ExponentialDecayData:
    """Exponential decay constants of a problem's envelopes and of its
    growth inequality: drive(t) = c0*e^(-b0 t) + c1*e^(-b1 t) + c2*e^(-b t)
    and k(t) = c1*e^(-b1 t) + c2*e^(-b t).

    Rates may be negative here (power data in log time needs them); a
    problem envelope must also have b0, b1, b >= 0, which
    :func:`build_problem` checks."""

    c0: float
    b0: float
    c1: float
    b1: float
    c2: float
    b: float
    p: float

    def __post_init__(self):
        _check_constants(self, ("c0", "c1", "c2"))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        return ((self.c0, self.b0), (self.c1, self.b1), (self.c2, self.b))

    def tabulate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """drive(t) and k(t) on an array of times."""
        return _decay_sums(self.pairs(), lambda rate: np.exp(-rate * t), t)


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

    def __post_init__(self):
        _check_constants(self, ("d0", "d1", "d2"))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        return ((self.d0, self.e0), (self.d1, self.e1), (self.d2, self.e2))

    def tabulate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """drive(t) and k(t) on an array of times."""
        return _decay_sums(self.pairs(), lambda order: np.power(1.0 + t, -order), t)


DecayData = Union[ExponentialDecayData, PowerDecayData]


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem with symbolically precomputed derivatives.

    All grids downstream start at t0 = 0.
    """

    f: Expr
    f_prime: Expr
    a: Expr
    a_t: Expr
    a_u: Expr
    envelope: ExponentialDecayData

    # Kept in the instance __dict__, as Expr keeps its evaluators.
    @cached_property
    def _stepper(self):
        """The solver's step functions, generated on first use."""
        from .solver import _Stepper

        return _Stepper(self)


def build_problem(f_text: str, a_text: str, envelope: ExponentialDecayData) -> ProblemSpec:
    """Parse the forcing and kernel, derive f', a_t and a_u symbolically.

    The forcing may mention only t; the kernel only t, s and u.  The
    envelope's decay rates b0, b1 and b must be >= 0 (ValueError).  Parse
    errors bubble up as :class:`ExprSyntaxError`, scope violations raise
    :class:`VariableScopeError`.

    Equal arguments (constants compared by repr, so 1 and 1.0 differ)
    return the same shared, immutable spec, with whatever it has
    generated: the last 32 problems are kept per process.
    """
    return _build_problem(f_text, a_text, envelope, repr(envelope))


@lru_cache(maxsize=_PROBLEM_CACHE)
def _build_problem(f_text, a_text, envelope, envelope_repr) -> ProblemSpec:
    """:func:`build_problem`, cached; ``envelope_repr`` keeps equal
    envelopes with different reprs apart."""
    for name in ("b0", "b1", "b"):
        if not (getattr(envelope, name) >= 0.0):
            raise ValueError(f"{name} must be >= 0")
    f = parse(f_text)
    a = parse(a_text)
    extra_f = variables(f) - {"t"}
    if extra_f:
        raise VariableScopeError(
            f"forcing may depend on t only; found {sorted(extra_f)} in {f_text!r}"
        )
    return ProblemSpec(
        f=f,
        f_prime=differentiate(f, "t"),
        a=a,
        a_t=differentiate(a, "t"),
        a_u=differentiate(a, "u"),
        envelope=envelope,
    )


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    """Worst-case slack of one decay hypothesis over the sample grid."""

    name: str
    margin: float
    point: dict

    @property
    def passed(self) -> bool:
        """True exactly when the worst margin is >= 0."""
        return self.margin >= 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "margin": _json_float(self.margin),
            "point": {k: _json_float(v) if isinstance(v, float) else v for k, v in self.point.items()},
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}


def _json_float(x: Optional[float]):
    """A float for JSON: non-finite values as their repr, None as null."""
    if x is None:
        return None
    return x if math.isfinite(x) else repr(x)


def validate_decay(spec: ProblemSpec, t_max: float, u_max: float) -> ValidationReport:
    """Sample the decay hypotheses on a deterministic grid.

    t runs over 201 uniform samples on [0, t_max]; u over 41 on
    [-u_max, u_max] where a state enters, and s over 51 on [0, t] for
    a_u.  The kernel-variation integral is taken along the worst
    constant state profiles u(s) = +u_max and u(s) = -u_max (the true
    profile is unknown at validation time) using composite Simpson on
    200 panels.  Each hypothesis gives one margin per sample, and its
    check reports the smallest at the first sample that attains it, in
    t-major order; a NaN margin (inf - inf) is skipped.  A domain error
    fails its hypothesis with margin -inf and the error text as its
    point; the text names the first node, in evaluation order, that
    fails on the samples evaluated together (a hypothesis's whole grid,
    or one kernel-monotone block of t values).  Identical inputs
    produce bit-identical reports.  ``t_max`` must be finite and
    ``u_max`` at most half the largest float, past which the width of
    [-u_max, u_max] overflows; otherwise this raises ValueError.
    """
    half = sys.float_info.max / 2
    if not (0.0 < t_max < math.inf and 0.0 < u_max <= half):
        raise ValueError(f"t_max must be finite and > 0, and u_max in (0, {half!r}]")
    env = spec.envelope
    ts = np.linspace(0.0, t_max, _T_SAMPLES)
    us = np.linspace(-u_max, u_max, _U_SAMPLES)
    two_p = 2.0 * env.p
    try:
        growth = 1.0 + u_max**two_p
    except OverflowError:
        raise OverflowError(
            f"p = {env.p!r} is too large: u_max**(2p) overflows for u_max = {u_max!r}"
        ) from None

    hypotheses = {
        "forcing-decay": lambda: _forcing_decay(spec, env, ts),
        "kernel-diagonal": lambda: _kernel_diagonal(spec, env, ts, us, two_p),
        "kernel-variation": lambda: _kernel_variation(spec, env, ts, u_max, growth),
        "kernel-monotone": lambda: _kernel_monotone(spec, ts, us),
    }
    checks = []
    # An infinite envelope bounds anything; one against an infinite
    # integral leaves a NaN margin, which _worst skips.
    with np.errstate(over="ignore", invalid="ignore"):
        for name, margins_and_point in hypotheses.items():
            try:
                checks.append(_worst(name, *margins_and_point()))
            except EvalDomainError as exc:
                checks.append(HypothesisCheck(name, -math.inf, {"error": str(exc)}))
    return ValidationReport(checks=tuple(checks))


def _worst(name: str, margins: np.ndarray, point: dict) -> HypothesisCheck:
    """The check at the first smallest margin in C (t-major) order, NaN
    read as +inf; ``point`` maps each coordinate name to an array that
    broadcasts against ``margins``."""
    margins = np.where(np.isnan(margins), math.inf, margins)
    k = np.unravel_index(int(np.argmin(margins)), margins.shape)
    at = {key: float(np.broadcast_to(axis, margins.shape)[k]) for key, axis in point.items()}
    return HypothesisCheck(name, float(margins[k]), at)


def _forcing_decay(spec, env, ts):
    fv = np.abs(evaluate(spec.f, {"t": ts})) + np.abs(evaluate(spec.f_prime, {"t": ts}))
    return env.c0 * np.exp(-env.b0 * ts) - fv, {"t": ts}


def _kernel_diagonal(spec, env, ts, us, two_p):
    tt, uu = ts[:, None], us[None, :]
    av = np.abs(evaluate(spec.a, {"t": tt, "s": tt, "u": uu}))
    bound = env.c1 * np.exp(-env.b1 * tt) * (1.0 + np.abs(uu) ** two_p)
    return bound - av, {"t": tt, "u": uu}


def _kernel_variation(spec, env, ts, u_max, growth):
    """One evaluation of a_t per profile, on stacked s-rows that each come
    from their own np.linspace(0, t): one linspace over the t column
    rounds differently.  The envelope takes math.exp per t, which numpy's
    exp does not match in the last bit on every input."""
    w = np.ones(_SIMPSON_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    tt = ts[:, None]
    s_rows = np.array([np.linspace(0.0, t, _SIMPSON_PANELS + 1) for t in ts.tolist()])
    scale = ts / _SIMPSON_PANELS / 3.0
    profiles = np.array([u_max, -u_max])
    integrals = np.column_stack([
        scale * np.sum(w * np.abs(evaluate(spec.a_t, {"t": tt, "s": s_rows, "u": u})), axis=-1)
        for u in profiles.tolist()
    ])
    envelope = np.array([env.c2 * math.exp(-env.b * t) * growth for t in ts.tolist()])
    return envelope[:, None] - integrals, {"t": tt, "profile": profiles}


def _kernel_monotone(spec, ts, us):
    """The smallest sampled a_u at each t is its margin: the verdict is
    exactly the sign of the minimum.  a_u is evaluated once per block of
    _MONOTONE_BLOCK t values, on stacked s-rows that each come from their
    own np.linspace(0, t), and each row's first minimum in (s, u) order
    is taken, as one evaluation per t took it.  Blocks, because on the
    fully stacked (201, 51, 41) grid every intermediate array of the
    evaluator would take 3.4 MB; a block's take about 270 kB."""
    shape = (_MONOTONE_S_SAMPLES, len(us))
    minima, s_at, u_at = [], [], []
    for start in range(0, len(ts), _MONOTONE_BLOCK):
        block = ts[start : start + _MONOTONE_BLOCK]
        s_rows = np.array([np.linspace(0.0, t, _MONOTONE_S_SAMPLES) for t in block.tolist()])
        vals = np.broadcast_to(
            evaluate(spec.a_u, {"t": block[:, None, None], "s": s_rows[:, :, None], "u": us}),
            (len(block),) + shape,
        ).reshape(len(block), -1)
        rows, first = np.arange(len(block)), np.argmin(vals, axis=1)
        i, j = np.unravel_index(first, shape)
        minima.append(vals[rows, first])
        s_at.append(s_rows[rows, i])
        u_at.append(us[j])
    return np.concatenate(minima), {"t": ts, "s": np.concatenate(s_at), "u": np.concatenate(u_at)}


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("f", "a", "c0", "b0", "c1", "b1", "c2", "b", "p")


def problem_from_dict(data: dict) -> ProblemSpec:
    """Build a problem from the documented JSON schema.

    Required keys: f, a (expression strings) and the envelope constants
    c0, b0, c1, b1, c2, b, p (JSON numbers; a boolean is not one).
    Unknown keys are ignored, which keeps fixtures free to carry
    comments.
    """
    missing = [k for k in _REQUIRED_FIELDS if k not in data]
    if missing:
        raise ProblemFileError(f"missing fields: {', '.join(missing)}")
    numbers = {}
    for name in _REQUIRED_FIELDS[2:]:
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProblemFileError(f"{name} must be a number, got {value!r}")
        try:
            numbers[name] = float(value)
        except OverflowError:  # an integer past the binary64 range
            raise ProblemFileError(f"{name} must be a finite number, got an integer too large "
                                   "for a float") from None
    if not isinstance(data["f"], str) or not isinstance(data["a"], str):
        raise ProblemFileError("fields 'f' and 'a' must be expression strings")
    try:
        return build_problem(data["f"], data["a"], ExponentialDecayData(**numbers))
    except (ValueError, ExprError) as exc:
        raise ProblemFileError(str(exc)) from exc


def load_problem(path: Union[str, Path]) -> ProblemSpec:
    """Load a problem file (JSON, schema in docs/problem-schema.md)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ProblemFileError(f"{path} is not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    return problem_from_dict(data)

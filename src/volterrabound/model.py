"""Problem definitions and numerical validation of their decay hypotheses.

A problem is a forcing term f(t), a kernel a(t, s, u), and envelope
constants asserting exponential decay:

    |f(t)| + |f'(t)|          <= c0 * exp(-b0*t)
    |a(t, t, u)|              <= c1 * exp(-b1*t) * (1 + |u|**(2p))
    int_0^t |a_t(t, s, u)| ds <= c2 * exp(-b*t)  * (1 + |u(t)|**(2p))
    a_u(t, s, u)              >= 0

The certificate machinery downstream consumes only the envelope
constants; :func:`validate_decay` checks, by deterministic sampling,
that the constants actually bound the declared expressions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    "ForcingEnvelope",
    "KernelEnvelope",
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
_DEFAULT_T_SAMPLES = 201
_DEFAULT_U_SAMPLES = 41
_MONOTONE_S_SAMPLES = 51


class VariableScopeError(ValueError):
    """An expression uses a variable outside its allowed scope."""


class ProblemFileError(ValueError):
    """A problem file is missing fields or carries invalid values."""


def _require_finite(**constants: float) -> None:
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ForcingEnvelope:
    """Exponential envelope c0 * exp(-b0*t) on |f| + |f'|."""

    c0: float
    b0: float

    def __post_init__(self):
        _require_finite(c0=self.c0, b0=self.b0)
        if not (self.c0 >= 0.0):
            raise ValueError("c0 must be >= 0")
        if not (self.b0 >= 0.0):
            raise ValueError("b0 must be >= 0")


@dataclass(frozen=True)
class KernelEnvelope:
    """Envelopes on the kernel diagonal and its t-derivative integral.

    The pair (c1, b1) bounds |a(t,t,u)|, the pair (c2, b) bounds the
    integral of |a_t|; both relative to the growth factor 1 + |u|**(2p).
    """

    c1: float
    b1: float
    c2: float
    b: float
    p: float

    def __post_init__(self):
        _require_finite(c1=self.c1, b1=self.b1, c2=self.c2, b=self.b, p=self.p)
        if not (self.c1 >= 0.0 and self.c2 >= 0.0):
            raise ValueError("c1 and c2 must be >= 0")
        if not (self.b1 >= 0.0 and self.b >= 0.0):
            raise ValueError("b1 and b must be >= 0")
        if not (self.p > 0.0):
            raise ValueError("p must be > 0")


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
    forcing_env: ForcingEnvelope
    kernel_env: KernelEnvelope


def build_problem(
    f_text: str,
    a_text: str,
    forcing_env: ForcingEnvelope,
    kernel_env: KernelEnvelope,
) -> ProblemSpec:
    """Parse the forcing and kernel, derive f', a_t and a_u symbolically.

    The forcing may mention only t; the kernel only t, s and u.  Parse
    errors bubble up as :class:`ExprSyntaxError`, scope violations raise
    :class:`VariableScopeError`.
    """
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
        forcing_env=forcing_env,
        kernel_env=kernel_env,
    )


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisCheck:
    """Worst-case slack of one decay hypothesis over the sample grid.

    ``passed`` is True exactly when the worst margin is >= 0.
    """

    name: str
    margin: float
    point: dict
    passed: bool

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


def _failed_check(name: str, exc: EvalDomainError) -> HypothesisCheck:
    return HypothesisCheck(name=name, margin=float("-inf"), point={"error": str(exc)}, passed=False)


def validate_decay(
    spec: ProblemSpec,
    t_max: float,
    u_max: float,
    n_samples: int = _DEFAULT_T_SAMPLES,
    u_samples: int = _DEFAULT_U_SAMPLES,
) -> ValidationReport:
    """Sample the decay hypotheses on a deterministic grid.

    t runs over a uniform grid on [0, t_max]; u over [-u_max, u_max]
    where a state enters.  The kernel-variation integral is taken along
    the worst constant state profiles u(s) = +u_max and u(s) = -u_max
    (the true profile is unknown at validation time) using composite
    Simpson on 200 panels.  Identical inputs produce bit-identical
    reports.
    """
    if not (t_max > 0.0 and u_max > 0.0):
        raise ValueError("t_max and u_max must be > 0")
    if n_samples < 2 or u_samples < 2:
        raise ValueError("need at least 2 samples per axis")

    env_f, env_k = spec.forcing_env, spec.kernel_env
    ts = np.linspace(0.0, t_max, n_samples)
    us = np.linspace(-u_max, u_max, u_samples)
    two_p = 2.0 * env_k.p
    try:
        growth = 1.0 + u_max**two_p
    except OverflowError:
        raise OverflowError(
            f"p = {env_k.p!r} is too large: u_max**(2p) overflows for u_max = {u_max!r}"
        ) from None

    checks = [
        _check_forcing_decay(spec, env_f, ts),
        _check_kernel_diagonal(spec, env_k, ts, us, two_p),
        _check_kernel_variation(spec, env_k, ts, u_max, growth),
        _check_kernel_monotone(spec, ts, us),
    ]
    return ValidationReport(checks=tuple(checks))


def _check_forcing_decay(spec, env_f, ts) -> HypothesisCheck:
    name = "forcing-decay"
    try:
        fv = np.abs(np.asarray(evaluate(spec.f, {"t": ts}))) + np.abs(
            np.asarray(evaluate(spec.f_prime, {"t": ts}))
        )
    except EvalDomainError as exc:
        return _failed_check(name, exc)
    bound = env_f.c0 * np.exp(-env_f.b0 * ts)
    margins = np.broadcast_to(bound - fv, ts.shape)
    k = int(np.argmin(margins))
    m = float(margins[k])
    return HypothesisCheck(name, m, {"t": float(ts[k])}, m >= 0.0)


def _check_kernel_diagonal(spec, env_k, ts, us, two_p) -> HypothesisCheck:
    name = "kernel-diagonal"
    tt = ts[:, None]
    uu = us[None, :]
    try:
        av = np.abs(np.asarray(evaluate(spec.a, {"t": tt, "s": tt, "u": uu})))
    except EvalDomainError as exc:
        return _failed_check(name, exc)
    with np.errstate(over="ignore"):  # an infinite envelope bounds anything
        bound = env_k.c1 * np.exp(-env_k.b1 * tt) * (1.0 + np.abs(uu) ** two_p)
    margins = np.broadcast_to(bound - av, (len(ts), len(us)))
    i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
    m = float(margins[i, j])
    return HypothesisCheck(name, m, {"t": float(ts[i]), "u": float(us[j])}, m >= 0.0)


def _check_kernel_variation(spec, env_k, ts, u_max, growth) -> HypothesisCheck:
    name = "kernel-variation"
    w = np.ones(_SIMPSON_PANELS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    worst = (math.inf, 0.0, u_max)
    try:
        for t in ts:
            s_nodes = np.linspace(0.0, float(t), _SIMPSON_PANELS + 1)
            scale = (float(t) / _SIMPSON_PANELS) / 3.0
            for profile in (u_max, -u_max):
                vals = np.abs(
                    np.asarray(evaluate(spec.a_t, {"t": float(t), "s": s_nodes, "u": profile}))
                )
                integral = scale * float(np.sum(w * vals))
                margin = env_k.c2 * math.exp(-env_k.b * float(t)) * growth - integral
                if margin < worst[0]:
                    worst = (margin, float(t), profile)
    except EvalDomainError as exc:
        return _failed_check(name, exc)
    m = float(worst[0])
    return HypothesisCheck(name, m, {"t": worst[1], "profile": worst[2]}, m >= 0.0)


def _check_kernel_monotone(spec, ts, us) -> HypothesisCheck:
    name = "kernel-monotone"
    worst = (math.inf, 0.0, 0.0, 0.0)
    uu = us[None, :]
    try:
        for t in ts:
            s_nodes = np.linspace(0.0, float(t), _MONOTONE_S_SAMPLES)[:, None]
            vals = np.broadcast_to(
                np.asarray(evaluate(spec.a_u, {"t": float(t), "s": s_nodes, "u": uu})),
                (_MONOTONE_S_SAMPLES, len(us)),
            )
            i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
            m = float(vals[i, j])
            if m < worst[0]:
                worst = (m, float(t), float(s_nodes[i, 0]), float(us[j]))
    except EvalDomainError as exc:
        return _failed_check(name, exc)
    # The verdict is exactly the sign of the minimum sampled a_u.
    m = float(worst[0])
    return HypothesisCheck(name, m, {"t": worst[1], "s": worst[2], "u": worst[3]}, m >= 0.0)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("f", "a", "c0", "b0", "c1", "b1", "c2", "b", "p")


def problem_from_dict(data: dict) -> ProblemSpec:
    """Build a problem from the documented JSON schema.

    Required keys: f, a (expression strings) and the envelope constants
    c0, b0, c1, b1, c2, b, p.  Unknown keys are ignored, which keeps
    fixtures free to carry comments.
    """
    missing = [k for k in _REQUIRED_FIELDS if k not in data]
    if missing:
        raise ProblemFileError(f"missing fields: {', '.join(missing)}")
    try:
        numbers = {k: float(data[k]) for k in _REQUIRED_FIELDS[2:]}
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"envelope constants must be numbers: {exc}") from None
    if not isinstance(data["f"], str) or not isinstance(data["a"], str):
        raise ProblemFileError("fields 'f' and 'a' must be expression strings")
    try:
        forcing = ForcingEnvelope(c0=numbers["c0"], b0=numbers["b0"])
        kernel = KernelEnvelope(
            c1=numbers["c1"], b1=numbers["b1"], c2=numbers["c2"], b=numbers["b"], p=numbers["p"]
        )
        return build_problem(data["f"], data["a"], forcing, kernel)
    except (ValueError, ExprError) as exc:
        raise ProblemFileError(str(exc)) from exc


def load_problem(path: Union[str, Path]) -> ProblemSpec:
    """Load a problem file (JSON, schema in docs/problem-schema.md)."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemFileError(f"{path}: expected a JSON object")
    return problem_from_dict(data)

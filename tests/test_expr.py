import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterrabound.expr import (
    Binary,
    Constant,
    EvalDomainError,
    ExprSyntaxError,
    NonDifferentiableError,
    UnboundVariableError,
    Unary,
    Variable,
    differentiate,
    evaluate,
    parse,
    separate,
    to_text,
    variables,
)


def test_parse_kernel_structure():
    e = parse("exp(-(t+s))*atan(u)")
    assert e == Binary(
        "mul",
        Unary("exp", Unary("neg", Binary("add", Variable("t"), Variable("s")))),
        Unary("atan", Variable("u")),
    )


def test_parse_pow_structure():
    assert parse("u^2") == Binary("pow", Variable("u"), Constant(2.0))


def test_parse_div_structure():
    e = parse("1/(1-t)")
    assert e == Binary("div", Constant(1.0), Binary("sub", Constant(1.0), Variable("t")))


def test_unbalanced_paren_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("exp(-t")
    assert err.value.position == 6


def test_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as err:
        parse("t + x")
    assert "x" in err.value.message
    assert err.value.position == 4


def test_malformed_number():
    with pytest.raises(ExprSyntaxError):
        parse("1e+ * t")


def test_named_constants():
    assert evaluate(parse("pi"), {}) == math.pi
    assert evaluate(parse("e"), {}) == math.e


@pytest.mark.parametrize(
    "text, bindings, expected",
    [
        ("u^2", {"u": 3.0}, 9.0),
        ("exp(0)", {}, 1.0),
        ("atan(1)", {}, math.pi / 4.0),
    ],
)
def test_evaluate_reference_values(text, bindings, expected):
    assert evaluate(parse(text), bindings) == pytest.approx(expected, rel=1e-15)


def test_subtraction_left_associative():
    assert evaluate(parse("7-4-2"), {}) == 1.0


def test_pow_right_associative():
    # 2^(3^2) = 512, not (2^3)^2 = 64
    assert evaluate(parse("2^3^2"), {}) == 512.0


def test_pow_binds_tighter_than_unary_minus():
    assert evaluate(parse("-2^2"), {}) == -4.0


def test_negative_constant_exponent():
    assert evaluate(parse("2^-2"), {}) == 0.25


def test_non_constant_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("u^s")
    with pytest.raises(ExprSyntaxError):
        parse("2^(1+t)")
    # constant subexpressions fold and are accepted
    assert evaluate(parse("u^(1+1)"), {"u": 3.0}) == 9.0


def test_pow_node_requires_constant_exponent():
    with pytest.raises(ValueError):
        Binary("pow", Variable("u"), Variable("s"))


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("t+u"), {"t": 1.0})


@pytest.mark.parametrize(
    "text, bindings",
    [
        ("1/u", {"u": 0.0}),
        ("log(u)", {"u": 0.0}),
        ("log(u)", {"u": -1.0}),
        ("sqrt(u)", {"u": -1.0}),
        ("u^-1", {"u": 0.0}),
        ("u^0.5", {"u": -2.0}),
        ("exp(u)", {"u": 1e9}),
        ("u + 1", {"u": math.inf}),
    ],
)
def test_domain_errors(text, bindings):
    e = parse(text)
    with pytest.raises(EvalDomainError) as scalar:
        evaluate(e, bindings)
    with pytest.raises(EvalDomainError) as array:
        evaluate(e, {k: np.array([1.0, v]) for k, v in bindings.items()})
    assert scalar.value.node == array.value.node
    assert scalar.value.message == array.value.message


def test_domain_error_renders_its_node_only_when_printed(monkeypatch):
    import volterrabound.expr as expr_module

    calls = []

    def counting_to_text(e):
        calls.append(e)
        return to_text(e)

    monkeypatch.setattr(expr_module, "to_text", counting_to_text)
    e = parse("t + 1/(1-t)")
    try:
        evaluate(e, {"t": 1.0})
    except EvalDomainError as exc:
        caught = exc
    assert calls == []
    assert str(caught) == "division by zero in (1.0 / (1.0 - t))"
    assert caught.message == "division by zero"
    assert calls[0] is caught.node


def test_domain_error_carries_node():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse("t + 1/(1-t)"), {"t": 1.0})
    assert err.value.node == Binary(
        "div", Constant(1.0), Binary("sub", Constant(1.0), Variable("t"))
    )


def test_non_finite_binding_rejected():
    with pytest.raises(EvalDomainError):
        evaluate(parse("t"), {"t": math.inf})


def test_array_evaluation_matches_scalar():
    e = parse("exp(-(t+s))*atan(u) + sqrt(u^2 + 1)")
    ts = np.linspace(0.0, 3.0, 7)
    us = np.linspace(-2.0, 2.0, 7)
    batch = evaluate(e, {"t": ts, "s": 0.5, "u": us})
    for k in range(7):
        single = evaluate(e, {"t": float(ts[k]), "s": 0.5, "u": float(us[k])})
        assert batch[k] == single


@pytest.mark.parametrize(
    "text, var, point, expected",
    [
        ("exp(-2*t)", "t", {"t": 0.7}, lambda b: -2.0 * math.exp(-2.0 * b["t"])),
        ("atan(u)", "u", {"u": 1.3}, lambda b: 1.0 / (1.0 + b["u"] ** 2)),
        (
            "exp(-(t+s))*atan(u)",
            "s",
            {"t": 0.4, "s": 0.2, "u": 0.9},
            lambda b: -math.exp(-(b["t"] + b["s"])) * math.atan(b["u"]),
        ),
    ],
)
def test_differentiate_reference_identities(text, var, point, expected):
    d = differentiate(parse(text), var)
    assert evaluate(d, point) == pytest.approx(expected(point), rel=1e-14)


def test_differentiate_constant_and_other_variable():
    assert differentiate(parse("3.5"), "t") == Constant(0.0)
    assert differentiate(parse("s"), "t") == Constant(0.0)
    assert differentiate(parse("t"), "t") == Constant(1.0)


def test_abs_not_differentiable():
    with pytest.raises(NonDifferentiableError):
        differentiate(parse("abs(u)"), "u")
    # abs still evaluates
    assert evaluate(parse("abs(u)"), {"u": -2.0}) == 2.0


def test_safe_simplification_only():
    # derivative trees drop zero terms but never divide domains away
    d = differentiate(parse("u^2"), "u")
    assert evaluate(d, {"u": 5.0}) == 10.0
    d2 = differentiate(parse("1/(1-t)"), "t")
    with pytest.raises(EvalDomainError):
        evaluate(d2, {"t": 1.0})


def test_variables():
    assert variables(parse("exp(-(t+s))*atan(u)")) == {"t", "s", "u"}
    assert variables(parse("2*pi")) == frozenset()


# ---------------------------------------------------------------------------
# Random-tree properties
# ---------------------------------------------------------------------------


def _random_expr(rng, depth, leaf_vars=("t", "s", "u")):
    """Expression valid on bindings in [0.3, 2] with safe domains."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Constant(round(rng.uniform(0.3, 2.5), 6))
        return Variable(leaf_vars[rng.integers(0, len(leaf_vars))])
    kind = rng.integers(0, 9)
    child = _random_expr(rng, depth - 1, leaf_vars)
    if kind == 0:
        return Unary("neg", child)
    if kind == 1:
        return Unary("exp", Unary("neg", child) if rng.random() < 0.5 else child)
    if kind == 2:  # keep log arguments positive
        return Unary("log", Binary("add", Binary("pow", child, Constant(2.0)), Constant(0.5)))
    if kind == 3:
        return Unary("sin", child)
    if kind == 4:
        return Unary("cos", child)
    if kind == 5:
        return Unary("atan", child)
    if kind == 6:  # keep sqrt arguments positive
        return Unary("sqrt", Binary("add", Binary("pow", child, Constant(2.0)), Constant(0.3)))
    other = _random_expr(rng, depth - 1, leaf_vars)
    if kind == 7:
        op = ("add", "sub", "mul")[rng.integers(0, 3)]
        return Binary(op, child, other)
    # division with a denominator bounded away from zero
    denom = Binary("add", Binary("pow", other, Constant(2.0)), Constant(0.5))
    return Binary("div", child, denom)


def test_print_parse_round_trip_random_trees():
    rng = np.random.default_rng(20240817)
    bindings_list = [
        {"t": rng.uniform(0.3, 2.0), "s": rng.uniform(0.3, 2.0), "u": rng.uniform(0.3, 2.0)}
        for _ in range(5)
    ]
    for _ in range(300):
        e = _random_expr(rng, depth=4)
        text = to_text(e)
        e2 = parse(text)
        for b in bindings_list:
            v1 = evaluate(e, b)
            v2 = evaluate(e2, b)
            # identical evaluation order; bitwise equality expected
            assert v1 == v2, f"round trip changed value of {text}"


@given(st.floats(min_value=0.3, max_value=2.0), st.floats(min_value=0.3, max_value=2.0))
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
def test_print_parse_round_trip_fixed_tree(tv, uv):
    e = parse("exp(-(t+u))*atan(u) + u^2/(1+t)")
    assert evaluate(parse(to_text(e)), {"t": tv, "u": uv}) == evaluate(e, {"t": tv, "u": uv})


def central_difference(e, var, bindings, h=1e-6):
    up = dict(bindings)
    dn = dict(bindings)
    up[var] = bindings[var] + h
    dn[var] = bindings[var] - h
    return (evaluate(e, up) - evaluate(e, dn)) / (2.0 * h)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(5150)
    checked = 0
    while checked < 300:
        e = _random_expr(rng, depth=3)
        var = ("t", "s", "u")[rng.integers(0, 3)]
        point = {
            "t": rng.uniform(0.3, 2.0),
            "s": rng.uniform(0.3, 2.0),
            "u": rng.uniform(0.3, 2.0),
        }
        try:
            sym = evaluate(differentiate(e, var), point)
            fd = central_difference(e, var, point)
        except EvalDomainError:
            continue
        if abs(sym) > 1e6 or abs(fd) > 1e6:
            continue
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))
        checked += 1


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------


def _texts(terms):
    return [(to_text(outer), to_text(inner)) for outer, inner in terms]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("exp(-(t+s))*atan(u)", [("exp((t * -1.0))", "(exp((-s)) * atan(u))")]),
        ("exp(s-t)*atan(u)", [("exp((t * -1.0))", "(exp(s) * atan(u))")]),
        ("u^2", [("1.0", "(u ^ 2.0)")]),
        ("sin(t)", [("sin(t)", "1.0")]),
        ("(t-s)*u", [("t", "u"), ("1.0", "((-s) * u)")]),
        ("u/(1+t) - t/(1+s)", [("(1.0 / (1.0 + t))", "u"), ("t", "(-(1.0 / (1.0 + s)))")]),
    ],
)
def test_separate_structure(text, expected):
    assert _texts(separate(parse(text))) == expected


@pytest.mark.parametrize(
    "text",
    ["atan(t*s*u)", "exp(t*s)", "u/(t+s)", "(t+u)^2", "exp(-(t+s))*atan(u)*(1 + 0*atan(t*s))"],
)
def test_separate_refuses_factors_mixing_t(text):
    assert separate(parse(text)) is None


def test_separate_refuses_term_explosion():
    assert len(separate(parse("*".join(["(t+s)"] * 6)))) == 64
    assert separate(parse("*".join(["(t+s)"] * 7))) is None


def test_separate_reproduces_random_trees():
    rng = np.random.default_rng(2718)
    split = 0
    for _ in range(3000):
        e = _random_expr(rng, depth=4)
        names = variables(e)
        terms = separate(e)
        if terms is None or "t" not in names or names == {"t"}:
            continue  # refused, or t-free or t-only: one trivial term
        split += 1
        for outer, inner in terms:
            assert variables(outer) <= {"t"} and "t" not in variables(inner)
        for _ in range(3):
            point = {v: rng.uniform(0.3, 2.0) for v in ("t", "s", "u")}
            try:
                value = evaluate(e, point)
                parts = [evaluate(outer, point) * evaluate(inner, point) for outer, inner in terms]
            except EvalDomainError:
                continue
            scale = sum(abs(x) for x in parts) + abs(value)
            assert abs(sum(parts) - value) <= 1e-12 * scale, to_text(e)
    assert split > 50

"""Expression trees over the variables t, s and u.

Problem data (forcing terms, integral kernels) is written as plain text,
e.g. ``exp(-(t+s))*atan(u)``, and parsed into small immutable ASTs.  The
trees evaluate over floats or numpy arrays, differentiate symbolically,
and print back to parseable text.  The grammar is documented in
docs/grammar.md; the canonical printer emits a fully parenthesized form
that re-parses to an equivalent tree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Union

import numpy as np

__all__ = [
    "Expr",
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "parse",
    "evaluate",
    "differentiate",
    "to_text",
    "variables",
    "ExprError",
    "ExprSyntaxError",
    "UnboundVariableError",
    "EvalDomainError",
    "NonDifferentiableError",
]

VARIABLES = ("t", "s", "u")
UNARY_OPS = ("neg", "exp", "log", "sin", "cos", "atan", "sqrt", "abs")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

_FUNCTIONS = ("exp", "log", "sin", "cos", "atan", "sqrt", "abs")
_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}

Binding = Union[float, int, np.ndarray]


class ExprError(Exception):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Raised when a source string cannot be parsed.

    ``position`` is the 0-based character offset of the offending token
    (the end of input for truncated expressions).
    """

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"{message} (at position {position})")


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class EvalDomainError(ExprError):
    """Evaluation left the real domain (division by zero, log of a
    non-positive value, 0 raised to a negative power, overflow to
    non-finite).  Carries the offending node."""

    def __init__(self, node: "Expr", message: str):
        super().__init__(message)
        self.node = node
        self.message = message

    def __str__(self) -> str:
        # Rendered on demand: the solver catches and discards most of these.
        return f"{self.message} in {to_text(self.node)}"


class NonDifferentiableError(ExprError):
    def __init__(self, node: "Expr", message: str = "abs is not differentiable"):
        self.node = node
        super().__init__(f"{message}: {to_text(node)}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.  Instances are immutable and may
    be shared freely between threads; all operations on them are pure."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)

    # The compiled evaluators live in the instance __dict__, outside the
    # dataclass fields, so ==, hash and repr never see them.
    @cached_property
    def _scalar(self) -> Callable:
        return _compile(self, _SCALAR)

    @cached_property
    def _array(self) -> Callable:
        return _compile(self, _ARRAY)


@dataclass(frozen=True)
class Constant(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Variable(Expr):
    name: str

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ValueError(f"unknown variable {self.name!r}; expected one of {VARIABLES}")


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    child: Expr

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")
        # Constant exponents keep differentiation closed-form.
        if self.op == "pow" and not isinstance(self.right, Constant):
            raise ValueError("pow exponent must be a Constant node")


def variables(e: Expr) -> frozenset[str]:
    """Set of variable names occurring in ``e``."""
    if isinstance(e, Variable):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return variables(e.child)
    if isinstance(e, Binary):
        return variables(e.left) | variables(e.right)
    return frozenset()


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "lparen" | "rparen" | "eof"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if text[start:i] == ".":
                raise ExprSyntaxError(start, "malformed number")
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j >= n or not text[j].isdigit():
                    raise ExprSyntaxError(start, "malformed number")
                i = j
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(_Token("number", text[start:i], start))
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], start))
        else:
            raise ExprSyntaxError(i, f"unexpected character {ch!r}")
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent over the infix grammar.

    Precedence, tightest first: pow (right associative), unary minus,
    mul/div, add/sub (both left associative).
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.pos, f"expected {what}")
        return self.advance()

    def parse(self) -> Expr:
        e = self.additive()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprSyntaxError(tok.pos, f"unexpected {tok.text!r}")
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.multiplicative()
            e = Binary("add" if op == "+" else "sub", e, rhs)
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            e = Binary("mul" if op == "*" else "div", e, rhs)
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_pos = self.peek().pos
            exponent = self.unary()
            if variables(exponent):
                raise ExprSyntaxError(exp_pos, "pow exponent must be a constant expression")
            try:
                value = _compile(exponent, _SCALAR)({})
            except ExprError:
                raise ExprSyntaxError(exp_pos, "pow exponent does not evaluate to a finite constant") from None
            return Binary("pow", base, Constant(value))
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Constant(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("lparen", f"'(' after function '{name}'")
                arg = self.additive()
                self.expect("rparen", "')'")
                return Unary(name, arg)
            if name in VARIABLES:
                return Variable(name)
            if name in _NAMED_CONSTANTS:
                return Constant(_NAMED_CONSTANTS[name])
            raise ExprSyntaxError(tok.pos, f"unknown identifier {name!r}")
        if tok.kind == "lparen":
            self.advance()
            e = self.additive()
            self.expect("rparen", "')'")
            return e
        raise ExprSyntaxError(tok.pos, "expected an expression")


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` with the offending position for
    empty input, unbalanced parentheses, unknown identifiers, malformed
    numbers, and non-constant pow exponents.
    """
    if not text or not text.strip():
        raise ExprSyntaxError(0, "empty input")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, bindings: Mapping[str, Binding]):
    """Evaluate ``e`` with variable bindings.

    Bindings may be scalars or numpy arrays (broadcast elementwise).
    Scalars are computed with :mod:`math`, arrays with numpy; each tree
    is compiled once per kind and the result is kept on the node.  The
    result never silently carries NaN or Inf; any excursion outside the
    finite reals raises :class:`EvalDomainError` naming the node where
    it happened.
    """
    for v in bindings.values():
        if isinstance(v, np.ndarray):
            with np.errstate(all="ignore"):  # overflow is reported per node instead
                return e._array(bindings)
    return e._scalar(bindings)


class _Backend(NamedTuple):
    """How one kind of value is computed and checked."""

    functions: Mapping[str, Callable]  # every unary op, and "pow"
    any: Callable  # does an elementwise test hold anywhere
    finite: Callable  # is every element finite
    read: Callable  # converts one binding


_SCALAR = _Backend(
    {"neg": operator.neg, "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
     "atan": math.atan, "sqrt": math.sqrt, "abs": abs, "pow": math.pow},
    bool,
    math.isfinite,
    float,
)
_ARRAY = _Backend(
    {"neg": operator.neg, "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
     "atan": np.arctan, "sqrt": np.sqrt, "abs": np.abs, "pow": np.power},
    np.any,
    lambda v: np.isfinite(v).all(),
    lambda v: np.asarray(v, dtype=float) if isinstance(v, np.ndarray) else float(v),
)

_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}

# Unary ops whose result is checked for overflow, with the domain rules
# checked on the operand first, each as (comparison with 0.0 that puts
# the operand outside the domain, message).
_UNARY_RULES = {
    "exp": (),
    "log": ((operator.le, "log of a non-positive value"),),
    "sqrt": ((operator.lt, "sqrt of a negative value"),),
}
_ZERO_BASE = (operator.eq, "zero base with a negative exponent")
_NEGATIVE_BASE = (operator.lt, "negative base with a non-integer exponent")


def _compile(e: Expr, k: _Backend) -> Callable:
    """Turn ``e`` into a function of the bindings.

    Each node becomes one closure that calls its children's closures
    directly and checks its own domain rules, so evaluation costs one
    Python frame per tree level, as a recursive interpreter would.
    """
    if isinstance(e, Constant):
        value = e.value
        return lambda b: value
    anywhere, finite = k.any, k.finite
    if isinstance(e, Variable):
        name, read = e.name, k.read

        def variable(b):
            try:
                v = read(b[name])
            except KeyError:
                raise UnboundVariableError(name) from None
            if not finite(v):
                raise EvalDomainError(e, f"non-finite binding for '{name}'")
            return v

        return variable
    if isinstance(e, Binary) and e.op != "pow":
        left, right = _compile(e.left, k), _compile(e.right, k)
        fn, divides = _ARITHMETIC[e.op], e.op == "div"

        def arithmetic(b):
            x, y = left(b), right(b)
            if divides and anywhere(y == 0.0):
                raise EvalDomainError(e, "division by zero")
            v = fn(x, y)
            if not finite(v):
                raise EvalDomainError(e, "overflow")
            return v

        return arithmetic
    if isinstance(e, Binary):  # pow; the exponent is a Constant by construction
        c = e.right.value
        operand, fn, extra = _compile(e.left, k), k.functions["pow"], (c,)
        rules = ([_ZERO_BASE] if c < 0.0 else []) + ([] if c.is_integer() else [_NEGATIVE_BASE])
    elif isinstance(e, Unary):
        operand, fn, extra = _compile(e.child, k), k.functions[e.op], ()
        if e.op not in _UNARY_RULES:
            return lambda b: fn(operand(b))
        rules = _UNARY_RULES[e.op]
    else:
        raise TypeError(f"not an expression node: {e!r}")

    def checked(b):
        x = operand(b)
        for outside, message in rules:
            if anywhere(outside(x, 0.0)):
                raise EvalDomainError(e, message)
        try:
            v = fn(x, *extra)
        except (OverflowError, ValueError):  # math raises where numpy returns inf
            raise EvalDomainError(e, "overflow") from None
        if not finite(v):
            raise EvalDomainError(e, "overflow")
        return v

    return checked


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

# _binary and _neg build nodes with only the safe simplifications: 0*x -> 0,
# 1*x -> x, x+0 -> x, x-0 -> x, constant (op) constant -> folded constant.
# Nothing that could change the domain (no x/x -> 1, no 0/x -> 0).


_ONE = Constant(1.0)
_TWO = Constant(2.0)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Constant) and e.value == 1.0


def _binary(op: str, a: Expr, b: Expr) -> Expr:
    if op == "mul" and (_is_zero(a) or _is_zero(b)):
        return Constant(0.0)
    if (op == "add" and _is_zero(a)) or (op == "mul" and _is_one(a)):
        return b
    if (op in ("add", "sub") and _is_zero(b)) or (op == "mul" and _is_one(b)):
        return a
    node = Binary(op, a, b)
    if isinstance(a, Constant) and isinstance(b, Constant):
        try:
            return Constant(_compile(node, _SCALAR)({}))
        except ExprError:
            pass  # folding would hide a domain error; keep the node
    return node


def _neg(a: Expr) -> Expr:
    if isinstance(a, Constant):
        return Constant(-a.value)
    return Unary("neg", a)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``var``.

    Raises :class:`NonDifferentiableError` if ``e`` contains abs; the
    absolute value is handled numerically downstream, never symbolically.
    """
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}; expected one of {VARIABLES}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Variable):
        return Constant(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        if e.op == "abs":
            raise NonDifferentiableError(e)
        d = _diff(e.child, var)
        if _is_zero(d):
            return Constant(0.0)
        if e.op == "neg":
            return _neg(d)
        if e.op == "exp":
            return _binary("mul", d, Unary("exp", e.child))
        if e.op == "log":
            return _binary("div", d, e.child)
        if e.op == "sin":
            return _binary("mul", d, Unary("cos", e.child))
        if e.op == "cos":
            return _neg(_binary("mul", d, Unary("sin", e.child)))
        if e.op == "atan":
            return _binary("div", d, _binary("add", _ONE, _binary("pow", e.child, _TWO)))
        if e.op == "sqrt":
            return _binary("div", d, _binary("mul", _TWO, Unary("sqrt", e.child)))
    if isinstance(e, Binary):
        dl = _diff(e.left, var)
        dr = _diff(e.right, var)
        if e.op in ("add", "sub"):
            return _binary(e.op, dl, dr)
        if e.op == "mul":
            return _binary("add", _binary("mul", dl, e.right), _binary("mul", e.left, dr))
        if e.op == "div":
            if _is_zero(dl) and _is_zero(dr):
                return Constant(0.0)
            num = _binary("sub", _binary("mul", dl, e.right), _binary("mul", e.left, dr))
            return _binary("div", num, _binary("pow", e.right, _TWO))
        if e.op == "pow":
            c = e.right.value  # Constant by construction
            if _is_zero(dl) or c == 0.0:
                return Constant(0.0)
            power = _binary("pow", e.left, Constant(c - 1.0))
            return _binary("mul", _binary("mul", e.right, power), dl)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------

_MAX_TERMS = 64  # products of sums multiply their term counts; past this, refuse


def _times(a: Expr, b: Expr) -> Expr:
    """a * b, dropping factors of one (x * 1 == x exactly in binary64).
    Unlike _mul it never drops a factor times zero, whose domain errors
    the product must still raise."""
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Binary("mul", a, b)


def _summed(terms: list) -> Expr:
    total = _times(*terms[0])
    for outer, inner in terms[1:]:
        total = Binary("add", total, _times(outer, inner))
    return total


def separate(e: Expr, var: str = "t") -> list[tuple[Expr, Expr]] | None:
    """Write ``e`` as a sum of products, e = sum_k outer_k * inner_k,
    where each outer factor depends on ``var`` alone and no inner factor
    mentions ``var``.

    Sums and differences split into terms, products into factors (term by
    term), a quotient by a divisor that does not mix ``var`` with another
    variable onto the matching factor, and exp of a sum into the exp of
    its ``var`` part times the exp of the rest, so ``exp(-(t+s))`` is
    ``exp(-t) * exp(-s)``.  Returns None when some factor mixes ``var``
    with another variable (``atan(t*s)``), or when the expansion would
    exceed 64 terms.  The terms equal ``e`` up to rounding; either side
    may overflow where ``e`` does not, e.g. ``exp(s)`` from ``exp(s-t)``.
    """
    names = variables(e)
    if var not in names:
        return [(_ONE, e)]
    if names == {var}:
        return [(e, _ONE)]
    if isinstance(e, Unary) and e.op == "neg":
        terms = separate(e.child, var)
        return None if terms is None else [(outer, _neg(inner)) for outer, inner in terms]
    if isinstance(e, Unary) and e.op == "exp":
        terms = separate(e.child, var)
        if terms is None:
            return None
        # terms in var alone (constant inner), and terms free of var
        own = [term for term in terms if not variables(term[1])]
        rest = [term for term in terms if variables(term[1]) and not variables(term[0])]
        if len(own) + len(rest) < len(terms):
            return None
        return [(Unary("exp", _summed(own)), Unary("exp", _summed(rest)))]
    if not isinstance(e, Binary) or e.op == "pow":
        return None
    left = separate(e.left, var)
    if left is None:
        return None
    if e.op == "div":
        divisor = variables(e.right)
        if var not in divisor:
            return [(outer, Binary("div", inner, e.right)) for outer, inner in left]
        if divisor == {var}:
            return [(Binary("div", outer, e.right), inner) for outer, inner in left]
        return None
    right = separate(e.right, var)
    if right is None:
        return None
    if e.op == "add":
        terms = left + right
    elif e.op == "sub":
        terms = left + [(outer, _neg(inner)) for outer, inner in right]
    elif len(left) * len(right) <= _MAX_TERMS:
        terms = [(_times(a, c), _times(b, d)) for a, b in left for c, d in right]
    else:
        return None
    return terms if len(terms) <= _MAX_TERMS else None


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def to_text(e: Expr) -> str:
    """Canonical fully parenthesized rendering; re-parses to a tree with
    identical evaluation semantics."""
    if isinstance(e, Constant):
        return repr(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_text(e.child)})"
        return f"{e.op}({to_text(e.child)})"
    if isinstance(e, Binary):
        return f"({to_text(e.left)} {_BINARY_SYMBOL[e.op]} {to_text(e.right)})"
    raise TypeError(f"not an expression node: {e!r}")

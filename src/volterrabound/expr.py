"""Expression trees over the variables t, s and u.

Problem data (forcing terms, integral kernels) is written as plain text,
e.g. ``exp(-(t+s))*atan(u)``, and parsed into small immutable ASTs.  The
trees evaluate over floats or numpy arrays, differentiate symbolically,
and print back to parseable text.  The grammar is documented in
docs/grammar.md; the canonical printer emits a fully parenthesized form
that re-parses to an equivalent tree.

What each operator is lives in one row of ``_OPS``: how it is written,
its math and numpy functions, its domain rules, whether its result is
checked for overflow, and its derivative.  The parser, the printer, the
differentiator and the generated evaluators read that row, so a new
operator is one new row.
"""

from __future__ import annotations

import math
import re
from collections import Counter
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
_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Op(NamedTuple):
    """One operator: one row of ``_OPS``.  Each of its ``rules`` is
    ``(operand, comparison with 0.0 that puts that operand outside the
    domain, message, applies)``, tested in order before the result is
    computed; ``applies(node)`` says whether the rule holds for a node,
    None that it always does."""

    arity: int
    symbol: str | None  # written before or between the operands; None: written name(operand)
    scalar: Callable | None  # the math function; None: the symbol is the Python operator
    array: Callable | None  # the numpy function
    rules: tuple = ()
    checked: bool = False  # is the result tested for overflow; an operand in the domain may give inf
    derivative: Callable | None = None  # (*operands, *their derivatives) -> Expr; None: refused
    power: bool = False  # the right operand is a Constant exponent; the left one reads as an atom


_OPS = {
    "neg": _Op(1, "-", None, None, derivative=lambda x, d: _neg(d)),
    "exp": _Op(1, None, math.exp, np.exp, (), True, lambda x, d: _binary("mul", d, Unary("exp", x))),
    "log": _Op(1, None, math.log, np.log, ((0, "<=", "log of a non-positive value", None),),
               derivative=lambda x, d: _binary("div", d, x)),
    "sin": _Op(1, None, math.sin, np.sin, derivative=lambda x, d: _binary("mul", d, Unary("cos", x))),
    "cos": _Op(1, None, math.cos, np.cos,
               derivative=lambda x, d: _neg(_binary("mul", d, Unary("sin", x)))),
    "atan": _Op(1, None, math.atan, np.arctan,
                derivative=lambda x, d: _binary("div", d, _binary("add", _ONE, _binary("pow", x, _TWO)))),
    "sqrt": _Op(1, None, math.sqrt, np.sqrt, ((0, "<", "sqrt of a negative value", None),),
                derivative=lambda x, d: _binary("div", d, _binary("mul", _TWO, Unary("sqrt", x)))),
    "abs": _Op(1, None, abs, np.abs),
    "add": _Op(2, "+", None, None, (), True, lambda a, b, da, db: _binary("add", da, db)),
    "sub": _Op(2, "-", None, None, (), True, lambda a, b, da, db: _binary("sub", da, db)),
    "mul": _Op(2, "*", None, None, (), True,
               lambda a, b, da, db: _binary("add", _binary("mul", da, b), _binary("mul", a, db))),
    "div": _Op(2, "/", None, None, ((1, "==", "division by zero", None),), True,
               lambda a, b, da, db: _binary(
                   "div", _binary("sub", _binary("mul", da, b), _binary("mul", a, db)),
                   _binary("pow", b, _TWO))),
    # A zero exponent zeroes the outer product, and so the derivative.
    "pow": _Op(2, "^", math.pow, np.power,
               ((0, "==", "zero base with a negative exponent", lambda node: node.right.value < 0.0),
                (0, "<", "negative base with a non-integer exponent",
                 lambda node: not node.right.value.is_integer())),
               True, lambda a, b, da, db: _binary(
                   "mul", _binary("mul", b, _binary("pow", a, Constant(b.value - 1.0))), da), power=True),
}


def _op(node: Expr) -> _Op:
    if isinstance(node, (Unary, Binary)):
        return _OPS[node.op]
    raise TypeError(f"not an expression node: {node!r}")


def _written(name: str, symbol: str | None, operands: list) -> str:
    """``name(operands)``, or the operands after or around ``symbol``."""
    if symbol is None:
        return f"{name}({', '.join(operands)})"
    return symbol + operands[0] if len(operands) == 1 else f" {symbol} ".join(operands)


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
        # Rendered on demand: a caller that catches one rarely prints it.
        return f"{self.message} in {to_text(self.node)}"


class NonDifferentiableError(ExprError):
    def __init__(self, node: "Expr"):
        self.node = node
        super().__init__(f"{node.op} is not differentiable: {to_text(node)}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.  Instances are immutable and may
    be shared freely between threads; all operations on them are pure."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)

    # The generated evaluators live in the instance __dict__, outside the
    # dataclass fields, so ==, hash and repr never see them.
    @cached_property
    def scalar(self) -> Callable:
        """This tree as a function of positional floats ``(t, s, u)``,
        computed with :mod:`math` and checked as :func:`evaluate` checks
        it.  A position the tree does not read may hold anything; pass
        None there.  Generated on first use and kept on the node."""
        return _generate(self, _SCALAR)

    @cached_property
    def array(self) -> Callable:
        """The same over numpy arrays of floats (or floats), broadcast
        elementwise; call it under ``np.errstate(all="ignore")``, as
        :func:`evaluate` does, since overflow is reported per node."""
        return _generate(self, _ARRAY)


@dataclass(frozen=True)
class Constant(Expr):
    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite constant {value!r}")
        object.__setattr__(self, "value", value)


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
        if self.op not in _OPS or _OPS[self.op].arity != 1:
            raise ValueError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _OPS or _OPS[self.op].arity != 2:
            raise ValueError(f"unknown binary operator {self.op!r}")
        # Constant exponents keep differentiation closed-form.
        if _OPS[self.op].power and not isinstance(self.right, Constant):
            raise ValueError("pow exponent must be a Constant node")


def _children(node: Expr) -> tuple:
    if isinstance(node, Unary):
        return (node.child,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    return ()


def variables(e: Expr) -> frozenset[str]:
    """Set of variable names occurring in ``e``."""
    return _variable_sets([e])[id(e)]


def _variable_sets(roots: list) -> dict:
    """The variables each distinct node of ``roots`` reads, keyed by
    identity, from one post-order pass."""
    sets = {}
    for node in _post_order(roots):
        sets[id(node)] = (frozenset((node.name,)) if isinstance(node, Variable)
                          else frozenset().union(*[sets[id(child)] for child in _children(node)]))
    return sets


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


# One token after optional whitespace: a number as docs/grammar.md writes
# it, with ASCII digits and the exponent in its own group; a word; an
# operator or parenthesis; the end of the text; or any other character.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?P<exponent>[eE][+-]?[0-9]+)?)"
    r"|(?P<word>\w+)|(?P<symbol>[-+*/^()])|(?P<end>\Z)|(?P<other>.))"
)
_BINARY_NAME = {op.symbol: name for name, op in _OPS.items() if op.arity == 2}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, position)`` of each token, ending with the
    ``end`` token at ``len(text)``.  The first bad token from the left
    raises, so the whole text is checked before parsing starts."""
    tokens, end = [], 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN.match(text, end)
        kind, end = m.lastgroup, m.end()
        token, pos = m[kind], m.start(kind)
        # A lone ".", or an "e" after a number that starts no complete exponent
        cut = kind == "number" and not m["exponent"] and text.startswith(("e", "E"), end)
        if token == "." or cut:
            raise ExprSyntaxError(pos, "malformed number")
        # \w also matches digits other than 0-9, which start no word
        if kind == "other" or kind == "word" and not (token[0].isalpha() or token[0] == "_"):
            raise ExprSyntaxError(pos, f"unexpected character {token[0]!r}")
        tokens.append((kind, token, pos))
    return tokens


class _Parser:
    """Recursive descent over the infix grammar, one method per level.

    Precedence, tightest first: pow (right associative), unary minus,
    mul/div, add/sub (both left associative).  Operators and parentheses
    are told apart by their text alone.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, symbol: str, what: str) -> None:
        _, text, pos = self.advance()
        if text != symbol:
            raise ExprSyntaxError(pos, f"expected {what}")

    def parse(self) -> Expr:
        e = self.additive()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, f"unexpected {text!r}")
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.peek()[1] in ("+", "-"):
            e = Binary(_BINARY_NAME[self.advance()[1]], e, self.multiplicative())
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            e = Binary(_BINARY_NAME[self.advance()[1]], e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek()[1] == "-":
            self.index += 1
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.index += 1
        exp_pos = self.peek()[2]
        exponent = self.unary()
        if isinstance(exponent, Constant):  # a literal needs no evaluator
            return Binary("pow", base, exponent)
        if variables(exponent):
            raise ExprSyntaxError(exp_pos, "pow exponent must be a constant expression")
        try:
            value = exponent.scalar(None, None, None)
        except EvalDomainError:
            raise ExprSyntaxError(exp_pos, "pow exponent does not evaluate to a finite constant") from None
        return Binary("pow", base, Constant(value))

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            value = float(text)
            if math.isinf(value):
                raise ExprSyntaxError(pos, "number out of range")
            return Constant(value)
        if text in VARIABLES:
            return Variable(text)
        if text in _NAMED_CONSTANTS:
            return Constant(_NAMED_CONSTANTS[text])
        function = kind == "word" and text in _OPS and _OPS[text].symbol is None
        if function:
            self.expect("(", f"'(' after function '{text}'")
        elif kind == "word":
            raise ExprSyntaxError(pos, f"unknown identifier {text!r}")
        elif text != "(":
            raise ExprSyntaxError(pos, "expected an expression")
        e = self.additive()  # a function's argument, or a parenthesized expression
        self.expect(")", "')'")
        return Unary(text, e) if function else e


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises :class:`ExprSyntaxError` with the offending position for
    empty input, unbalanced parentheses, unknown identifiers, malformed
    numbers, numbers that overflow a binary64, and non-constant pow
    exponents.
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
    Scalars are computed with :mod:`math` by ``e.scalar``, arrays with
    numpy by ``e.array``; the bindings become their positional
    ``(t, s, u)`` arguments.  The result never silently carries NaN or
    Inf; any excursion outside the finite reals raises
    :class:`EvalDomainError` naming the node where it happened.  A
    variable the tree reads but ``bindings`` lacks raises
    :class:`UnboundVariableError` before anything is computed.
    """
    unbound = [name for name in VARIABLES if name not in bindings]
    if unbound:
        used = variables(e)
        for name in unbound:
            if name in used:
                raise UnboundVariableError(name)
    args = [_read(bindings[name]) if name in bindings else None for name in VARIABLES]
    if not any(isinstance(v, np.ndarray) for v in bindings.values()):
        return e.scalar(*args)
    with np.errstate(all="ignore"):  # overflow is reported per node instead
        return e.array(*args)


def _read(value: Binding):
    return np.asarray(value, dtype=float) if isinstance(value, np.ndarray) else float(value)


class _Backend(NamedTuple):
    """How one kind of value is computed and checked, for the generated
    source: the names it may call and the source of its two tests."""

    namespace: Mapping[str, object]  # the operators' functions for these values, and what the source calls
    anywhere: str  # does the elementwise test {} hold anywhere
    nonfinite: str  # is some element of {} not finite
    release: bool  # delete each SSA value after its last use, so arrays do not pile up


_RAISE = "raise error({node}, {message}) from None"
_ERRORS = {"error": EvalDomainError, "math_errors": (OverflowError, ValueError)}
# x - x is 0.0 for every finite float and NaN otherwise
_SCALAR = _Backend({**{name: op.scalar for name, op in _OPS.items() if op.scalar}, **_ERRORS},
                   "{}", "{0} - {0} != 0.0", False)
_ARRAY = _Backend({**{name: op.array for name, op in _OPS.items() if op.array}, **_ERRORS, "any": np.any,
                   "isfinite": np.isfinite}, "any({})", "not isfinite({}).all()", True)


def _generate(root: Expr, k: _Backend) -> Callable:
    """Turn ``root`` into one flat Python function of positional
    ``(t, s, u)``, built with :func:`compile` from :func:`_source`."""
    source, namespace = _source(root, k)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["evaluator"]


def _source(root: Expr, k: _Backend) -> tuple[str, dict]:
    """The source of ``root``'s evaluator and the namespace it runs in:
    the tree's :func:`_statements`, then the return of its value."""
    namespace, names = dict(k.namespace), {}
    body = _statements(_post_order([root]), k, namespace, names, dict(zip(VARIABLES, VARIABLES)), _RAISE)
    lines = ["def evaluator(t, s, u):", *("    " + line for line in body), f"    return {names[id(root)]}"]
    return "\n".join(lines) + "\n", namespace


def _post_order(roots: list) -> list:
    """The distinct nodes of ``roots`` in left-to-right post-order, keyed
    by identity, since hashing a frozen tree recurses through it."""
    order, seen, stack = [], set(), [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_children(node)))
    return order


def _statements(order: list, k: _Backend, namespace: dict, names: dict, sources: dict,
                fail: str) -> list[str]:
    """The unindented statements of the nodes of ``order``, a post-order,
    that ``names`` lacks.

    One statement per node, each followed by that node's domain checks,
    so evaluation takes one frame however deep the tree is.  ``names``
    maps the id of each node computed so far to the source of its value,
    so a subtree that occurs twice as the same object (the derivatives
    share them) is computed once.  Each variable is checked where the
    statements first read it.  The source is built from node kinds alone:
    it names only its SSA values, the variables' ``sources`` and
    ``namespace``.  That starts as a copy of the backend's and gains
    every constant and node the source names, numbered by how many were
    bound before, so an entry added to a backend renames nothing, and
    calls that share a namespace bind distinct names.  A failed test
    runs ``fail``, given the node's {node} name and the {message}.  A
    backend that releases its values deletes each one after the
    statement of its last consumer, so an array evaluator holds about
    three arrays at a time instead of one per node.
    """
    lines = []
    refs = {}  # id(node) -> the namespace name of the node, for its errors
    checked = set()  # variables already tested for finiteness

    def bind(prefix: str, value) -> str:
        name = f"{prefix}{len(namespace) - len(k.namespace)}"
        namespace[name] = value
        return name

    def failed(node: Expr, message: str) -> str:
        if "{node}" in fail and id(node) not in refs:
            refs[id(node)] = bind("n", node)
        return fail.format(node=refs.get(id(node)), message=repr(message))

    def check(node: Expr, test: str, message: str) -> None:
        lines.extend((f"if {test}:", f"    {failed(node, message)}"))

    def emit(node: Expr) -> str:
        if isinstance(node, Constant):
            return bind("c", node.value)
        if isinstance(node, Variable):
            source = sources[node.name]
            if node.name not in checked:
                checked.add(node.name)
                check(node, k.nonfinite.format(source), f"non-finite binding for '{node.name}'")
            return source
        value, op = f"v{len(names)}", _op(node)
        operands = [names[id(child)] for child in _children(node)]
        for operand, comparison, message, applies in op.rules:
            if applies is None or applies(node):
                check(node, k.anywhere.format(f"{operands[operand]} {comparison} 0.0"), message)
        statement = f"{value} = {_written(node.op, None if op.scalar else op.symbol, operands)}"
        if op.checked and op.scalar:  # math raises where numpy returns inf
            lines.extend(("try:", f"    {statement}", "except math_errors:",
                          f"    {failed(node, 'overflow')}"))
        else:
            lines.append(statement)
        if op.checked:
            check(node, k.nonfinite.format(value), "overflow")
        return value

    # Consumers counted first, so that each value is released after its last.
    uses = Counter(id(child) for node in order for child in _children(node))
    for node in order:
        if id(node) in names:
            continue
        names[id(node)] = emit(node)
        dead = []
        for child in _children(node):
            uses[id(child)] -= 1
            if uses[id(child)] == 0 and isinstance(child, (Unary, Binary)):
                dead.append(names[id(child)])
        if k.release and dead:
            lines.append(f"del {', '.join(dead)}")
    return lines


# Inline evaluation, for the solver's generated step functions: the scalar
# backend's statements in the caller's own function, and in a copy of the
# backend's namespace; a failed test runs the caller's statement instead
# of raising.


def _inline(root: Expr, target: str, sources: dict, namespace: dict, names: dict = None) -> list[str]:
    """A ``while True`` block that sets the local ``target`` to the value
    of ``root``, or to NaN at its first failed test, which leaves the
    block at once.  ``names`` holds the values :func:`_hoist` computed."""
    names = dict(names or ())
    body = _statements(_post_order([root]), _SCALAR, namespace, names, sources, f"{target} = nan; break")
    return ["while True:", *("    " + line for line in body), f"    {target} = {names[id(root)]}", "    break"]


def _hoist(roots: list, sources: dict, namespace: dict, fail: str) -> tuple[list, dict]:
    """The statements of the nodes of ``roots`` that do not read u, a
    failed test running ``fail``, and the names of their values."""
    sets, names = _variable_sets(roots), {}
    free = [node for node in _post_order(roots) if "u" not in sets[id(node)]]
    return _statements(free, _SCALAR, namespace, names, sources, fail), names


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
            return Constant(node.scalar(None, None, None))
        except EvalDomainError:
            pass  # folding would hide the domain error
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
    rule = _op(e).derivative
    if rule is None:
        raise NonDifferentiableError(e)
    operands = _children(e)
    derivatives = list(map(_diff, operands, [var] * len(operands)))  # map: one frame per level
    if all(map(_is_zero, derivatives)):
        return Constant(0.0)
    return rule(*operands, *derivatives)


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


def separate(e: Expr) -> list[tuple[Expr, Expr]] | None:
    """Write ``e`` as a sum of products, e = sum_k outer_k * inner_k,
    where each outer factor depends on t alone and no inner factor
    mentions t.

    Sums and differences split into terms, products into factors (term by
    term), a quotient by a divisor that does not mix t with another
    variable onto the matching factor, and exp of a sum into the exp of
    its t part times the exp of the rest, so ``exp(-(t+s))`` is
    ``exp(-t) * exp(-s)``.  Returns None when some factor mixes t
    with another variable (``atan(t*s)``), or when the expansion would
    exceed 64 terms.  The terms equal ``e`` up to rounding; either side
    may overflow where ``e`` does not, e.g. ``exp(s)`` from ``exp(s-t)``.

    The variables of each node are looked up, not recomputed: one
    :func:`_variable_sets` pass covers ``e``, and each node the split
    builds is added once, so the time is linear in the size of ``e``.
    """
    sets, built = _variable_sets([e]), []  # built keeps the added nodes, and so their ids, alive

    def reads(node: Expr) -> frozenset[str]:
        if id(node) not in sets:
            built.append(node)
            sets[id(node)] = frozenset().union(*map(reads, _children(node)))
        return sets[id(node)]

    return _separate(e, reads)


def _separate(e: Expr, reads: Callable) -> list[tuple[Expr, Expr]] | None:
    names = reads(e)
    if "t" not in names:
        return [(_ONE, e)]
    if names == {"t"}:
        return [(e, _ONE)]
    if isinstance(e, Unary) and e.op == "neg":
        terms = _separate(e.child, reads)
        return None if terms is None else [(outer, _neg(inner)) for outer, inner in terms]
    if isinstance(e, Unary) and e.op == "exp":
        terms = _separate(e.child, reads)
        if terms is None:
            return None
        # terms in t alone (constant inner), and terms free of t
        own = [term for term in terms if not reads(term[1])]
        rest = [term for term in terms if reads(term[1]) and not reads(term[0])]
        if len(own) + len(rest) < len(terms):
            return None
        return [(Unary("exp", _summed(own)), Unary("exp", _summed(rest)))]
    if not isinstance(e, Binary) or e.op == "pow":
        return None
    left = _separate(e.left, reads)
    if left is None:
        return None
    if e.op == "div":
        divisor = reads(e.right)
        if "t" not in divisor:
            return [(outer, Binary("div", inner, e.right)) for outer, inner in left]
        if divisor == {"t"}:
            return [(Binary("div", outer, e.right), inner) for outer, inner in left]
        return None
    right = _separate(e.right, reads)
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
    op = _op(e)
    operands = list(map(to_text, _children(e)))  # map: one frame per level
    if op.power and isinstance(e.left, Constant) and math.copysign(1.0, e.left.value) < 0.0:
        operands[0] = f"({operands[0]})"  # -2.0 ^ 2.0 would read as -(2.0 ^ 2.0)
    text = _written(e.op, op.symbol, operands)
    return text if op.symbol is None else f"({text})"

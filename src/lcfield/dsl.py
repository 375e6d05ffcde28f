"""A small expression language over the extended number line.

Grammar (operator precedence: unary minus below ``^``, so ``-x^2`` is
``-(x^2)``; all binary operators left-associative)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/" | "·") factor)*
    factor := "-" factor | power
    power  := atom ("^" int)?
    atom   := rational | ident | "eps" | "H"
            | "sqrt" "(" expr ")" | "st" "(" expr ")" | "(" expr ")"

Each ``+ -`` chain parses to one ``Add`` node and each ``* /`` chain to
one ``Mul`` node, so a tree is only as deep as its nesting: parentheses,
``sqrt(``/``st(`` and unary minus.  ``·`` reads as ``*``, so canonical
renders parse back.

Number literals are unsigned; a decimal point is accepted and converted
exactly (``3.5`` is ``7/2``).  A literal ``p/q`` with positive integer
``q`` folds into a single rational constant unless a ``^`` follows the
``q``, which keeps ``3/2^2`` equal to ``3/(2^2)``.  ``eps``, ``H``,
``sqrt`` and ``st`` are reserved words.

Besides evaluation, rational expressions (no ``sqrt``/``st``) can be
canonicalized to reduced polynomial fractions, treating ``H`` as an
ordinary indeterminate ordered after all alphabetical variables and
``eps`` as ``1/H``.  ``identities_transfer_check`` combines the
canonical verdict with exact sampling at assignable and inassignable
points: the executable reading of "the rules of the finite realm keep
holding in the extended one".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import (
    DEFAULT_PRECISION,
    MAX_DIGITS,
    DivisionByZero,
    LCError,
    LCNumber,
    add,
    agrees_to_guaranteed_order,
    check_power,
    make_monomial,
    make_real,
    mul,
    inverse,
    neg,
    power,
    sqrt,
    standard_part,
    sub,
)
from .poly import Polynomial, RationalForm

__all__ = [
    "Token",
    "LexError",
    "ParseError",
    "NonRationalNode",
    "UnboundVariable",
    "Expr",
    "Const",
    "Var",
    "Eps",
    "HUnit",
    "Add",
    "Mul",
    "Pow",
    "Sqrt",
    "St",
    "Neg",
    "RESERVED_WORDS",
    "MAX_DEPTH",
    "MAX_VARIABLES",
    "tokenize",
    "parse",
    "parse_text",
    "to_source",
    "free_variables",
    "uses_units",
    "evaluate",
    "canonicalize",
    "order_variables",
    "TransferReport",
    "identities_transfer_check",
]

RESERVED_WORDS = frozenset({"eps", "H", "sqrt", "st"})

# The parser, evaluator, printer and canonicalizer recurse once per nesting
# level and loop along a chain, so the parser rejects parentheses, sqrt(,
# st( or unary minus signs nested more than this deep: that stays well
# inside Python's default recursion limit of 1000 frames, a parenthesis
# level costing the parser six and the tree walkers at most four.
MAX_DEPTH = 100

# Every canonical monomial carries one exponent per variable, so the parser
# also rejects an expression's distinct variable names past this count.
MAX_VARIABLES = 100

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LexError(ParseError):
    """Source text that does not split into tokens."""


class NonRationalNode(ValueError):
    """Raised when sqrt/st appears where only rational operations belong."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class UnboundVariable(LCError):
    """Evaluation met a variable with no binding."""


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


def tokenize(source: str) -> list[Token]:
    """Full tokenization or a LexError; positions are character offsets."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*·/^()":
            # an operator's kind is its character, and "·" reads as "*"
            tokens.append(Token("*" if ch == "·" else ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():  # not isdigit(): int() refuses '²' and '①'
            start = i
            while i < n and source[i].isdecimal():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                if i >= n or not source[i].isdecimal():
                    raise LexError("malformed number", i)
                while i < n and source[i].isdecimal():
                    i += 1
            text = source[start:i]
            if len(text.replace(".", "")) > MAX_DIGITS:
                raise LexError(f"number longer than {MAX_DIGITS} digits", start)
            tokens.append(Token("number", text, start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (
                source[i].isalpha() or source[i].isdecimal() or source[i] == "_"
            ):
                i += 1
            tokens.append(Token("identifier", source[start:i], start))
            continue
        raise LexError(f"invalid character {ch!r}", i)
    return tokens


# -- abstract syntax -----------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base node.  ``pos`` is a source offset, excluded from equality."""

    pos: int = field(default=-1, compare=False, kw_only=True)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name in RESERVED_WORDS:
            raise ValueError(f"{self.name!r} is a reserved word")


class Eps(Expr):
    """The infinitesimal unit ``eps``."""


class HUnit(Expr):
    """The infinite unit ``H``."""


@dataclass(frozen=True)
class _Chain(Expr):
    """``args[0] ops[0] args[1] ops[1] ... args[-1]``, folded left.

    ``ops`` holds one operator character per operand after the first.
    The parser never puts a chain of the same kind first, so
    ``(a + b) + c`` and ``a + b + c`` give one tree.  ``positions`` holds
    the source offsets of the ``/`` operators, the only ones that can
    fail; ``pos`` is the first operator's offset.
    """

    args: tuple[Expr, ...]
    ops: str
    positions: tuple[int, ...] = field(default=(), compare=False)


class Add(_Chain):
    """A chain of ``+`` and ``-``."""


class Mul(_Chain):
    """A chain of ``*`` and ``/``."""


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True)
class St(Expr):
    arg: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


# -- parser --------------------------------------------------------------


_CHAIN_OPS = {Add: "+-", Mul: "*/"}


class _Parser:
    def __init__(self, tokens: Sequence[Token], length: int):
        self.tokens = list(tokens)
        self.index = 0
        self.length = length
        self.nesting = 0
        self.names: set[str] = set()

    def peek(self, offset: int = 0) -> Token | None:
        i = self.index + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next_position(self) -> int:
        tok = self.peek()
        return tok.position if tok is not None else self.length

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise ParseError(f"expected {expected}", self.next_position())
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return node

    def nested(self, opener: Token, rule) -> Expr:
        """``rule()`` parsed one nesting level below ``opener``."""
        if self.nesting == MAX_DEPTH:
            raise ParseError(
                f"expression nested more than {MAX_DEPTH} levels deep", opener.position
            )
        self.nesting += 1
        inner = rule()
        self.nesting -= 1
        return inner

    def expr(self, cls: type[_Chain] = Add) -> Expr:
        """One ``cls`` chain, or its lone operand; an ``Add`` chain's
        operands are ``Mul`` chains."""
        ops = _CHAIN_OPS[cls]
        node = self.expr(Mul) if cls is Add else self.factor()
        if (tok := self.peek()) is None or tok.kind not in ops:
            return node
        if isinstance(node, cls):  # a parenthesized chain goes on
            args, text, slashes = list(node.args), [node.ops], list(node.positions)
            pos = node.pos
        else:
            args, text, slashes, pos = [node], [], [], tok.position
        while (tok := self.peek()) is not None and tok.kind in ops:
            self.advance()
            text.append(tok.kind)
            if tok.kind == "/":
                slashes.append(tok.position)
            args.append(self.expr(Mul) if cls is Add else self.factor())
        return cls(tuple(args), "".join(text), tuple(slashes), pos=pos)

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.advance()
            return Neg(self.nested(tok, self.factor), pos=tok.position)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.advance()
            node = Pow(node, self.int_literal(), pos=tok.position)
        return node

    def int_literal(self) -> int:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok is None or tok.kind != "number" or "." in tok.text:
            raise ParseError("expected an integer literal exponent", self.next_position())
        self.advance()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a value", self.length)
        if tok.kind == "number":
            self.advance()
            value = _fraction_from_literal(tok.text)
            # Fold "p/q" into one rational constant, but not when a caret
            # follows q: precedence keeps 3/2^2 equal to 3/(2^2).
            nxt, den, after = self.peek(0), self.peek(1), self.peek(2)
            if (
                nxt is not None
                and nxt.kind == "/"
                and den is not None
                and den.kind == "number"
                and "." not in den.text
                and int(den.text) > 0
                and (after is None or after.kind != "^")
            ):
                self.advance()
                self.advance()
                value = value / int(den.text)
            return Const(value, pos=tok.position)
        if tok.kind == "identifier":
            self.advance()
            name = tok.text
            if name == "eps":
                return Eps(pos=tok.position)
            if name == "H":
                return HUnit(pos=tok.position)
            if name in ("sqrt", "st"):
                opener = self.expect("(", f"'(' after {name}")
                inner = self.nested(opener, self.expr)
                self.expect(")", "')'")
                cls = Sqrt if name == "sqrt" else St
                return cls(inner, pos=tok.position)
            if name not in self.names and len(self.names) == MAX_VARIABLES:
                raise ParseError(f"more than {MAX_VARIABLES} distinct variables", tok.position)
            self.names.add(name)
            return Var(name, pos=tok.position)
        if tok.kind == "(":
            inner = self.nested(self.advance(), self.expr)
            self.expect(")", "')'")
            return inner
        raise ParseError(f"unexpected {tok.text!r}", tok.position)


def _fraction_from_literal(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(text))


def parse(tokens: Sequence[Token], source_length: int) -> Expr:
    return _Parser(tokens, source_length).parse()


def parse_text(source: str) -> Expr:
    return parse(tokenize(source), len(source))


# -- printing ------------------------------------------------------------

_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5
_OP_TEXT = {"+": " + ", "-": " - ", "*": "*", "/": "/"}


def to_source(expr: Expr) -> str:
    """Render to parseable text; reparsing gives back the same tree for
    every parser-producible tree (negative constants render as values but
    reparse as a negation node)."""
    return _print(expr, 0)


def _print(node: Expr, context: int) -> str:
    if isinstance(node, Const):
        text = str(node.value)
        if node.value < 0:
            level = _LEVEL_NEG
        elif node.value.denominator != 1:
            # the rendering carries a slash, so it binds like a division
            level = _LEVEL_MUL
        else:
            level = _LEVEL_ATOM
    elif isinstance(node, Var):
        text, level = node.name, _LEVEL_ATOM
    elif isinstance(node, Eps):
        text, level = "eps", _LEVEL_ATOM
    elif isinstance(node, HUnit):
        text, level = "H", _LEVEL_ATOM
    elif isinstance(node, Sqrt):
        text, level = f"sqrt({_print(node.arg, 0)})", _LEVEL_ATOM
    elif isinstance(node, St):
        text, level = f"st({_print(node.arg, 0)})", _LEVEL_ATOM
    elif isinstance(node, Neg):
        text, level = f"-{_print(node.arg, _LEVEL_NEG)}", _LEVEL_NEG
    elif isinstance(node, Pow):
        text = f"{_print(node.base, _LEVEL_ATOM)}^{node.exponent}"
        level = _LEVEL_POW
    elif isinstance(node, _Chain):
        level = _LEVEL_ADD if isinstance(node, Add) else _LEVEL_MUL
        args = iter(node.args)
        parts = [_print(next(args), level)]
        for op, arg in zip(node.ops, args):
            if op == "/" and isinstance(arg, Const):
                # Parenthesize so the literal folding rule cannot merge the
                # denominator with a number that happens to end the left side.
                parts.append(f"/({_print(arg, 0)})")
            else:
                parts.append(_OP_TEXT[op] + _print(arg, level + 1))
        text = "".join(parts)
    else:  # pragma: no cover - exhaustive over node types
        raise TypeError(f"unknown node {node!r}")
    if level < context:
        return f"({text})"
    return text


# -- structure helpers -----------------------------------------------------


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, _Chain):
        return node.args
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, (Sqrt, St, Neg)):
        return (node.arg,)
    return ()


def _walk(node: Expr) -> Iterable[Expr]:
    yield node
    for child in _children(node):
        yield from _walk(child)


def free_variables(expr: Expr) -> set[str]:
    return {n.name for n in _walk(expr) if isinstance(n, Var)}


def uses_units(expr: Expr) -> bool:
    """True when the expression mentions eps or H."""
    return any(isinstance(n, (Eps, HUnit)) for n in _walk(expr))


# -- evaluation ------------------------------------------------------------


def evaluate(
    expr: Expr,
    env: Mapping[str, LCNumber] | None = None,
    precision: int = DEFAULT_PRECISION,
) -> LCNumber:
    """Structural evaluation.  Arithmetic errors escape with ``position``
    set to the offending node's source offset."""
    return _eval(expr, env or {}, precision)


def _mark(err: LCError, pos: int) -> None:
    """Point ``err`` at ``pos`` unless a deeper node already claimed it.

    Callers re-raise with a bare ``raise``: raising ``err`` from here would
    tie the traceback to this frame and the frame back to ``err``, a
    cycle that keeps the evaluation's frames alive until the cyclic
    collector runs.
    """
    if err.position is None:
        err.position = pos


def _eval(node: Expr, env: Mapping[str, LCNumber], precision: int) -> LCNumber:
    try:
        if isinstance(node, Const):
            return make_real(node.value, precision)
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise UnboundVariable(
                    f"unbound variable {node.name!r}", node.pos
                ) from None
        if isinstance(node, Eps):
            return make_monomial(1, 1, precision)
        if isinstance(node, HUnit):
            return make_monomial(1, -1, precision)
        if isinstance(node, Add):
            args = iter(node.args)
            value = _eval(next(args), env, precision)
            for op, arg in zip(node.ops, args):
                term = _eval(arg, env, precision)
                value = add(value, term) if op == "+" else sub(value, term)
            return value
        if isinstance(node, Mul):
            args, slashes = iter(node.args), iter(node.positions)
            value = _eval(next(args), env, precision)
            for op, arg in zip(node.ops, args):
                factor = _eval(arg, env, precision)
                if op == "/":
                    at = next(slashes, node.pos)
                    try:
                        factor = inverse(factor)
                    except LCError as err:
                        _mark(err, at)
                        raise
                value = mul(value, factor)
            return value
        if isinstance(node, Pow):
            return power(_eval(node.base, env, precision), node.exponent)
        if isinstance(node, Neg):
            return neg(_eval(node.arg, env, precision))
        if isinstance(node, Sqrt):
            return sqrt(_eval(node.arg, env, precision))
        if isinstance(node, St):
            return make_real(standard_part(_eval(node.arg, env, precision)), precision)
    except LCError as err:
        # Only Var, Pow, Sqrt and St nodes and a chain's "/" raise; the
        # deepest one marks the error first and _mark keeps that position.
        _mark(err, node.pos)
        raise
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


# -- canonical rational forms ----------------------------------------------


def order_variables(names: Iterable[str], include_h: bool = False) -> tuple[str, ...]:
    """Alphabetical order with the infinite unit's indeterminate H last."""
    rest = sorted(n for n in names if n != "H")
    if include_h or "H" in names:
        return tuple(rest) + ("H",)
    return tuple(rest)


def _ensure_rational(expr: Expr) -> None:
    for node in _walk(expr):
        if isinstance(node, (Sqrt, St)):
            kind = "sqrt" if isinstance(node, Sqrt) else "st"
            raise NonRationalNode(
                f"{kind} is not a rational operation", node.pos
            )


def canonicalize(
    expr: Expr, variables: Sequence[str] | None = None
) -> RationalForm:
    """Reduced polynomial fraction of a rational expression.

    ``variables`` fixes the indeterminate tuple (useful when comparing
    several expressions); it must cover the expression's free variables.
    H joins the tuple, last, whenever eps or H occurs.  Soundness holds
    wherever denominators are nonzero: two expressions with equal forms
    evaluate equally at any binding, assignable or not, that avoids the
    poles.
    """
    _ensure_rational(expr)
    names = free_variables(expr)
    needs_h = uses_units(expr)
    if variables is None:
        ordered = order_variables(names, include_h=needs_h)
    else:
        ordered = tuple(variables)
        if needs_h and "H" not in ordered:
            ordered = ordered + ("H",)
        missing = names - set(ordered)
        if missing:
            raise ValueError(f"undeclared variables: {sorted(missing)}")
    return RationalForm.make(*_canon(expr, ordered))


def _canon(node: Expr, variables: tuple[str, ...]) -> tuple[Polynomial, Polynomial]:
    """The tree's own fraction ``(N, D)``, never reduced.  A sum adds a
    term whose denominator equals the running one straight into ``N``, so
    repeated denominators do not swell; ``D`` is a product of ``H``s, of
    literals' denominators and of divisors' numerators, each checked to be
    nonzero.  A literal ``p/q`` enters as ``(p, q)``, so both have integer
    coefficients."""
    one = Polynomial.const(variables, 1)
    if isinstance(node, Const):
        p, q = node.value.numerator, node.value.denominator
        return Polynomial.const(variables, p), Polynomial.const(variables, q)
    if isinstance(node, Var):
        return Polynomial.var(variables, node.name), one
    if isinstance(node, Eps):
        return one, Polynomial.var(variables, "H")
    if isinstance(node, HUnit):
        return Polynomial.var(variables, "H"), one
    if isinstance(node, Add):
        args = iter(node.args)
        num, den = _canon(next(args), variables)
        for op, arg in zip(node.ops, args):
            n, d = _canon(arg, variables)
            n = n if op == "+" else -n
            num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
        return num, den
    if isinstance(node, Mul):
        # Left to right, as evaluate goes: the first zero divisor is blamed.
        args, slashes = iter(node.args), iter(node.positions)
        num, den = _canon(next(args), variables)
        for op, arg in zip(node.ops, args):
            n, d = _canon(arg, variables)
            if op == "/":
                at = next(slashes, node.pos)
                if n.is_zero:
                    raise DivisionByZero("denominator is identically zero", at)
                n, d = d, n
            num, den = num * n, den * d
        return num, den
    if isinstance(node, Pow):
        num, den = _canon(node.base, variables)
        if node.exponent < 0 and num.is_zero:
            raise DivisionByZero(
                "negative power of an identically zero base", node.pos
            )
        k = abs(node.exponent)
        # In graded-lex order lc(P^k) = lc(P)^k: refuse before raising.
        check_power(num.leading_coefficient, k)
        check_power(den.leading_coefficient, k)
        return (den**k, num**k) if node.exponent < 0 else (num**k, den**k)
    if isinstance(node, Neg):
        num, den = _canon(node.arg, variables)
        return -num, den
    raise NonRationalNode("not a rational node", node.pos)


# -- transfer checking -------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    """Outcome of an identity check across the assignable/inassignable divide.

    ``identity`` is the exact rational-function verdict.  Each sample entry is
    ``{"point": {name: rendered value}, "agree": bool | None}`` with
    ``None`` marking a point that kept hitting vanishing denominators or
    values past the digit cap.
    ``counterexample`` is a concrete finite witness when the verdict is
    negative, else ``None``.
    """

    identity: bool
    finite_samples: tuple[dict, ...]
    infinite_samples: tuple[dict, ...]
    counterexample: dict | None
    seed: int

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "finite_samples": list(self.finite_samples),
            "infinite_samples": list(self.infinite_samples),
            "counterexample": self.counterexample,
            "seed": self.seed,
        }


_RESAMPLE_CAP = 100


def _draw_nonzero_rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return value if rng.random() < 0.5 else -value


def _draw_finite(rng: random.Random, precision: int) -> LCNumber:
    return make_real(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), precision)


def _draw_mixed(rng: random.Random, precision: int) -> LCNumber:
    kind = rng.randrange(4)
    if kind == 0:
        return _draw_finite(rng, precision)
    if kind == 1:
        return make_monomial(_draw_nonzero_rational(rng), 1, precision)
    if kind == 2:
        return make_monomial(_draw_nonzero_rational(rng), -1, precision)
    return add(
        _draw_finite(rng, precision),
        make_monomial(_draw_nonzero_rational(rng), 1, precision),
    )


def _both_sides(e1, e2, point, precision):
    """``(lhs, rhs)`` at ``point``, or ``None`` where a side cannot be
    evaluated: a denominator vanishes or a number passes the digit cap."""
    try:
        return evaluate(e1, point, precision), evaluate(e2, point, precision)
    except LCError:
        return None


def _sample_once(e1, e2, names, draw, rng, precision):
    for _ in range(_RESAMPLE_CAP):
        point = {name: draw(rng, precision) for name in names}
        sides = _both_sides(e1, e2, point, precision)
        if sides is None:
            continue
        # Agreement in the guaranteed-order sense: equal on every term
        # below both windows.  Cancellation can truncate the two sides'
        # tails differently even for a true identity, so raw term
        # equality would be the wrong judgment here.
        return {
            "point": {name: value.render() for name, value in point.items()},
            "agree": agrees_to_guaranteed_order(*sides),
        }
    return {"point": None, "agree": None}


_WITNESS_CANDIDATES = (
    [Fraction(0)]
    + [s * Fraction(k) for k in range(1, 11) for s in (1, -1)]
    + [s * Fraction(2 * k + 1, 2) for k in range(0, 5) for s in (1, -1)]
)


def _find_counterexample(e1, e2, names, precision, difference):
    """The first point of the candidate grid, in ``itertools.product``
    order (first name slowest), where the trees disagree, or ``None``.

    ``difference`` is ``N1·D2 - N2·D1`` of the trees' unreduced
    fractions, whose leading variables are ``names``.  The walk fixes one
    name at a time and skips each subgrid on which the partly substituted
    difference is identically zero.  That is exact: at a pole-free point
    each unreduced denominator is nonzero and the tree equals ``N/D``, so
    the sides can disagree only where the difference is nonzero.  A
    subgrid on which only a factor shared by some ``N`` and ``D``
    vanishes is all poles, which a full walk skips too.  The other
    points are still judged by the trees, so poles and truncated series
    behave as in a full walk and the first witness is the same.
    """

    def walk(rest, values):
        index = len(values)
        if index < len(names):
            for value in _WITNESS_CANDIDATES:
                fixed = rest.substitute(index, value)
                if fixed:
                    found = walk(fixed, values + (value,))
                    if found is not None:
                        return found
            return None
        point = {n: make_real(v, precision) for n, v in zip(names, values)}
        sides = _both_sides(e1, e2, point, precision)
        if sides is None or agrees_to_guaranteed_order(*sides):
            return None
        return {
            "point": {n: str(v) for n, v in zip(names, values)},
            "lhs": sides[0].render(),
            "rhs": sides[1].render(),
        }

    return walk(difference, ())


def identities_transfer_check(
    e1: Expr,
    e2: Expr,
    trials: int = 100,
    seed: int = 0,
    precision: int = DEFAULT_PRECISION,
) -> TransferReport:
    """Check ``e1 == e2`` as rational functions and by exact sampling.

    Both expressions must be rational (no sqrt/st).  ``trials`` counts
    the samples in each list: assignable points with small rational
    coordinates, then points mixing infinitesimal and infinite
    coordinates.  Sampled agreement means agreement to the guaranteed
    order, so a canonical identity agrees at every pole-free sample.
    Deterministic for a given seed; points where a side cannot be
    evaluated (a vanishing denominator, a number past the digit cap) are
    redrawn, up to a cap, then marked inconclusive, and skipped in the
    witness search.

    The verdict is whether ``N1·D2 - N2·D1`` vanishes, for the trees'
    unreduced fractions ``N/D``; no gcd is taken.  A non-identity's
    witness is the first point of a fixed grid where the sides disagree.
    The search skips each subgrid on which that difference vanishes
    identically: no pole-free point lies there where the sides differ, so
    the grid order, hence the witness, is unchanged.
    """
    names = free_variables(e1) | free_variables(e2)
    include_h = uses_units(e1) or uses_units(e2)
    ordered = order_variables(names, include_h=include_h)
    _ensure_rational(e1)
    n1, d1 = _canon(e1, ordered)
    _ensure_rational(e2)
    n2, d2 = _canon(e2, ordered)
    difference = n1 * d2 - n2 * d1
    identity = difference.is_zero
    sample_names = sorted(names)
    rng = random.Random(seed)
    finite = tuple(
        _sample_once(e1, e2, sample_names, _draw_finite, rng, precision)
        for _ in range(trials)
    )
    infinite = tuple(
        _sample_once(e1, e2, sample_names, _draw_mixed, rng, precision)
        for _ in range(trials)
    )
    counterexample = None if identity else _find_counterexample(
        e1, e2, sample_names, precision, difference
    )
    return TransferReport(
        identity=identity,
        finite_samples=finite,
        infinite_samples=infinite,
        counterexample=counterexample,
        seed=seed,
    )

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

One evaluator walks a tree, over series, over polynomial fractions or
over a recorder of kernel calls.
Besides evaluation, rational expressions (no ``sqrt``/``st``) can be
canonicalized to reduced polynomial fractions, treating ``H`` as an
ordinary indeterminate ordered after all alphabetical variables and
``eps`` as ``1/H``.  ``identities_transfer_check`` combines the
canonical verdict with exact sampling at assignable and inassignable
points: the executable reading of "the rules of the finite realm keep
holding in the extended one".  It compiles each line once, by that
walk over the recorder, into one straight-line program over both sides,
so an operation the sides share runs once per sample point; one-shot
evaluation walks the tree over series.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from . import core
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
    "MAX_TERMS",
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

# The parser, evaluator and printer recurse once per nesting level and
# loop along a chain, so the parser rejects parentheses, sqrt(,
# st( or unary minus signs nested more than this deep: that stays well
# inside Python's default recursion limit of 1000 frames, a parenthesis
# level costing the parser six and the tree walkers at most four.
MAX_DEPTH = 100

# Every canonical monomial carries one exponent per variable, so the parser
# also rejects an expression's distinct variable names past this count.
MAX_VARIABLES = 100

# The canonicalizer refuses a power or a product that may expand past this
# many terms: a base of t terms raised to k has at most C(t+k-1, k), the
# number of monomials of degree k in t unknowns; ``_times`` bounds a
# product.
MAX_TERMS = 10_000

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


def _scan(expr: Expr) -> tuple[set[str], bool, Expr | None]:
    """The tree's variable names, whether eps or H occurs, and its first
    sqrt/st node in preorder (``None`` if it has none), from one walk."""
    names: set[str] = set()
    units = False
    nonrational = None
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, (Eps, HUnit)):
            units = True
        elif isinstance(node, _Chain):
            stack.extend(reversed(node.args))
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, (Sqrt, St, Neg)):
            if nonrational is None and not isinstance(node, Neg):
                nonrational = node
            stack.append(node.arg)
    return names, units, nonrational


def free_variables(expr: Expr) -> set[str]:
    return _scan(expr)[0]


def uses_units(expr: Expr) -> bool:
    """True when the expression mentions eps or H."""
    return _scan(expr)[1]


# -- evaluation ------------------------------------------------------------


def evaluate(
    expr: Expr,
    env: Mapping[str, LCNumber] | None = None,
    precision: int = DEFAULT_PRECISION,
) -> LCNumber:
    """Structural evaluation.  Arithmetic errors escape with ``position``
    set to the offending node's source offset."""
    return _eval(expr, env or {}, precision, core)


def _mark(err: LCError, pos: int) -> None:
    """Point ``err`` at ``pos`` unless a deeper node already claimed it.

    Callers re-raise with a bare ``raise``: raising ``err`` from here would
    tie the traceback to this frame and the frame back to ``err``, a
    cycle that keeps the evaluation's frames alive until the cyclic
    collector runs.
    """
    if err.position is None:
        err.position = pos


def _eval(node: Expr, env: Mapping, precision: int, alg):
    """The tree's value over ``alg``, which has ``core``'s function names:
    the ``core`` module, its functions read at each call, a
    ``_Fractions``, or ``_program``'s recorder, whose values are slots.
    ``env`` binds each variable to such a value."""
    try:
        if isinstance(node, Const):
            return alg.make_real(node.value, precision)
        if isinstance(node, Var):
            try:
                return env[node.name]
            except KeyError:
                raise UnboundVariable(
                    f"unbound variable {node.name!r}", node.pos
                ) from None
        if isinstance(node, Eps):
            return alg.make_monomial(1, 1, precision)
        if isinstance(node, HUnit):
            return alg.make_monomial(1, -1, precision)
        if isinstance(node, Add):
            args = iter(node.args)
            value = _eval(next(args), env, precision, alg)
            for op, arg in zip(node.ops, args):
                term = _eval(arg, env, precision, alg)
                value = alg.add(value, term) if op == "+" else alg.sub(value, term)
            return value
        if isinstance(node, Mul):
            # Left to right: the first zero divisor is blamed.
            args, slashes = iter(node.args), iter(node.positions)
            value = _eval(next(args), env, precision, alg)
            for op, arg in zip(node.ops, args):
                factor = _eval(arg, env, precision, alg)
                if op == "/":
                    at = next(slashes, node.pos)
                    try:
                        factor = alg.inverse(factor)
                    except LCError as err:
                        _mark(err, at)
                        raise
                value = alg.mul(value, factor)
            return value
        if isinstance(node, Pow):
            return alg.power(_eval(node.base, env, precision, alg), node.exponent)
        if isinstance(node, Neg):
            return alg.neg(_eval(node.arg, env, precision, alg))
        if isinstance(node, Sqrt):
            return alg.sqrt(_eval(node.arg, env, precision, alg))
        if isinstance(node, St):
            value = alg.standard_part(_eval(node.arg, env, precision, alg))
            return alg.make_real(value, precision)
    except LCError as err:
        # Var, Pow, Sqrt and St nodes raise, and so does a chain: at its
        # "/", or, over fractions, a product past the term budget.  The
        # deepest one marks the error first and _mark keeps that position.
        _mark(err, node.pos)
        raise
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _program(e1: Expr, e2: Expr, names: Sequence[str], precision: int):
    """Rational ``e1`` and ``e2`` as one straight-line program: a function
    of the values of ``names``, in order, giving ``evaluate``'s ``(lhs,
    rhs)``.  ``_eval`` walks both trees over a recorder, whose values are
    slots: each distinct operation, keyed by its ``core`` function and
    operand slots, is one instruction, so what the sides share, a subtree
    or a chain's left prefix, runs once.  Leaves and exponents are built
    once; instructions call ``core``'s attributes."""
    slots: dict = {name: i for i, name in enumerate(names)}
    template: list = [None] * len(names)
    code: list = []

    def slot(key, value=None):
        """``key``'s slot: a leaf holding ``value``, or an instruction's output."""
        if key not in slots:
            slots[key] = len(template)
            template.append(value)
            if value is None:
                code.append((*key, slots[key]))
        return slots[key]

    def instruction(name):
        return lambda a, b=None: slot((name, a, b))

    recorder = SimpleNamespace(
        make_real=lambda q, p: slot(("real", q), core.make_real(q, p)),
        # eps and H, the only monomials _eval asks for, differ in k alone
        make_monomial=lambda c, k, p: slot(("monomial", k), core.make_monomial(c, k, p)),
        power=lambda a, n: slot(("power", a, slot(("exponent", n), n))),
        **{name: instruction(name) for name in ("add", "sub", "mul", "inverse", "neg")},
    )
    # the names' slots are the env: _eval looks up only names in it
    lhs, rhs = (_eval(e, slots, precision, recorder) for e in (e1, e2))
    kernels = vars(core)

    def run(values: Sequence[LCNumber]) -> tuple[LCNumber, LCNumber]:
        regs = template.copy()
        regs[: len(names)] = values
        for name, a, b, out in code:
            f = kernels[name]
            regs[out] = f(regs[a]) if b is None else f(regs[a], regs[b])
        return regs[lhs], regs[rhs]

    return run


# -- canonical rational forms ----------------------------------------------


def order_variables(names: Iterable[str], include_h: bool = False) -> tuple[str, ...]:
    """Alphabetical order with the infinite unit's indeterminate H last."""
    rest = sorted(n for n in names if n != "H")
    if include_h or "H" in names:
        return tuple(rest) + ("H",)
    return tuple(rest)


def _refuse(nonrational: Expr | None) -> None:
    """Raise for a tree's first sqrt/st node, as ``_scan`` found it."""
    if nonrational is not None:
        kind = "sqrt" if isinstance(nonrational, Sqrt) else "st"
        raise NonRationalNode(f"{kind} is not a rational operation", nonrational.pos)


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
    names, needs_h, nonrational = _scan(expr)
    _refuse(nonrational)
    if variables is None:
        ordered = order_variables(names, include_h=needs_h)
    else:
        ordered = tuple(variables)
        if needs_h and "H" not in ordered:
            ordered = ordered + ("H",)
        missing = names - set(ordered)
        if missing:
            raise ValueError(f"undeclared variables: {sorted(missing)}")
    fractions = _Fractions(ordered)
    return RationalForm.make(*_eval(expr, fractions.env, 0, fractions))


class _Fractions:
    """The algebra of a tree's own fractions ``(N, D)``, never reduced,
    for ``_eval``; precisions are ignored.  A sum adds a term whose
    denominator equals the running one straight into ``N``, so repeated
    denominators do not swell; ``D`` is a product of ``H``s, of literals'
    denominators and of divisors' numerators, each checked to be nonzero.
    A literal ``p/q`` enters as ``(p, q)``, so both have integer
    coefficients.  ``env`` binds each variable to its fraction."""

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.one = one = Polynomial.const(variables, 1)
        self.env = {name: (Polynomial.var(variables, name), one) for name in variables}

    def make_real(self, value: Fraction, precision: int):
        p, q = value.numerator, value.denominator
        return Polynomial.const(self.variables, p), Polynomial.const(self.variables, q)

    def make_monomial(self, coefficient: int, exponent: int, precision: int):
        # eps is 1/H and H is H/1: the only monomials _eval asks for
        h = self.env["H"][0]
        return (self.one, h) if exponent == 1 else (h, self.one)

    def add(self, a, b):
        (num, den), (n, d) = a, b
        if d == den:
            return num + n, den
        return _times(num, d) + _times(n, den), _times(den, d)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return -a[0], a[1]

    def inverse(self, a):
        if not a[0]:
            raise DivisionByZero("denominator is identically zero")
        return a[1], a[0]

    def mul(self, a, b):
        return _times(a[0], b[0]), _times(a[1], b[1])

    def power(self, a, exponent: int):
        num, den = a
        if exponent < 0 and not num:
            raise DivisionByZero("negative power of an identically zero base")
        k = abs(exponent)
        # In graded-lex order lc(P^k) = lc(P)^k: refuse before raising.
        check_power(num.leading_coefficient, k)
        check_power(den.leading_coefficient, k)
        for base in (num, den):
            _check_terms(len(base.terms) + k - 1, k, "power")
        return (den**k, num**k) if exponent < 0 else (num**k, den**k)


def _times(a: Polynomial, b: Polynomial, pos: int | None = None) -> Polynomial:
    """``a * b``, refused (at ``pos``) unless it is sure to hold at most
    MAX_TERMS terms.  It has at most |a|·|b| terms, and at most C(v+D, v),
    the monomials of degree at most D = deg a + deg b in the v variables
    that a or b uses.  Neither bound alone will do: (a+…+j)^4·(a+…+j)^2
    has 39325 pairs but at most 8008 terms, and x^200·y^200 has one pair
    but C(402, 2) monomials of degree at most 400."""
    if len(a.terms) * len(b.terms) > MAX_TERMS:
        degree = a.degree + b.degree
        _check_terms(len(a.used() | b.used()) + degree, degree, "product", pos)
    return a * b


def _check_terms(n: int, m: int, what: str, pos: int | None = None) -> None:
    """Raise unless C(n, m) <= MAX_TERMS.  C(n, m) = C(n, m') with
    m' = min(m, n-m) is built up as C(n-m'+j, j), j = 1..m', which grows
    with j: at most m' steps, t-1 for a power of a t-term base and v for
    a product, however large the degree."""
    m = min(m, n - m)
    bound = 1
    for j in range(1, m + 1):
        bound = bound * (n - m + j) // j
        if bound > MAX_TERMS:
            raise LCError(f"{what} may expand to more than {MAX_TERMS} terms", pos)


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


@functools.lru_cache(maxsize=4096)
def _coordinate(n: int, q: int, k: int, precision: int) -> tuple[LCNumber, str]:
    """The sample coordinate ``(n/q)·eps^k`` and its text, built once.  The
    draws (|n|, q ≤ 9; |k| ≤ 1) and the witness grid, which adds ±10,
    hold at most 497 values per precision."""
    value = make_monomial(Fraction(n, q), k, precision)
    return value, value.render()


def _draw_finite(rng: random.Random, precision: int) -> tuple[LCNumber, str]:
    return _coordinate(rng.randint(-9, 9), rng.randint(1, 9), 0, precision)


def _draw_monomial(rng: random.Random, k: int, precision: int) -> tuple[LCNumber, str]:
    n, q = rng.randint(1, 9), rng.randint(1, 9)
    return _coordinate(n if rng.random() < 0.5 else -n, q, k, precision)


def _draw_mixed(rng: random.Random, precision: int) -> tuple[LCNumber, str]:
    kind = rng.randrange(4)
    if kind == 0:
        return _draw_finite(rng, precision)
    if kind == 1:
        return _draw_monomial(rng, 1, precision)
    if kind == 2:
        return _draw_monomial(rng, -1, precision)
    value = add(_draw_finite(rng, precision)[0], _draw_monomial(rng, 1, precision)[0])
    return value, value.render()


def _judge(run, names, drawn):
    """``({name: text}, run(values))`` at the point whose coordinates are the
    ``(value, text)`` pairs ``drawn``, or ``None`` where a side cannot be
    evaluated: a denominator vanishes or a number passes the digit cap."""
    try:
        sides = run([value for value, _ in drawn])
    except LCError:
        return None
    return {name: text for name, (_, text) in zip(names, drawn)}, sides


def _sample_once(run, names, draw, rng, precision):
    for _ in range(_RESAMPLE_CAP):
        judged = _judge(run, names, [draw(rng, precision) for _ in names])
        if judged is not None:
            # Agreement in the guaranteed-order sense: equal on every term
            # below both windows.  Cancellation can truncate the two sides'
            # tails differently even for a true identity, so raw term
            # equality would be the wrong judgment here.
            return {"point": judged[0], "agree": agrees_to_guaranteed_order(*judged[1])}
    return {"point": None, "agree": None}


_WITNESS_CANDIDATES = (
    [Fraction(0)]
    + [s * Fraction(k) for k in range(1, 11) for s in (1, -1)]
    + [s * Fraction(2 * k + 1, 2) for k in range(0, 5) for s in (1, -1)]
)


def _find_counterexample(run, names, precision, difference):
    """The first point of the candidate grid, in ``itertools.product``
    order (first name slowest), where ``run``'s sides disagree, or ``None``.

    ``difference`` is ``N1·D2 - N2·D1`` of the trees' unreduced
    fractions, whose leading variables are ``names``.  The walk fixes one
    name at a time and skips each subgrid on which the partly substituted
    difference is identically zero.  That is exact: at a pole-free point
    each unreduced denominator is nonzero and the tree equals ``N/D``, so
    the sides can disagree only where the difference is nonzero.  A
    subgrid on which only a factor shared by some ``N`` and ``D``
    vanishes is all poles, which a full walk skips too.  A value whose
    substitution would pass the digit cap is not substituted, which only
    prunes less.  The other points are still judged by the trees, so poles
    and truncated series behave as in a full walk: the same first witness.
    """

    def walk(rest, values):
        index = len(values)
        if index < len(names):
            for value in _WITNESS_CANDIDATES:
                try:
                    fixed = rest.substitute(index, value)
                except LCError:  # past the digit cap: the trees judge the subgrid
                    fixed = rest
                if fixed:
                    found = walk(fixed, values + (value,))
                    if found is not None:
                        return found
            return None
        drawn = [_coordinate(v.numerator, v.denominator, 0, precision) for v in values]
        judged = _judge(run, names, drawn)
        if judged is None or agrees_to_guaranteed_order(*judged[1]):
            return None
        point, (lhs, rhs) = judged
        return {"point": point, "lhs": lhs.render(), "rhs": rhs.render()}

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
    witness search.  Both sides are compiled once into one program
    (``_program``), so an operation they share runs once per point.

    The verdict is whether ``N1·D2 - N2·D1`` vanishes, for the trees'
    unreduced fractions ``N/D``; no gcd is taken.  Both products are held
    to ``_times``'s term budget, and a refusal points at ``e2``: the
    products exist only once both sides are built.  A non-identity's
    witness is the first point of a fixed grid where the sides disagree.
    The search skips each subgrid on which that difference vanishes
    identically: no pole-free point lies there where the sides differ, so
    the grid order, hence the witness, is unchanged.
    """
    core._check_precision(precision)
    names1, units1, nonrational1 = _scan(e1)
    names2, units2, nonrational2 = _scan(e2)
    names = names1 | names2
    ordered = order_variables(names, include_h=units1 or units2)
    # e1's fraction is built before e2 is refused, so e1's errors come first
    fractions = _Fractions(ordered)
    _refuse(nonrational1)
    n1, d1 = _eval(e1, fractions.env, 0, fractions)
    _refuse(nonrational2)
    n2, d2 = _eval(e2, fractions.env, 0, fractions)
    difference = _times(n1, d2, e2.pos) - _times(n2, d1, e2.pos)
    identity = not difference
    sample_names = sorted(names)
    run = _program(e1, e2, sample_names, precision)
    rng = random.Random(seed)
    finite = tuple(
        _sample_once(run, sample_names, _draw_finite, rng, precision)
        for _ in range(trials)
    )
    infinite = tuple(
        _sample_once(run, sample_names, _draw_mixed, rng, precision)
        for _ in range(trials)
    )
    counterexample = None if identity else _find_counterexample(
        run, sample_names, precision, difference
    )
    return TransferReport(
        identity=identity,
        finite_samples=finite,
        infinite_samples=infinite,
        counterexample=counterexample,
        seed=seed,
    )

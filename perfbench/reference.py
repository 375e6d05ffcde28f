"""Correctness gate: references that share no code with lcfield.

* ``sympy`` decides every identity verdict, over the field of rational
  functions in the item's variables and ``H`` (``eps`` is ``1/H``).
* A reported witness is re-evaluated with sympy at its point: both sides
  must be pole-free there and unequal.
* ``inverse`` and ``sqrt`` results are multiplied back with the gate's
  own exact convolution (``Fraction`` values, scaled to integers for the
  inner loop) and compared with the input below the window.
* Every rendered output must match the digest pinned in ``digests.json``.

Each check returns ``None`` when the output is right and a one-line
reason when it is not.  The expression reader below is a separate
implementation of the DSL grammar: ``+ - * /``, unary minus, ``^`` with
an integer literal exponent, parentheses, integer and decimal literals,
variables, ``eps`` and ``H``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import sympy

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z][A-Za-z0-9_]*)|(.))")


class Pole(ArithmeticError):
    """A division by zero while evaluating a side."""


def _tokens(text: str) -> list[str]:
    out = []
    for number, name, char in _TOKEN.findall(text):
        token = number or name or char
        if token.strip():
            out.append(token)
    return out


def read(text: str):
    """Syntax tree of nested tuples: ('num', Fraction), ('var', name),
    ('neg', a), ('pow', a, n) or (op, a, b) for op in '+-*/'."""
    tokens = _tokens(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        node = term()
        while peek() in ("+", "-"):
            node = (take(), node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            node = (take(), node, factor())
        return node

    def factor():
        if peek() == "-":
            take()
            return ("neg", factor())
        node = atom()
        if peek() == "^":
            take()
            sign = -1 if peek() == "-" else 1
            if sign < 0:
                take()
            node = ("pow", node, sign * int(take()))
        return node

    def atom():
        token = take()
        if token == "(":
            node = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return node
        if token[0].isdigit():
            return ("num", Fraction(token))
        if token[0].isalpha() and token not in ("sqrt", "st"):
            return ("var", token)
        raise ValueError(f"unexpected {token!r} in {text!r}")

    node = expr()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r} in {text!r}")
    return node


def names_in(node) -> set[str]:
    if node[0] == "var":
        return {node[1]}
    if node[0] == "num":
        return set()
    return set().union(*(names_in(child) for child in node[1:] if isinstance(child, tuple)))


def evaluate(node, env: dict):
    """Value of a tree over whatever ring ``env`` values live in."""
    kind = node[0]
    if kind == "num":
        return env["1"] * sympy.Rational(node[1].numerator, node[1].denominator)
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind == "pow":
        base = evaluate(node[1], env)
        if node[2] < 0 and base == 0:
            raise Pole("negative power of zero")
        return base ** node[2]
    left, right = evaluate(node[1], env), evaluate(node[2], env)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    if right == 0:
        raise Pole("division by zero")
    return left / right


def _field(names: set[str]) -> dict:
    gens = sorted(names - {"eps", "H"}) + ["H"]
    field, *symbols = sympy.field(",".join(gens), sympy.QQ)
    env = dict(zip(gens, symbols))
    env["eps"] = 1 / env["H"]
    env["1"] = field.one
    return env


def is_identity(lhs: str, rhs: str) -> bool:
    """sympy's verdict: do the two sides agree as rational functions?"""
    left, right = read(lhs), read(rhs)
    env = _field(names_in(left) | names_in(right))
    return evaluate(left, env) == evaluate(right, env)


def witness_problem(lhs: str, rhs: str, point: dict[str, str]) -> str | None:
    """None when both sides are pole-free and unequal at ``point``."""
    left, right = read(lhs), read(rhs)
    free = (names_in(left) | names_in(right)) - {"eps", "H"}
    if set(point) != free:
        return f"witness binds {sorted(point)}, expected {sorted(free)}"
    env = _field({"H"})
    for name, value in point.items():
        q = Fraction(value)
        env[name] = env["1"] * sympy.Rational(q.numerator, q.denominator)
    try:
        if evaluate(left, env) == evaluate(right, env):
            return f"sides agree at witness {point}"
    except Pole:
        return f"witness {point} is a pole"
    return None


# -- transfer outputs -------------------------------------------------------


def check_transfer(lhs: str, rhs: str, payload: list, exit_code: int) -> str | None:
    """Check one line's ``transfer --format json`` output."""
    if len(payload) != 1:
        return f"expected one report, got {len(payload)}"
    report = payload[0]["report"]
    expected = is_identity(lhs, rhs)
    if report["identity"] != expected:
        return f"verdict {report['identity']}, sympy says {expected}"
    if exit_code != (0 if expected else 4):
        return f"exit code {exit_code} for verdict {expected}"
    samples = report["finite_samples"] + report["infinite_samples"]
    if expected:
        if any(sample["agree"] is False for sample in samples):
            return "an identity disagrees at a sample point"
        return None
    if report["counterexample"] is None:
        return "non-identity without a witness"
    return witness_problem(lhs, rhs, report["counterexample"]["point"])


def check_canonical(lhs: str, rhs: str, output: dict) -> str | None:
    expected = is_identity(lhs, rhs)
    if output["identity"] != expected:
        return f"verdict {output['identity']}, sympy says {expected}"
    return None


# -- series outputs ---------------------------------------------------------


def _terms(data: dict) -> dict[Fraction, Fraction]:
    return {Fraction(t["exp"]): Fraction(t["coef"]) for t in data["terms"]}


def _convolve(a: dict, b: dict, below: Fraction) -> dict:
    """Exact product of two term maps, below exponent ``below``.

    Exponents and coefficients are scaled to integers first, so the inner
    loop multiplies and adds plain ints.
    """
    scale = math.lcm(below.denominator, *(e.denominator for e in (*a, *b)))
    da = math.lcm(*(c.denominator for c in a.values()))
    db = math.lcm(*(c.denominator for c in b.values()))
    left = sorted((int(e * scale), int(c * da)) for e, c in a.items())
    right = sorted((int(e * scale), int(c * db)) for e, c in b.items())
    limit = int(below * scale)
    out: dict[int, int] = {}
    for ea, ca in left:
        for eb, cb in right:
            e = ea + eb
            if e >= limit:
                break
            out[e] = out.get(e, 0) + ca * cb
    return {Fraction(e, scale): Fraction(c, da * db) for e, c in out.items() if c}


def check_series(kind: str, argument: list[list[str]], result: dict, precision: int) -> str | None:
    """Multiply an ``inverse`` or ``sqrt`` result back and compare.

    ``r`` is vouched for on ``[lead(r), lead(r) + T)``, so ``r * a`` is
    exact below ``lead(r) + lead(a) + T`` and ``r * r`` below
    ``2 lead(r) + T``; below that bound the product must equal 1 or the
    argument exactly.
    """
    a = {Fraction(e): Fraction(c) for e, c in argument}
    r = _terms(result)
    if not r:
        return "empty result"
    lead_a, lead_r = min(a), min(r)
    if kind == "inverse":
        bound = lead_r + lead_a + precision
        product, want = _convolve(r, a, bound), {Fraction(0): Fraction(1)}
    else:
        bound = 2 * lead_r + precision
        product, want = _convolve(r, r, bound), {e: c for e, c in a.items() if e < bound}
    if product != want:
        return f"{kind} result times its check factor differs below eps^{bound}"
    return None


def check_derivative(expr: str, point: str, shadow: str, bindings: dict | None = None) -> str | None:
    """The shadow must be sympy's derivative in ``x`` at the point, with
    every other variable set to the standard part of its bound series
    (the bindings are finite, so that is their shadow's contribution)."""
    x = sympy.Symbol("x")
    env = {"x": x, "1": sympy.Integer(1)}
    for name, terms in (bindings or {}).items():
        series = {Fraction(e): Fraction(c) for e, c in terms}
        if min(series) < 0:
            raise ValueError(f"binding {name} is not finite")
        part = series.get(Fraction(0), Fraction(0))
        env[name] = sympy.Rational(part.numerator, part.denominator)
    f = evaluate(read(expr), env)
    q = Fraction(point)
    want = sympy.diff(f, x).subs(x, sympy.Rational(q.numerator, q.denominator))
    if sympy.Rational(shadow) != want:
        return f"shadow {shadow}, sympy says {want}"
    return None


# -- pinned digests ---------------------------------------------------------

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())

"""Differentiation with an actual infinitesimal increment.

The differential quotient ``(f(x + eps) - f(x)) / eps`` is an ordinary
series value.  Its standard part is the derivative; what the classical
limit throws away survives here as the explicit ``discarded``
infinitesimal, an exact value instead of an approximation.

``symbolic_derivative`` is an independent oracle: textbook term
rewriting on the expression tree, sharing no code with the quotient
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_PRECISION,
    Classification,
    LCError,
    LCNumber,
    add,
    classify,
    eps,
    inverse,
    make_real,
    mul,
    standard_part,
    sub,
)
from .dsl import (
    Add,
    Const,
    Eps,
    Expr,
    HUnit,
    Mul,
    Neg,
    NonRationalNode,
    Pow,
    Sqrt,
    St,
    Var,
    evaluate,
)

__all__ = [
    "NotFinite",
    "InconsistentDiffResult",
    "UnsupportedNode",
    "DiffResult",
    "differential_quotient",
    "derivative_at",
    "symbolic_derivative",
]


class NotFinite(LCError):
    """The differential quotient came out infinite at the point."""


class InconsistentDiffResult(LCError):
    """A ``DiffResult`` whose parts break ``quotient == shadow + discarded``
    or whose ``discarded`` part is not zero or infinitesimal."""


class UnsupportedNode(NonRationalNode):
    """The symbolic oracle covers the rational fragment only."""


@dataclass(frozen=True)
class DiffResult:
    """Quotient, its shadow, and the infinitesimal the shadow drops.

    ``quotient == shadow + discarded`` exactly, with ``discarded`` zero
    or infinitesimal; checked on construction.
    """

    quotient: LCNumber
    shadow: Fraction
    discarded: LCNumber

    def __post_init__(self):
        if classify(self.discarded) not in (
            Classification.ZERO,
            Classification.INFINITESIMAL,
        ):
            raise InconsistentDiffResult("discarded part must be zero or infinitesimal")
        rebuilt = add(
            make_real(self.shadow, self.quotient.precision), self.discarded
        )
        if rebuilt != self.quotient:
            raise InconsistentDiffResult("quotient must equal shadow + discarded")


def differential_quotient(
    f: Expr,
    var: str,
    point: LCNumber,
    env: dict[str, LCNumber] | None = None,
    increment: LCNumber | None = None,
) -> LCNumber:
    """``(f[var := point + increment] - f[var := point]) / increment``.

    The increment defaults to ``eps``; passing ``-eps`` checks direction
    independence.  Exact division by a monomial increment just shifts
    exponents, so nothing is lost there.
    """
    if increment is None:
        increment = eps(point.precision)
    bindings = dict(env or {})
    bindings[var] = add(point, increment)
    moved = evaluate(f, bindings, point.precision)
    bindings[var] = point
    here = evaluate(f, bindings, point.precision)
    return mul(sub(moved, here), inverse(increment))


def derivative_at(
    f: Expr,
    var: str,
    point: Fraction | int,
    env: dict[str, LCNumber] | None = None,
    precision: int = DEFAULT_PRECISION,
) -> DiffResult:
    """Shadow of the differential quotient at an assignable point.

    Raises NotFinite when the quotient is infinite (no derivative to
    assign); evaluation errors from ``f`` itself propagate unchanged.
    """
    quotient = differential_quotient(
        f, var, make_real(point, precision), env
    )
    if classify(quotient) is Classification.INFINITE:
        raise NotFinite(f"differential quotient at {point} is infinite")
    shadow = standard_part(quotient)
    discarded = sub(quotient, make_real(shadow, precision))
    return DiffResult(quotient=quotient, shadow=shadow, discarded=discarded)


def symbolic_derivative(f: Expr, var: str) -> Expr:
    """Textbook rewrite rules; no simplification beyond dropping x^0.

    Supports constants, variables, eps, H, and the four field operations
    with integer powers.  sqrt and st raise UnsupportedNode: the oracle
    stays in the rational fragment.
    """
    if isinstance(f, (Const, Eps, HUnit)):
        return Const(Fraction(0))
    if isinstance(f, Var):
        return Const(Fraction(1 if f.name == var else 0))
    if isinstance(f, Neg):
        return Neg(symbolic_derivative(f.arg, var))
    if isinstance(f, Add):
        return Add(tuple(symbolic_derivative(a, var) for a in f.args), f.ops)
    if isinstance(f, Mul):
        # the product and quotient rules, folded along the chain
        left, slope = f.args[0], symbolic_derivative(f.args[0], var)
        for op, right in zip(f.ops, f.args[1:]):
            cross = Mul((left, symbolic_derivative(right, var)), "*")
            slope = Add((Mul((slope, right), "*"), cross), "+" if op == "*" else "-")
            if op == "/":
                slope = Mul((slope, Pow(right, 2)), "/")
            left = Mul((left, right), op)
        return slope
    if isinstance(f, Pow):
        if f.exponent == 0:
            return Const(Fraction(0))
        inner = symbolic_derivative(f.base, var)
        scaled = Mul((Const(Fraction(f.exponent)), inner), "*")
        if f.exponent == 1:
            return scaled
        return Mul((scaled, Pow(f.base, f.exponent - 1)), "*")
    if isinstance(f, (Sqrt, St)):
        kind = "sqrt" if isinstance(f, Sqrt) else "st"
        raise UnsupportedNode(f"{kind} is outside the oracle's fragment", f.pos)
    raise TypeError(f"unknown node {f!r}")  # pragma: no cover

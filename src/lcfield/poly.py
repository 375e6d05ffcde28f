"""Sparse multivariate polynomials and gcd-reduced rational functions.

Integer coefficients, a fixed variable tuple per value, and a graded
lexicographic term order (total degree first, then left-to-right
exponent comparison).  The gcd is a primitive pseudo-remainder sequence,
recursing on the variable set; its coefficients can grow fast on inputs
with many variables, which a modular gcd would avoid (ROADMAP item 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational
from typing import Mapping

__all__ = ["Polynomial", "RationalForm", "poly_gcd"]

Monomial = tuple[int, ...]


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


@dataclass(frozen=True, eq=False)
class Polynomial:
    """``terms`` maps exponent tuples to nonzero coefficients, stored in
    descending graded-lex order so the leading term is ``terms[0]``."""

    variables: tuple[str, ...]
    terms: tuple[tuple[Monomial, int], ...]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dict(
        cls, variables: tuple[str, ...], mapping: Mapping[Monomial, int]
    ) -> "Polynomial":
        cleaned = {m: c for m, c in mapping.items() if c != 0}
        ordered = sorted(cleaned.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        return cls(variables, tuple(ordered))

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "Polynomial":
        return cls(variables, ())

    @classmethod
    def const(cls, variables: tuple[str, ...], value: int) -> "Polynomial":
        if not isinstance(value, int):
            raise TypeError(f"integer coefficient required, got {type(value).__name__}")
        if value == 0:
            return cls.zero(variables)
        return cls(variables, (((0,) * len(variables), value),))

    @classmethod
    def var(cls, variables: tuple[str, ...], name: str) -> "Polynomial":
        index = variables.index(name)
        mono = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, ((mono, 1),))

    # -- basics ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or sum(self.terms[0][0]) == 0

    @property
    def leading_coefficient(self) -> int:
        return self.terms[0][1] if self.terms else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _require_same_variables(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_variables(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial.from_dict(self.variables, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_variables(other)
        acc: dict[Monomial, int] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = tuple(x + y for x, y in zip(ma, mb))
                acc[m] = acc.get(m, 0) + ca * cb
        return Polynomial.from_dict(self.variables, acc)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """The q with q * divisor == self over Z, by graded-lex division, or
        ValueError.

        In a monomial order LT(q·d) = LT(q)·LT(d), so each partial remainder
        of an exact division has a leading term that LT(divisor) divides.
        A primitive divisor that divides over Q divides over Z (Gauss's
        lemma), and every divisor here is a gcd or a content.
        """
        self._require_same_variables(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot: dict[Monomial, int] = {}
        work = dict(self.terms)
        dm, dc = divisor.terms[0]
        while work:
            m = max(work, key=_grlex_key)
            c = work.pop(m)
            diff = tuple(x - y for x, y in zip(m, dm))
            factor, rem = divmod(c, dc)
            if any(d < 0 for d in diff) or rem:
                raise ValueError("division is not exact")
            quot[diff] = factor
            for m2, c2 in divisor.terms[1:]:
                mm = tuple(x + y for x, y in zip(diff, m2))
                work[mm] = work.get(mm, 0) - factor * c2
                if work[mm] == 0:
                    del work[mm]
        return Polynomial.from_dict(self.variables, quot)

    # -- content and substitution ---------------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*(c for _, c in self.terms))

    def primitive(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self._divided_by(self.content())

    def _divided_by(self, divisor: int) -> "Polynomial":
        """Each coefficient divided by ``divisor``, which divides them all."""
        return Polynomial(self.variables, tuple((m, c // divisor) for m, c in self.terms))

    def substitute(self, index: int, value: Rational) -> "Polynomial":
        """``q^d · self`` with variable ``index`` set to ``value = p/q``, where
        ``d`` is the degree in that variable: integer coefficients, and zero
        exactly when ``self`` is zero at ``value``.

        The variable tuple is kept and the slot is zero in every term, so
        the result combines with polynomials over the same tuple.
        """
        p, q = value.numerator, value.denominator
        view = self.coefficients_in(index)
        degree = max(view, default=0)
        acc: dict[Monomial, int] = {}
        for k, coeff in view.items():
            factor = p**k * q ** (degree - k)
            for mono, coef in coeff.terms:
                acc[mono] = acc.get(mono, 0) + coef * factor
        return Polynomial.from_dict(self.variables, acc)

    def coefficients_in(self, index: int) -> dict[int, "Polynomial"]:
        """View as a polynomial in variable ``index``: power -> coefficient,
        each coefficient living in the same variable tuple with that slot zeroed.

        Zeroing one slot in terms that share its exponent keeps them distinct
        and in graded-lex order, so each coefficient takes its terms as they come.
        """
        buckets: dict[int, list[tuple[Monomial, int]]] = {}
        for mono, coef in self.terms:
            reduced = mono[:index] + (0,) + mono[index + 1:]
            buckets.setdefault(mono[index], []).append((reduced, coef))
        return {k: Polynomial(self.variables, tuple(terms)) for k, terms in buckets.items()}

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, coef) in enumerate(self.terms):
            factors = []
            for name, exp in zip(self.variables, mono):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            negative = coef < 0
            mag = -coef if negative else coef
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "·".join(factors)
            else:
                body = "·".join([str(mag)] + factors)
            if i == 0:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"


def _normalize_gcd(p: Polynomial) -> Polynomial:
    if p.is_zero:
        return p
    p = p.primitive()
    if p.leading_coefficient < 0:
        p = -p
    return p


def _content_in(view: dict[int, Polynomial]) -> Polynomial:
    """gcd of the coefficients in a nonzero polynomial's one-variable view."""
    first, *rest = view.values()
    cont = _normalize_gcd(first)
    for coeff in rest:
        if cont.is_constant:
            break
        cont = poly_gcd(cont, coeff)
    return cont


def _pseudo_rem(f: Polynomial, g: Polynomial, index: int) -> Polynomial:
    """Pseudo-remainder of f by g in variable ``index`` (up to lc(g) powers)."""
    g_view = g.coefficients_in(index)
    deg_g = max(g_view)
    xvar = Polynomial.var(f.variables, f.variables[index])
    r = f
    while r:
        r_view = r.coefficients_in(index)
        deg_r = max(r_view)
        if deg_r < deg_g:
            break
        r = r * g_view[deg_g] - g * r_view[deg_r] * xvar ** (deg_r - deg_g)
    return r


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Integer-primitive gcd with positive leading coefficient; gcd(0,0) = 0."""
    if f.is_zero:
        return _normalize_gcd(g)
    if g.is_zero:
        return _normalize_gcd(f)
    for index in range(len(f.variables)):
        f_view, g_view = f.coefficients_in(index), g.coefficients_in(index)
        if max(f_view) or max(g_view):
            break
    else:
        return Polynomial.const(f.variables, 1)
    cont_f = _content_in(f_view)
    cont_g = _content_in(g_view)
    shared = poly_gcd(cont_f, cont_g)
    a = f.exact_div(cont_f)
    b = g.exact_div(cont_g)
    if max(f_view) < max(g_view):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b, index)
        if r:
            r = r.exact_div(_content_in(r.coefficients_in(index))).primitive()
        a, b = b, r
    return _normalize_gcd(shared * _normalize_gcd(a))


@dataclass(frozen=True)
class RationalForm:
    """A reduced fraction of polynomials over a shared variable tuple.

    Canonical: gcd(numerator, denominator) = 1, both integer-coefficient
    with joint content 1, and the denominator's graded-lex leading
    coefficient positive.  Structural equality therefore decides equality
    of rational functions.
    """

    numerator: Polynomial
    denominator: Polynomial

    @classmethod
    def make(cls, numerator: Polynomial, denominator: Polynomial) -> "RationalForm":
        numerator._require_same_variables(denominator)
        if denominator.is_zero:
            raise ZeroDivisionError("rational form with zero denominator")
        if numerator.is_zero:
            return cls(
                Polynomial.zero(numerator.variables),
                Polynomial.const(numerator.variables, 1),
            )
        common = poly_gcd(numerator, denominator)
        numerator = numerator.exact_div(common)
        denominator = denominator.exact_div(common)
        joint = math.gcd(numerator.content(), denominator.content())
        if denominator.leading_coefficient < 0:
            joint = -joint
        return cls(numerator._divided_by(joint), denominator._divided_by(joint))

    @property
    def is_polynomial(self) -> bool:
        return self.denominator.is_constant

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def render(self) -> str:
        if self.denominator == Polynomial.const(self.denominator.variables, 1):
            return self.numerator.render()
        return f"({self.numerator.render()}) / ({self.denominator.render()})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RationalForm({self.render()!r})"

"""Sparse multivariate polynomials and gcd-reduced rational functions.

Exact rational coefficients, a fixed variable tuple per value, and a
graded lexicographic term order (total degree first, then left-to-right
exponent comparison).  The gcd is a primitive pseudo-remainder sequence,
recursing on the variable set; sizes here stay small, so clarity beats
asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

__all__ = ["Polynomial", "RationalForm", "poly_gcd"]

Monomial = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


@dataclass(frozen=True, eq=False)
class Polynomial:
    """``terms`` maps exponent tuples to nonzero coefficients, stored in
    descending graded-lex order so the leading term is ``terms[0]``."""

    variables: tuple[str, ...]
    terms: tuple[tuple[Monomial, Fraction], ...]

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dict(
        cls, variables: tuple[str, ...], mapping: Mapping[Monomial, Fraction]
    ) -> "Polynomial":
        cleaned = {m: c for m, c in mapping.items() if c != 0}
        ordered = sorted(cleaned.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        return cls(variables, tuple(ordered))

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "Polynomial":
        return cls(variables, ())

    @classmethod
    def const(cls, variables: tuple[str, ...], value: Fraction | int) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return cls.zero(variables)
        return cls(variables, (((0,) * len(variables), value),))

    @classmethod
    def var(cls, variables: tuple[str, ...], name: str) -> "Polynomial":
        index = variables.index(name)
        mono = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, ((mono, _ONE),))

    # -- basics ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or sum(self.terms[0][0]) == 0

    @property
    def leading_monomial(self) -> Monomial:
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        return self.terms[0][1] if self.terms else _ZERO

    @property
    def total_degree(self) -> int:
        return sum(self.terms[0][0]) if self.terms else -1

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return _ZERO
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

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
            acc[m] = acc.get(m, _ZERO) + c
        return Polynomial.from_dict(self.variables, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_variables(other)
        acc: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = tuple(x + y for x, y in zip(ma, mb))
                acc[m] = acc.get(m, _ZERO) + ca * cb
        return Polynomial.from_dict(self.variables, acc)

    def scale(self, factor: Fraction | int) -> "Polynomial":
        factor = Fraction(factor)
        if factor == 0:
            return Polynomial.zero(self.variables)
        return Polynomial(
            self.variables, tuple((m, c * factor) for m, c in self.terms)
        )

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

    def divmod_by(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Single-divisor division in graded-lex order.

        Returns (quotient, remainder) with no remainder term divisible by
        the divisor's leading monomial; the remainder is zero exactly when
        the divisor divides self.
        """
        self._require_same_variables(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot: dict[Monomial, Fraction] = {}
        rem: dict[Monomial, Fraction] = {}
        work = dict(self.terms)
        dm, dc = divisor.terms[0]
        while work:
            m = max(work, key=_grlex_key)
            c = work.pop(m)
            diff = tuple(x - y for x, y in zip(m, dm))
            if all(d >= 0 for d in diff):
                factor = c / dc
                quot[diff] = quot.get(diff, _ZERO) + factor
                for m2, c2 in divisor.terms[1:]:
                    mm = tuple(x + y for x, y in zip(diff, m2))
                    work[mm] = work.get(mm, _ZERO) - factor * c2
                    if work[mm] == 0:
                        del work[mm]
            else:
                rem[m] = rem.get(m, _ZERO) + c
        return (
            Polynomial.from_dict(self.variables, quot),
            Polynomial.from_dict(self.variables, rem),
        )

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        q, r = self.divmod_by(divisor)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    # -- content and evaluation ---------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self = c * (integer-primitive polynomial)."""
        if self.is_zero:
            return _ZERO
        num = 0
        den = 1
        for _, c in self.terms:
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.content())

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        total = _ZERO
        for mono, coef in self.terms:
            value = coef
            for name, exp in zip(self.variables, mono):
                if exp:
                    value *= point[name] ** exp
            total += value
        return total

    def substitute(self, index: int, value: Fraction | int) -> "Polynomial":
        """``self`` with variable ``index`` set to ``value``.

        The variable tuple is kept and the slot is zero in every term, so
        the result combines with polynomials over the same tuple.
        """
        acc: dict[Monomial, Fraction] = {}
        for mono, coef in self.terms:
            k = mono[index]
            if k:
                if not value:
                    continue
                coef = coef * value**k
                mono = mono[:index] + (0,) + mono[index + 1:]
            acc[mono] = acc.get(mono, _ZERO) + coef
        return Polynomial.from_dict(self.variables, acc)

    def degree_in(self, index: int) -> int:
        if self.is_zero:
            return -1
        return max(m[index] for m, _ in self.terms)

    def coefficients_in(self, index: int) -> dict[int, "Polynomial"]:
        """View as a polynomial in variable ``index``: power -> coefficient,
        each coefficient living in the same variable tuple with that slot zeroed."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coef in self.terms:
            k = mono[index]
            reduced = tuple(0 if i == index else e for i, e in enumerate(mono))
            bucket = buckets.setdefault(k, {})
            bucket[reduced] = bucket.get(reduced, _ZERO) + coef
        return {
            k: Polynomial.from_dict(self.variables, mapping)
            for k, mapping in buckets.items()
        }

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


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def _normalize_gcd(p: Polynomial) -> Polynomial:
    if p.is_zero:
        return p
    p = p.primitive()
    if p.leading_coefficient < 0:
        p = -p
    return p


def _active_variables(f: Polynomial, g: Polynomial) -> list[int]:
    indices = []
    for i in range(len(f.variables)):
        if f.degree_in(i) > 0 or g.degree_in(i) > 0:
            indices.append(i)
    return indices


def _content_in(p: Polynomial, index: int) -> Polynomial:
    cont = Polynomial.zero(p.variables)
    for coeff in p.coefficients_in(index).values():
        cont = poly_gcd(cont, coeff)
        if cont.is_constant and not cont.is_zero:
            break
    if cont.is_zero:
        return Polynomial.const(p.variables, 1)
    return cont


def _pseudo_rem(f: Polynomial, g: Polynomial, index: int) -> Polynomial:
    """Pseudo-remainder of f by g in variable ``index`` (up to lc(g) powers)."""
    lc_g = g.coefficients_in(index)[g.degree_in(index)]
    deg_g = g.degree_in(index)
    xvar = Polynomial.var(f.variables, f.variables[index])
    r = f
    while not r.is_zero and r.degree_in(index) >= deg_g:
        deg_r = r.degree_in(index)
        lc_r = r.coefficients_in(index)[deg_r]
        shift = xvar ** (deg_r - deg_g)
        r = r * lc_g - g * lc_r * shift
    return r


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Integer-primitive gcd with positive leading coefficient; gcd(0,0) = 0."""
    if f.is_zero:
        return _normalize_gcd(g)
    if g.is_zero:
        return _normalize_gcd(f)
    active = _active_variables(f, g)
    if not active:
        return Polynomial.const(f.variables, 1)
    index = active[0]
    cont_f = _content_in(f, index)
    cont_g = _content_in(g, index)
    shared = poly_gcd(cont_f, cont_g)
    a = f.exact_div(cont_f)
    b = g.exact_div(cont_g)
    if a.degree_in(index) < b.degree_in(index):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b, index)
        if not r.is_zero:
            r = r.exact_div(_content_in(r, index)).primitive()
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
        joint = _fraction_gcd(numerator.content(), denominator.content())
        numerator = numerator.scale(1 / joint)
        denominator = denominator.scale(1 / joint)
        if denominator.leading_coefficient < 0:
            numerator = -numerator
            denominator = -denominator
        return cls(numerator, denominator)

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

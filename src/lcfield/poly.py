"""Sparse multivariate polynomials and gcd-reduced rational functions.

Integer coefficients, a fixed variable tuple per value, and a graded
lexicographic term order (total degree first, then left-to-right
exponent comparison).  The gcd first tries a coprimality certificate:
univariate images over GF(2^61 - 1), one per variable in which both
polynomials have positive degree, whose gcds are all 1 only when the
polynomials are coprime.  Most pairs reduced here are coprime, and they
get 1 at once.  Every other pair falls back to a primitive
pseudo-remainder sequence, recursing on the variable set, which alone
computes a gcd of positive degree; its coefficients can grow fast on
inputs with many variables, which a modular gcd would avoid (ROADMAP
item 3).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from numbers import Rational
from typing import Mapping

from .core import check_power, number_text, repr_text, signed_sum

__all__ = ["Polynomial", "RationalForm", "poly_gcd"]

Monomial = tuple[int, ...]

# The coprimality certificate works mod this prime, 2^61 - 1, at points
# drawn from a generator seeded with _POINT_SEED, so every run draws the
# same points.
_PRIME = (1 << 61) - 1
_POINT_SEED = 61


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


@dataclass(frozen=True)
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
    def is_constant(self) -> bool:
        return not self.terms or sum(self.terms[0][0]) == 0

    @property
    def leading_coefficient(self) -> int:
        return self.terms[0][1] if self.terms else 0

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
        if not divisor:
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
        check_power(max(abs(p), q), degree)  # max(|p|, q)^d: refused past the digit cap
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
        def unit(mono: Monomial) -> str:
            factors = zip(self.variables, mono)
            return "·".join([n if e == 1 else f"{n}^{number_text(e)}" for n, e in factors if e])

        return signed_sum((coef, 1, unit(mono)) for mono, coef in self.terms)

    __str__ = render

    def __repr__(self) -> str:
        return f"Polynomial({repr_text(self)})"


def _normalize_gcd(p: Polynomial) -> Polynomial:
    return p._divided_by(-p.content() if p.leading_coefficient < 0 else p.content())


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


@functools.lru_cache(maxsize=None)
def _point(size: int) -> tuple[int, ...]:
    """The certificate's evaluation point for ``size`` variables: the same
    in every call and every run."""
    rng = random.Random(_POINT_SEED)
    return tuple(rng.randrange(1, _PRIME) for _ in range(size))


def _degrees(p: Polynomial) -> list[int]:
    """The degree of a nonzero ``p`` in each variable."""
    return [max(column) for column in zip(*(mono for mono, _ in p.terms))]


def _image(p: Polynomial, index: int, degree: int, point: tuple[int, ...]) -> list[int]:
    """``p``, of ``degree`` in variable ``index``, mod _PRIME with every
    other variable set to its coordinate of ``point``: coefficients mod
    _PRIME, lowest degree first; the last is 0 when the image loses degree."""
    image = [0] * (degree + 1)
    for mono, coef in p.terms:
        for j, e in enumerate(mono):
            if e and j != index:
                coef = coef * pow(point[j], e, _PRIME) % _PRIME
        image[mono[index]] += coef
    return [c % _PRIME for c in image]


def _coprime_mod_prime(a: list[int], b: list[int]) -> bool:
    """Whether the gcd over GF(_PRIME) of two univariate images, each with
    a nonzero last coefficient, is a constant, by Euclid; both lists are
    used up."""
    while len(b) > 1:
        inverse = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            factor = a[-1] * inverse % _PRIME
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] = (a[shift + k] - factor * c) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(b) == 1


def _certified_coprime(f: Polynomial, g: Polynomial) -> bool:
    """True only if nonzero ``f`` and ``g`` share no factor of positive
    degree.  False claims nothing: the images below could not rule one out.

    For each variable x_i in which both have positive degree, every other
    variable is set to the same seeded point mod _PRIME.  The verdict is
    True when, for every such x_i, both images keep their degree in x_i
    and their gcd over GF(_PRIME) is 1; if any image loses degree, it is
    False.  Sound (Brown, JACM 18(4), 1971): a common factor G of
    positive degree has positive degree in some x_i, and both f and g
    then do too.  The leading coefficient in x_i of G divides that of f,
    so while f's image keeps its degree, G's image keeps deg_i G > 0, and
    it divides both images, whose gcd is then not 1.  With no such x_i
    at all, no G can exist.
    """
    degrees_f, degrees_g = _degrees(f), _degrees(g)
    point = _point(len(f.variables))
    for index, (df, dg) in enumerate(zip(degrees_f, degrees_g)):
        if df and dg:
            a, b = _image(f, index, df, point), _image(g, index, dg, point)
            if not (a[-1] and b[-1] and _coprime_mod_prime(a, b)):
                return False
    return True


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Integer-primitive gcd with positive leading coefficient; gcd(0,0) = 0.

    A pair that ``_certified_coprime`` proves coprime gets 1 at once; any
    other pair runs the primitive pseudo-remainder sequence below."""
    if not f:
        return _normalize_gcd(g)
    if not g:
        return _normalize_gcd(f)
    f._require_same_variables(g)
    if _certified_coprime(f, g):
        return Polynomial.const(f.variables, 1)
    for index in range(len(f.variables)):
        f_view, g_view = f.coefficients_in(index), g.coefficients_in(index)
        if max(f_view) or max(g_view):  # always found: two constants are certified
            break
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
        if not denominator:
            raise ZeroDivisionError("rational form with zero denominator")
        if not numerator:
            return cls(
                Polynomial.zero(numerator.variables),
                Polynomial.const(numerator.variables, 1),
            )
        common = poly_gcd(numerator, denominator)
        if not common.is_constant:
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
        return not self.numerator

    def render(self) -> str:
        if self.denominator == Polynomial.const(self.denominator.variables, 1):
            return self.numerator.render()
        return f"({self.numerator.render()}) / ({self.denominator.render()})"

    __str__ = render

    def __repr__(self) -> str:
        return f"RationalForm({repr_text(self)})"

"""Sparse multivariate polynomials and gcd-reduced rational functions.

Integer coefficients, a fixed variable tuple per value, and a graded
lexicographic term order (total degree first, then left-to-right
exponent comparison).  Each monomial is one ``int`` key (packed exponent
vectors, Monagan and Pearce, CASC 2007): ``width``-bit fields holding
the total degree, then each exponent, so key order is graded-lex order,
a monomial product is a key sum and a constant's key is 0.  ``width`` is
the least of 16, 32, 64, ... bits whose fields keep the degree below
their top bit, a guard that a key difference sets exactly when an
exponent underflows.  Each result is repacked to its own width, so equal
polynomials have equal ``terms``, as ``RationalForm`` equality needs.
The gcd first tries a coprimality certificate: univariate images over
GF(2^61 - 1), one per variable in which both polynomials have positive
degree, whose gcds are all 1 only when the polynomials are coprime.
Most pairs reduced here are coprime, and they get 1 at once.  Every
other pair falls back to a primitive pseudo-remainder sequence,
recursing on the variable set, which alone computes a gcd of positive
degree; its coefficients can grow fast on inputs with many variables,
which a modular gcd would avoid (ROADMAP item 3).
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from numbers import Rational

from .core import check_power, number_text, repr_text, signed_sum

__all__ = ["Polynomial", "RationalForm", "poly_gcd"]

# The coprimality certificate works mod this prime, 2^61 - 1, at points
# drawn from a generator seeded with _POINT_SEED, so every run draws the
# same points.
_PRIME = (1 << 61) - 1
_POINT_SEED = 61

# The narrowest key width in bits; the terms of 1.
_WIDTH = 16
_ONE = ((0, 1),)


def _width(degree: int) -> int:
    """The key width of a polynomial of this total degree."""
    return _WIDTH if degree < 1 << (_WIDTH - 1) else 1 << degree.bit_length().bit_length()


def _key(exponents: tuple[int, ...], width: int) -> int:
    return functools.reduce(lambda key, e: key << width | e, exponents, sum(exponents))


@dataclass(frozen=True)
class Polynomial:
    """``terms`` holds ``(key, coefficient)`` pairs, nonzero coefficients
    only, in descending key (so graded-lex) order; ``width`` is the keys'."""

    variables: tuple[str, ...]
    terms: tuple[tuple[int, int], ...]
    width: int = _WIDTH

    # -- construction ---------------------------------------------------

    @classmethod
    def from_dict(cls, variables: tuple[str, ...], mapping: dict, width: int) -> "Polynomial":
        """Keys at ``width`` -> coefficients; zeros dropped, keys narrowed if the degree allows."""
        terms = tuple(sorted([t for t in mapping.items() if t[1]], reverse=True))
        own = _width(terms[0][0] >> len(variables) * width) if terms else _WIDTH
        return cls(variables, terms, width)._packed(own)

    @classmethod
    def zero(cls, variables: tuple[str, ...]) -> "Polynomial":
        return cls(variables, ())

    @classmethod
    def const(cls, variables: tuple[str, ...], value: int) -> "Polynomial":
        if not isinstance(value, int):
            raise TypeError(f"integer coefficient required, got {type(value).__name__}")
        if value == 0:
            return cls.zero(variables)
        return cls(variables, ((0, value),))

    @classmethod
    def var(cls, variables: tuple[str, ...], name: str) -> "Polynomial":
        # degree 1 in the top field and 1 in the variable's own field
        size, index = len(variables), variables.index(name)
        return cls(variables, ((1 << _WIDTH * size | 1 << _WIDTH * (size - 1 - index), 1),))

    def _packed(self, width: int) -> "Polynomial":
        """The same polynomial with its keys at ``width``."""
        if width == self.width:
            return self
        terms = tuple((_key(mono, width), c) for mono, (_, c) in zip(self.exponents(), self.terms))
        return Polynomial(self.variables, terms, width)

    # -- basics ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    @property
    def leading_coefficient(self) -> int:
        return self.terms[0][1] if self.terms else 0

    @property
    def degree(self) -> int:
        """The total degree, the leading key's top field; 0 for zero."""
        return self.terms[0][0] >> len(self.variables) * self.width if self.terms else 0

    def exponents(self) -> list[tuple[int, ...]]:
        """Each term's exponents, in term order."""
        size, width = len(self.variables), self.width
        shifts, mask = [width * i for i in reversed(range(size))], (1 << width) - 1
        return [tuple([key >> s & mask for s in shifts]) for key, _ in self.terms]

    def used(self) -> set[int]:
        """The indices of the variables that occur in some term."""
        seen = functools.reduce(operator.or_, (key for key, _ in self.terms), 0)
        size, mask = len(self.variables), (1 << self.width) - 1
        return {i for i in range(size) if seen >> self.width * (size - 1 - i) & mask}

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
        width = max(self.width, other.width)
        acc = dict(self._packed(width).terms)
        for m, c in other._packed(width).terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial.from_dict(self.variables, acc, width)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, tuple((m, -c) for m, c in self.terms), self.width)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_variables(other)
        if _ONE in (self.terms, other.terms):
            return other if self.terms == _ONE else self
        # the product's degree is the sum: no field of a key sum can overflow
        width = _width(self.degree + other.degree)
        left, right = self._packed(width).terms, other._packed(width).terms
        acc: dict[int, int] = {}
        for ma, ca in left:
            for mb, cb in right:
                m = ma + mb
                acc[m] = acc.get(m, 0) + ca * cb
        return Polynomial.from_dict(self.variables, acc, width)

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
        of an exact division has a leading term that LT(divisor) divides:
        its key minus LT(divisor)'s is nonnegative with every guard bit
        clear.  A primitive divisor that divides over Q divides over Z
        (Gauss's lemma), and every divisor here is a gcd or a content.
        """
        self._require_same_variables(divisor)
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        width = max(self.width, divisor.width)
        guard = sum(1 << width * i for i in range(1, len(self.variables) + 2)) >> 1
        (dm, dc), *rest = divisor._packed(width).terms
        quot: dict[int, int] = {}
        work = dict(self._packed(width).terms)
        while work:
            m = max(work)
            c = work.pop(m)
            diff = m - dm
            factor, rem = divmod(c, dc)
            if diff < 0 or diff & guard or rem:
                raise ValueError("division is not exact")
            quot[diff] = factor
            for m2, c2 in rest:
                mm = diff + m2
                work[mm] = work.get(mm, 0) - factor * c2
                if work[mm] == 0:
                    del work[mm]
        return Polynomial.from_dict(self.variables, quot, width)

    # -- content and substitution ---------------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients; 0 for the zero polynomial."""
        return math.gcd(*(c for _, c in self.terms))

    def primitive(self) -> "Polynomial":
        return self._divided_by(self.content())

    def _divided_by(self, divisor: int) -> "Polynomial":
        """Each coefficient divided by ``divisor``, which divides them all."""
        terms = tuple((m, c // divisor) for m, c in self.terms)
        return Polynomial(self.variables, terms, self.width)

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
        acc: dict[int, int] = {}
        for k, coeff in view.items():
            factor = p**k * q ** (degree - k)
            for mono, coef in coeff._packed(self.width).terms:
                acc[mono] = acc.get(mono, 0) + coef * factor
        return Polynomial.from_dict(self.variables, acc, self.width)

    def coefficients_in(self, index: int) -> dict[int, "Polynomial"]:
        """View as a polynomial in variable ``index``: power -> coefficient,
        each coefficient living in the same variable tuple with that slot
        zeroed: subtracted from the key's field and from its degree."""
        size, width = len(self.variables), self.width
        shift, mask = width * (size - 1 - index), (1 << width) - 1
        unit = 1 << shift | 1 << width * size
        buckets: dict[int, dict[int, int]] = {}
        for key, coef in self.terms:
            e = key >> shift & mask
            buckets.setdefault(e, {})[key - e * unit] = coef
        return {e: Polynomial.from_dict(self.variables, b, width) for e, b in buckets.items()}

    def render(self) -> str:
        def unit(mono: tuple[int, ...]) -> str:
            factors = zip(self.variables, mono)
            return "·".join([n if e == 1 else f"{n}^{number_text(e)}" for n, e in factors if e])

        monos = self.exponents()
        return signed_sum((coef, 1, unit(mono)) for mono, (_, coef) in zip(monos, self.terms))

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


def _image(p: Polynomial, monos: list, index: int, span: tuple, point: tuple) -> list[int]:
    """``p``, with exponents ``monos`` and of lowest and highest degree
    ``span`` in variable ``index``, divided by that variable to the lowest
    degree, mod _PRIME with every other variable set to its coordinate of
    ``point``: coefficients mod _PRIME, lowest degree first; the last is 0
    when the image loses degree."""
    low, degree = span
    image = [0] * (degree - low + 1)
    for mono, (_, coef) in zip(monos, p.terms):
        for j, e in enumerate(mono):
            if e and j != index:
                coef = coef * pow(point[j], e, _PRIME) % _PRIME
        image[mono[index] - low] += coef
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

    A variable that divides every term of both is a common factor, and
    the verdict is False.  Otherwise, for each variable x_i in which both
    have positive degree, each is divided by its own lowest power of x_i
    and every other variable is set to the same seeded point mod _PRIME,
    so an image's length is bounded by the spread of its exponents in
    x_i, not by their size.  The verdict is True when, for every such
    x_i, both images keep their degree in x_i and their gcd over
    GF(_PRIME) is 1; if any image loses degree, it is False.  Sound
    (Brown, JACM 18(4), 1971): an irreducible common factor G of positive
    degree is no variable, which would divide every term of both; it has
    positive degree in some x_i, and f and g then do too.  G is prime to
    x_i, so it divides both quotients by powers of x_i.  The leading
    coefficient in x_i of G divides that of f's quotient, which is f's,
    so while f's image keeps its degree, G's image keeps deg_i G > 0, and
    it divides both images, whose gcd is then not 1.  With no such x_i
    at all, no G can exist.
    """
    monos_f, monos_g = f.exponents(), g.exponents()
    spans = [[(min(c), max(c)) for c in zip(*monos)] for monos in (monos_f, monos_g)]
    if any(sf[0] and sg[0] for sf, sg in zip(*spans)):
        return False
    point = _point(len(f.variables))
    for index, (sf, sg) in enumerate(zip(*spans)):
        if sf[1] and sg[1]:
            a, b = _image(f, monos_f, index, sf, point), _image(g, monos_g, index, sg, point)
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
    index = min(f.used() | g.used())  # some variable occurs: two constants are certified
    f_view, g_view = f.coefficients_in(index), g.coefficients_in(index)
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
            return cls(numerator, Polynomial(numerator.variables, _ONE))
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
        if self.denominator.terms == _ONE:
            return self.numerator.render()
        return f"({self.numerator.render()}) / ({self.denominator.render()})"

    __str__ = render

    def __repr__(self) -> str:
        return f"RationalForm({repr_text(self)})"

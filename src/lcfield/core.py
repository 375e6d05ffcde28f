"""Exact arithmetic on a computable non-Archimedean number line.

A value is a finite formal series over a fixed positive infinitesimal
``eps``: exact rational coefficients attached to strictly increasing
rational exponents.  ``eps`` itself is ``make_monomial(1, 1)`` and its
reciprocal ``H = make_monomial(1, -1)`` is the canonical infinite
element.  Nonzero values are classified by their leading exponent:
positive means infinitesimal, zero appreciable, negative infinite.  The
zero series has no terms; by convention its leading exponent is plus
infinity.

Every value carries a relative precision ``T``: no term is stored at or
beyond ``T`` exponent units above the leading exponent.  Addition and
multiplication are exact whenever the exact result fits inside that
window; ``inverse`` and ``sqrt`` share one power-series recurrence
that expands ``a ** alpha`` up to the window's edge, so a product such
as ``mul(a, inverse(a))`` agrees with the exact answer to the guaranteed
order only.

Values are immutable and every operation is a pure function, so values
may be freely shared across threads.  Floats are rejected everywhere:
stored coefficients and exponents are ``fractions.Fraction``.  The
arithmetic itself runs on an integer lattice: ``add``, ``mul`` and the
power recurrence scale exponents (and, in ``mul``, coefficients) by a
common denominator, work on ``int``s, and turn only the terms they keep
back into ``Fraction``s.  Scaling by a common denominator is a bijection
onto the integers, so no answer differs from plain rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "DEFAULT_PRECISION",
    "Rational",
    "LCError",
    "DivisionByZero",
    "NegativeLeadingCoefficient",
    "NonSquareLeadingCoefficient",
    "InfiniteOperand",
    "Classification",
    "LCNumber",
    "make_real",
    "make_monomial",
    "eps",
    "big_h",
    "add",
    "sub",
    "neg",
    "mul",
    "inverse",
    "power",
    "sqrt",
    "compare",
    "classify",
    "standard_part",
    "is_infinitely_close",
    "tlh_reduce",
    "agrees_to_guaranteed_order",
    "MAX_DIGITS",
    "check_printable",
]

DEFAULT_PRECISION = 16

# CPython turns an int of more than 4300 digits into text only if
# sys.set_int_max_str_digits allows it, so number literals and printed
# numerators, denominators and exponents are held to this many digits.
MAX_DIGITS = 4000
_DIGIT_BOUND = 10**MAX_DIGITS

# Assignable quantities are exact rationals throughout.
Rational = Fraction

RationalLike = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)
_HALF = Fraction(1, 2)


class LCError(ArithmeticError):
    """Base class for arithmetic errors on series values.

    ``position`` is filled in by the expression evaluator so an error can
    point back at the offending spot in source text; it stays ``None``
    for direct library calls.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DivisionByZero(LCError, ZeroDivisionError):
    """Inverse or division applied to the zero series."""


class NegativeLeadingCoefficient(LCError):
    """Square root of a series whose leading coefficient is negative."""


class NonSquareLeadingCoefficient(LCError):
    """Square root whose leading coefficient has no rational root.

    Coefficients must stay rational, so ``sqrt`` is defined only when the
    leading coefficient is a perfect square of a rational.
    """


class InfiniteOperand(LCError):
    """Standard part requested for an infinite value."""


class Classification(Enum):
    ZERO = "zero"
    INFINITESIMAL = "infinitesimal"
    APPRECIABLE = "appreciable"
    INFINITE = "infinite"


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _check_precision(precision: int) -> int:
    if not isinstance(precision, int) or precision < 1:
        raise ValueError(f"precision must be a positive integer, got {precision!r}")
    return precision


@dataclass(frozen=True, eq=False)
class LCNumber:
    """A truncated formal series ``sum q_i * eps^(r_i)``.

    ``terms`` holds ``(exponent, coefficient)`` pairs with nonzero
    rational coefficients and strictly ascending rational exponents, all
    inside the relative precision window.  Build values through
    :func:`make_real`, :func:`make_monomial` or :meth:`from_terms`;
    direct construction skips normalization.

    Equality compares terms only: precision is a statement about which
    exponents are guaranteed, not part of the value.
    """

    terms: tuple[tuple[Fraction, Fraction], ...]
    precision: int = DEFAULT_PRECISION

    @classmethod
    def from_terms(
        cls,
        pairs: Iterable[tuple[RationalLike, RationalLike]],
        precision: int = DEFAULT_PRECISION,
    ) -> "LCNumber":
        items = [(_as_fraction(e), _as_fraction(c)) for e, c in pairs]
        d = lcm(*(e.denominator for e, _ in items))
        merged: dict[int, Fraction] = {}
        for e, c in items:
            n = e.numerator * (d // e.denominator)
            merged[n] = merged.get(n, _ZERO) + c
        return _normalize(merged, d, _check_precision(precision))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_coefficient(self) -> Fraction | None:
        return self.terms[0][1] if self.terms else None

    @property
    def window(self) -> Fraction | None:
        """Exclusive upper bound of guaranteed exponents; ``None`` means unbounded."""
        if not self.terms:
            return None
        return self.terms[0][0] + self.precision

    def coefficient(self, exponent: RationalLike) -> Fraction:
        e = _as_fraction(exponent)
        for exp, coef in self.terms:
            if exp == e:
                return coef
            if exp > e:
                break
        return _ZERO

    def __iter__(self) -> Iterator[tuple[Fraction, Fraction]]:
        return iter(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [{"exp": str(e), "coef": str(c)} for e, c in self.terms],
            "precision": self.precision,
        }

    def render(self) -> str:
        """Ascending-exponent text form, e.g. ``1 - 4·eps`` or ``eps^-1``."""
        if not self.terms:
            return "0"
        parts = []
        for i, (exp, coef) in enumerate(self.terms):
            negative = coef < 0
            mag = -coef if negative else coef
            if exp == 0:
                body = str(mag)
            else:
                unit = "eps" if exp == 1 else f"eps^{exp}"
                body = unit if mag == 1 else f"{mag}·{unit}"
            if i == 0:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LCNumber({self.render()!r}, precision={self.precision})"

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        coerced = _coerce(other, self.precision)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __lt__(self, other):
        return self._order(other, (-1,))

    def __le__(self, other):
        return self._order(other, (-1, 0))

    def __gt__(self, other):
        return self._order(other, (1,))

    def __ge__(self, other):
        return self._order(other, (0, 1))

    def _order(self, other, accepted: tuple[int, ...]):
        coerced = _coerce(other, self.precision)
        if coerced is None:
            return NotImplemented
        return compare(self, coerced) in accepted

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        return self._apply(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, sub)

    def __rsub__(self, other):
        return self._apply(other, sub, reflected=True)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return self._apply(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(other, _div)

    def __rtruediv__(self, other):
        return self._apply(other, _div, reflected=True)

    def _apply(self, other, op, reflected: bool = False):
        coerced = _coerce(other, self.precision)
        if coerced is None:
            return NotImplemented
        return op(coerced, self) if reflected else op(self, coerced)

    def __pow__(self, exponent: int):
        return power(self, exponent)


def _div(a: LCNumber, b: LCNumber) -> LCNumber:
    return mul(a, inverse(b))


def _coerce(value: object, precision: int) -> LCNumber | None:
    if isinstance(value, LCNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return make_real(value, precision)
    return None


def _normalize(
    merged: Mapping[int, Fraction],
    d: int,
    precision: int,
    bound: int | None = None,
) -> LCNumber:
    """Turn a lattice map ``n -> coefficient of eps^(n/d)`` into an LCNumber.

    ``bound`` is an absolute cutoff on the same lattice: the inputs only
    vouch for terms below it, so nothing at or above it may be kept or
    claimed.
    """
    nonzero = {
        n: c for n, c in merged.items() if c and (bound is None or n < bound)
    }
    if not nonzero:
        return LCNumber((), precision)
    lead = min(nonzero)
    if bound is not None:
        # The merge is exact, so the result is vouched for on the whole
        # of [lead, bound); the relative claim is measured from wherever
        # the lead landed after cancellation.  Integer precision cannot
        # express a fractional remainder; round down, conceding a sliver
        # of known terms rather than overclaiming.
        precision = max(1, (bound - lead) // d)
    cutoff = lead + precision * d
    kept = sorted(n for n in nonzero if n < cutoff)
    return LCNumber(tuple((Fraction(n, d), nonzero[n]) for n in kept), precision)


# -- constructors ------------------------------------------------------


def make_real(q: RationalLike, precision: int = DEFAULT_PRECISION) -> LCNumber:
    """Embed a rational as an appreciable value (or zero)."""
    q = _as_fraction(q)
    _check_precision(precision)
    if q == 0:
        return LCNumber((), precision)
    return LCNumber(((_ZERO, q),), precision)


def make_monomial(
    q: RationalLike, r: RationalLike, precision: int = DEFAULT_PRECISION
) -> LCNumber:
    """The single-term series ``q * eps^r``; zero when ``q == 0``."""
    q = _as_fraction(q)
    r = _as_fraction(r)
    _check_precision(precision)
    if q == 0:
        return LCNumber((), precision)
    return LCNumber(((r, q),), precision)


def eps(precision: int = DEFAULT_PRECISION) -> LCNumber:
    """The canonical positive infinitesimal."""
    return make_monomial(1, 1, precision)


def big_h(precision: int = DEFAULT_PRECISION) -> LCNumber:
    """The canonical infinite element ``H = eps**-1``."""
    return make_monomial(1, -1, precision)


# -- ring operations ---------------------------------------------------


def add(a: LCNumber, b: LCNumber) -> LCNumber:
    """Exact sum, claimed only below the nearer of the two windows.

    Exponents are merged as integers over their common denominator ``d``;
    coefficients stay ``Fraction``.
    """
    precision = min(a.precision, b.precision)
    d = lcm(*(e.denominator for e, _ in a.terms), *(e.denominator for e, _ in b.terms))
    merged = {e.numerator * (d // e.denominator): c for e, c in a.terms}
    for e, c in b.terms:
        n = e.numerator * (d // e.denominator)
        merged[n] = merged.get(n, _ZERO) + c
    windows = [
        x.terms[0][0].numerator * (d // x.terms[0][0].denominator) + x.precision * d
        for x in (a, b)
        if x.terms
    ]
    return _normalize(merged, d, precision, min(windows) if windows else None)


def neg(a: LCNumber) -> LCNumber:
    return LCNumber(tuple((e, -c) for e, c in a.terms), a.precision)


def sub(a: LCNumber, b: LCNumber) -> LCNumber:
    return add(a, neg(b))


def mul(a: LCNumber, b: LCNumber) -> LCNumber:
    """Product, truncated to the window of its (never cancelling) lead.

    The convolution runs on integers only: exponents over their common
    denominator ``d``, coefficients as numerators over each operand's
    common coefficient denominator, so each output term costs one
    ``Fraction`` at the end.
    """
    precision = min(a.precision, b.precision)
    if not a.terms or not b.terms:
        return LCNumber((), precision)
    d = lcm(*(e.denominator for e, _ in a.terms), *(e.denominator for e, _ in b.terms))
    qa = lcm(*(c.denominator for _, c in a.terms))
    qb = lcm(*(c.denominator for _, c in b.terms))
    left = [
        (e.numerator * (d // e.denominator), c.numerator * (qa // c.denominator))
        for e, c in a.terms
    ]
    right = [
        (e.numerator * (d // e.denominator), c.numerator * (qb // c.denominator))
        for e, c in b.terms
    ]
    # The leading pair never cancels, so the product's window is known up front.
    bound = left[0][0] + right[0][0] + precision * d
    acc: dict[int, int] = {}
    for ka, na in left:
        limit = bound - ka
        for kb, nb in right:
            if kb >= limit:
                break  # b's exponents ascend, later pairs only grow
            k = ka + kb
            acc[k] = acc.get(k, 0) + na * nb
    q = qa * qb
    return _normalize({k: Fraction(n, q) for k, n in acc.items()}, d, precision)


def _series_power(a: LCNumber, alpha: Fraction, lead: Fraction) -> LCNumber:
    """``a ** alpha`` for nonzero ``a``, expanded to the precision window.

    ``lead`` is ``c0 ** alpha`` for the leading coefficient ``c0``.  With
    ``a = c0·eps^e0·(1 + t)``, ``b = (1 + t)^alpha`` satisfies
    ``(1 + t)·D(b) = alpha·D(t)·b``, where ``D`` multiplies each term by its
    exponent.  Hence J.C.P. Miller's recurrence
    ``e·b_e = sum_f ((alpha+1)·f - e)·t_f·b_(e-f)`` fills every exponent the
    tail reaches below the window, in ascending order.  It is homogeneous in
    the exponents, so it runs on integers over a common denominator ``d`` of
    the exponents and of the result's shift ``alpha·e0``.
    """
    e0, c0 = a.terms[0]
    shift = alpha * e0
    if len(a.terms) == 1:
        return LCNumber(((shift, lead),), a.precision)
    d = lcm(shift.denominator, *(e.denominator for e, _ in a.terms))
    n0 = e0.numerator * (d // e0.denominator)
    steps = [(e.numerator * (d // e.denominator) - n0, c / c0) for e, c in a.terms[1:]]
    cutoff = a.precision * d
    reach = {0}
    frontier = reach
    while frontier:
        frontier = {x + k for x in frontier for k, _ in steps if x + k < cutoff} - reach
        reach |= frontier
    # alpha = p/q; both sides of the recurrence are scaled by q.
    p, q = alpha.numerator, alpha.denominator
    b = {0: _ONE}
    for e in sorted(reach)[1:]:
        acc = _ZERO
        for k, t in steps:
            prev = b.get(e - k)
            if prev is not None:
                acc += ((p + q) * k - q * e) * t * prev
        b[e] = acc / (q * e)
    s = shift.numerator * (d // shift.denominator)
    return _normalize({e + s: lead * c for e, c in b.items()}, d, a.precision)


def inverse(a: LCNumber) -> LCNumber:
    """Multiplicative inverse: the power series of ``a ** -1`` to the window."""
    if not a.terms:
        raise DivisionByZero("cannot invert zero")
    return _series_power(a, _MINUS_ONE, 1 / a.terms[0][1])


def power(a: LCNumber, n: int) -> LCNumber:
    """Integer power by repeated squaring; ``a ** 0`` is 1 even for ``a == 0``."""
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n == 0:
        return make_real(1, a.precision)
    if n < 0:
        return power(inverse(a), -n)
    result = make_real(1, a.precision)
    base = a
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _rational_sqrt(c: Fraction) -> Fraction:
    rn, rd = isqrt(c.numerator), isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        raise NonSquareLeadingCoefficient(
            f"leading coefficient {c} is not the square of a rational"
        )
    return Fraction(rn, rd)


def sqrt(a: LCNumber) -> LCNumber:
    """Square root, expanded to the precision window.

    The leading exponent halves (exponents are rational, so this is
    always representable); the leading coefficient must be a nonnegative
    perfect rational square.  The rest follows from the power-series
    recurrence with exponent 1/2.  ``sqrt(0)`` is exactly zero.
    """
    if not a.terms:
        return LCNumber((), a.precision)
    c0 = a.terms[0][1]
    if c0 < 0:
        raise NegativeLeadingCoefficient(
            f"square root of a series with negative leading coefficient {c0}"
        )
    return _series_power(a, _HALF, _rational_sqrt(c0))


# -- order, classification, shadow --------------------------------------


def compare(a: LCNumber, b: LCNumber) -> int:
    """Sign of ``a - b``: -1, 0 or 1.  A total order refining the rational one."""
    d = sub(a, b)
    if not d.terms:
        return 0
    return 1 if d.terms[0][1] > 0 else -1


def classify(a: LCNumber) -> Classification:
    if not a.terms:
        return Classification.ZERO
    lead = a.terms[0][0]
    if lead > 0:
        return Classification.INFINITESIMAL
    if lead == 0:
        return Classification.APPRECIABLE
    return Classification.INFINITE


def standard_part(a: LCNumber) -> Fraction:
    """The shadow: the rational infinitely close to a finite value."""
    if classify(a) is Classification.INFINITE:
        raise InfiniteOperand("standard part of an infinite value")
    return a.coefficient(0)


def is_infinitely_close(a: LCNumber, b: LCNumber) -> bool:
    return classify(sub(a, b)) in (Classification.ZERO, Classification.INFINITESIMAL)


def tlh_reduce(a: LCNumber) -> LCNumber:
    """Keep only the leading stratum: the homogeneity step that discards
    terms infinitely smaller than the leading one.  Idempotent."""
    if not a.terms:
        return a
    return LCNumber((a.terms[0],), a.precision)


def agrees_to_guaranteed_order(a: LCNumber, b: LCNumber) -> bool:
    """True when a and b match on every exponent below both windows."""
    windows = [w for w in (a.window, b.window) if w is not None]
    if not windows:
        return True
    bound = min(windows)
    left = {e: c for e, c in a.terms if e < bound}
    right = {e: c for e, c in b.terms if e < bound}
    return left == right


def check_printable(value: LCNumber) -> LCNumber:
    """``value``, unless a number in it has more than MAX_DIGITS digits."""
    numbers = (n for term in value for q in term for n in (q.numerator, q.denominator))
    if any(abs(n) >= _DIGIT_BOUND for n in numbers):
        raise LCError(f"value has a number of more than {MAX_DIGITS} digits")
    return value

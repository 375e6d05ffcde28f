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
window; ``inverse``, ``sqrt`` and ``power`` expand ``a ** alpha`` to the
window's edge in one power-series routine, so ``mul(a, inverse(a))``
agrees with the exact answer to the guaranteed order only.  It builds a
single term at once and runs one integer recurrence for every series of
two or more terms, whatever the exponent.

No operation changes a value once built, and every operation is a pure
function, so values may be freely shared across threads.  Floats are
rejected everywhere.  The functions here are the only arithmetic.

A value is stored on its integer lattice: ``int`` exponent numerators
over one exponent denominator and ``int`` coefficient numerators over
one coefficient denominator, both denominators reduced, so equal values
have equal fields.  The arithmetic works on those ``int``s alone;
``fractions.Fraction`` appears only at the edges, where values are
built from rationals and where ``terms`` and the accessors hand
rationals back.  Scaling by a common denominator is a bijection onto
the integers, so no answer differs from plain rational arithmetic.
Single-term operands take a direct path in ``mul``, ``add``, ``sub``
and the power routine that builds the one term with the same
normalization; that routine's one recurrence serves every longer series.

Exact numbers become text only through ``number_text``, which refuses a
number of more than ``MAX_DIGITS`` digits; ``signed_sum`` lays out the
terms of a series or a polynomial; ``repr_text`` marks the cap in a repr.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, Union

__all__ = [
    "DEFAULT_PRECISION",
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
    "check_power",
    "number_text",
    "repr_text",
    "signed_sum",
]

DEFAULT_PRECISION = 16

# CPython turns an int of more than 4300 digits into text only if
# sys.set_int_max_str_digits allows it, so number literals and printed
# numerators, denominators and exponents are held to this many digits.
MAX_DIGITS = 4000
_DIGIT_BOUND = 10**MAX_DIGITS
# 2**b >= 10**MAX_DIGITS exactly when b >= _DIGIT_BITS.
_DIGIT_BITS = _DIGIT_BOUND.bit_length()
_TOO_LONG = f"value has a number of more than {MAX_DIGITS} digits"

RationalLike = Union[Fraction, int]

_ZERO = Fraction(0)


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


def _ratio(value: RationalLike) -> tuple[int, int]:
    """``value`` as a reduced ``(numerator, denominator)``, denominator > 0."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def _check_precision(precision: int) -> int:
    if not isinstance(precision, int) or precision < 1:
        raise ValueError(f"precision must be a positive integer, got {precision!r}")
    return precision


class LCNumber:
    """A truncated formal series ``sum q_i * eps^(r_i)``, stored on its lattice.

    Term ``i`` is ``(n[i] / q) * eps^(k[i] / d)``: ``k`` holds strictly
    ascending ``int`` exponent numerators over the exponent denominator
    ``d``, and ``n`` the nonzero ``int`` coefficient numerators over the
    coefficient denominator ``q``, all inside the relative precision
    window.  Both denominators are positive and reduced
    (``gcd(d, *k) == 1``, ``gcd(q, *n) == 1``; zero has ``d == q == 1``),
    so equal values have equal fields.  ``terms`` is the same series as
    reduced ``(exponent, coefficient)`` ``Fraction`` pairs, built on each
    read.  Build values through :func:`make_real`, :func:`make_monomial` or
    :meth:`from_terms`; direct construction skips normalization.

    Equality compares the series of two LCNumbers, never a value with an
    ``int`` or ``Fraction``, so equal values hash equal; precision is a
    statement about which exponents are guaranteed, not part of the value.
    """

    __slots__ = ("k", "d", "n", "q", "precision")

    def __init__(
        self,
        k: tuple[int, ...],
        d: int,
        n: tuple[int, ...],
        q: int,
        precision: int = DEFAULT_PRECISION,
    ):
        self.k = k
        self.d = d
        self.n = n
        self.q = q
        self.precision = precision

    @classmethod
    def from_terms(
        cls,
        pairs: Iterable[tuple[RationalLike, RationalLike]],
        precision: int = DEFAULT_PRECISION,
    ) -> "LCNumber":
        items = [(_ratio(e), _ratio(c)) for e, c in pairs]
        d = lcm(*(e[1] for e, _ in items))
        q = lcm(*(c[1] for _, c in items))
        merged: dict[int, int] = {}
        for (ek, ed), (cn, cq) in items:
            k = ek * (d // ed)
            merged[k] = merged.get(k, 0) + cn * (q // cq)
        return _normalize(merged, d, q, _check_precision(precision))

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """``(exponent, coefficient)`` pairs, ascending, as reduced ``Fraction``s."""
        d, q = self.d, self.q
        return tuple((Fraction(k, d), Fraction(n, q)) for k, n in zip(self.k, self.n))

    def coefficient(self, exponent: RationalLike) -> Fraction:
        ek, ed = _ratio(exponent)
        k, off_lattice = divmod(ek * self.d, ed)
        if not off_lattice:
            i = bisect_left(self.k, k)
            if i < len(self.k) and self.k[i] == k:
                return Fraction(self.n[i], self.q)
        return _ZERO

    def __bool__(self) -> bool:
        return bool(self.k)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        d, q = self.d, self.q
        terms = zip(self.k, self.n)
        return {
            "terms": [{"exp": number_text(k, d), "coef": number_text(n, q)} for k, n in terms],
            "precision": self.precision,
        }

    def render(self) -> str:
        """Ascending-exponent text form, e.g. ``1 - 4·eps`` or ``eps^-1``."""
        d, q = self.d, self.q
        return signed_sum(
            (n, q, "" if not k else "eps" if k == d else f"eps^{number_text(k, d)}")
            for k, n in zip(self.k, self.n)
        )

    __str__ = render

    def __repr__(self) -> str:
        return f"LCNumber({repr_text(self)}, precision={self.precision})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LCNumber):
            return NotImplemented
        return (
            self.k == other.k
            and self.n == other.n
            and self.d == other.d
            and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.k, self.d, self.n, self.q))


def _zero(precision: int) -> LCNumber:
    return LCNumber((), 1, (), 1, precision)


def _term(k: int, d: int, n: int, q: int, precision: int) -> LCNumber:
    """The term ``(n/q)·eps^(k/d)``, ``n != 0``, with both denominators reduced."""
    g, h = gcd(d, k), gcd(q, n)
    return LCNumber((k // g,), d // g, (n // h,), q // h, precision)


def _normalize(
    merged: Mapping[int, int],
    d: int,
    q: int,
    precision: int,
    bound: int | None = None,
) -> LCNumber:
    """Turn a lattice map ``k -> n``, the term ``(n/q)·eps^(k/d)``, into an
    LCNumber with both denominators reduced.

    ``bound`` is an absolute cutoff on the same lattice: the inputs only
    vouch for terms below it, so nothing at or above it may be kept or
    claimed.
    """
    if bound is None:
        ks = sorted([k for k, n in merged.items() if n])
    else:
        ks = sorted([k for k, n in merged.items() if n and k < bound])
    if not ks:
        return _zero(precision)
    lead = ks[0]
    if bound is not None:
        # The merge is exact, so the result is vouched for on the whole
        # of [lead, bound); the relative claim is measured from wherever
        # the lead landed after cancellation.  Integer precision cannot
        # express a fractional remainder; round down, conceding a sliver
        # of known terms rather than overclaiming.
        precision = max(1, (bound - lead) // d)
    cutoff = lead + precision * d
    if ks[-1] >= cutoff:
        del ks[bisect_left(ks, cutoff):]
    ns = [merged[k] for k in ks]
    g = gcd(d, *ks) if d > 1 else 1
    if g > 1:
        d //= g
        ks = [k // g for k in ks]
    g = gcd(q, *ns) if q > 1 else 1
    if g > 1:
        q //= g
        ns = [n // g for n in ns]
    return LCNumber(tuple(ks), d, tuple(ns), q, precision)


# -- constructors ------------------------------------------------------


def make_real(q: RationalLike, precision: int = DEFAULT_PRECISION) -> LCNumber:
    """Embed a rational as an appreciable value (or zero)."""
    return make_monomial(q, 0, precision)


def make_monomial(
    q: RationalLike, r: RationalLike, precision: int = DEFAULT_PRECISION
) -> LCNumber:
    """The single-term series ``q * eps^r``; zero when ``q == 0``."""
    n, q = _ratio(q)
    k, d = _ratio(r)
    _check_precision(precision)
    if not n:
        return _zero(precision)
    return LCNumber((k,), d, (n,), q, precision)


def eps(precision: int = DEFAULT_PRECISION) -> LCNumber:
    """The canonical positive infinitesimal."""
    return make_monomial(1, 1, precision)


def big_h(precision: int = DEFAULT_PRECISION) -> LCNumber:
    """The canonical infinite element ``H = eps**-1``."""
    return make_monomial(1, -1, precision)


# -- ring operations ---------------------------------------------------


def add(a: LCNumber, b: LCNumber) -> LCNumber:
    """Exact sum, claimed only below the nearer of the two windows."""
    return _merge(a, b, 1)


def neg(a: LCNumber) -> LCNumber:
    return LCNumber(a.k, a.d, tuple(-n for n in a.n), a.q, a.precision)


def sub(a: LCNumber, b: LCNumber) -> LCNumber:
    return _merge(a, b, -1)


def _merge(a: LCNumber, b: LCNumber, sign: int) -> LCNumber:
    """``a + sign·b``: both operands move to the common denominators
    ``d`` and ``q`` and their numerators are merged as ``int``s."""
    d, q = lcm(a.d, b.d), lcm(a.q, b.q)
    sa, ta = d // a.d, q // a.q
    sb, tb = d // b.d, sign * (q // b.q)
    if len(a.k) == 1 == len(b.k) and a.k[0] * sa == b.k[0] * sb:
        # At one shared exponent the nearer window is min(precision) above it.
        n, precision = a.n[0] * ta + b.n[0] * tb, min(a.precision, b.precision)
        return _term(a.k[0] * sa, d, n, q, precision) if n else _zero(precision)
    merged = {k * sa: n * ta for k, n in zip(a.k, a.n)}
    for k, n in zip(b.k, b.n):
        k *= sb
        merged[k] = merged.get(k, 0) + n * tb
    windows = [x.k[0] * (d // x.d) + x.precision * d for x in (a, b) if x.k]
    precision = min(a.precision, b.precision)
    return _normalize(merged, d, q, precision, min(windows) if windows else None)


def mul(a: LCNumber, b: LCNumber) -> LCNumber:
    """Product, truncated to the window of its (never cancelling) lead.

    The convolution runs on the operands' numerators over the common
    exponent denominator ``d``; the coefficient denominator is
    ``a.q * b.q``.
    """
    precision = min(a.precision, b.precision)
    if not a.k or not b.k:
        return _zero(precision)
    d = lcm(a.d, b.d)
    sa, sb = d // a.d, d // b.d
    if len(a.k) == 1 == len(b.k):
        k = a.k[0] * sa + b.k[0] * sb
        return _term(k, d, a.n[0] * b.n[0], a.q * b.q, precision)
    left = zip([k * sa for k in a.k], a.n)
    right = list(zip([k * sb for k in b.k], b.n))
    # The leading pair never cancels, so the product's window is known up front.
    bound = a.k[0] * sa + b.k[0] * sb + precision * d
    acc: dict[int, int] = {}
    for ka, na in left:
        limit = bound - ka
        for kb, nb in right:
            if kb >= limit:
                break  # b's exponents ascend, later pairs only grow
            k = ka + kb
            acc[k] = acc.get(k, 0) + na * nb
    return _normalize(acc, d, a.q * b.q, precision)


def _series_power(a: LCNumber, p: int, r: int, u: int, v: int) -> LCNumber:
    """``a ** (p/r)`` for nonzero ``a``, expanded to the precision window.

    ``u/v``, with ``v > 0``, is ``c0 ** (p/r)`` for the leading coefficient
    ``c0``, so a single term is ``(u/v)·eps^(e0·p/r)`` at once.  Otherwise,
    with ``a = c0·eps^e0·(1 + t)``, ``b = (1 + t)^alpha`` satisfies
    ``(1 + t)·D(b) = alpha·D(t)·b``, where ``D`` multiplies each term by its
    exponent.  Hence J.C.P. Miller's recurrence
    ``e·b_e = sum_f ((alpha+1)·f - e)·t_f·b_(e-f)`` fills every exponent
    the tail reaches below the window, in ascending order, and no other: a
    sparse tail costs its reachable sums, not its lattice.  It is
    homogeneous in the exponents, so it runs on the result's exponent
    numerators over ``r·d``, offset by the lead's ``p·k0``; ``t_f`` is
    ``n_f / n0``, so each step divides by ``e·n0``.  The walk stops at sums of
    ``depth`` offsets: the window over the smallest offset, and at most ``p``
    for a positive integer power, since ``(1 + t)^p`` has no term with more
    than ``p`` factors of ``t``.

    Each ``b_e`` is kept as the ``int`` ``B_e = u·b_e·(r²·|n0|)^depth``,
    so one denominator serves every term.  ``B_e`` is an integer: ``b_e`` sums
    ``C(p/r, j)`` times products of ``j`` coefficients ``n_f / n0``, and
    ``r^(2j)·C(p/r, j)`` is an integer (``±2·Catalan(j-1)`` at ``r = 2``).
    So every step's division is exact, and ``_normalize`` reduces the one
    denominator ``v·(r²·|n0|)^depth`` once.
    """
    if len(a.k) == 1:
        return _term(p * a.k[0], r * a.d, u, v, a.precision)
    span = r * (a.precision * a.d - 1)
    depth = span // (r * (a.k[1] - a.k[0]))
    if r == 1 and p > 0:
        depth = min(depth, p)
    scale = (r * r * abs(a.n[0])) ** depth
    b = _power_recurrence(a.k, a.n, p, r, span, depth, u * scale)
    return _normalize(b, r * a.d, v * scale, a.precision)


def _power_recurrence(ks, ns, p: int, r: int, span: int, depth: int, start: int) -> dict:
    """``_series_power``'s ``B``, ``start`` at the lead, on ascending ``ks``
    and their ``ns``, at every ``e <= span`` that at most ``depth`` offsets reach."""
    k0, n0 = ks[0], ns[0]
    # Over r·d a tail offset f is r·f; step f adds ((p + r)·f - e)·n_f·B_(e-r·f)
    # to e·n0·B_e, as (w - e·x)·B_(e-r·f).
    steps = [(r * (k - k0), (p + r) * (k - k0) * n, n) for k, n in zip(ks[1:], ns[1:])]
    base = p * k0
    # the exponents reached, found breadth first, each with its count of offsets
    reach, seen, last = [(base, 0)], {base}, base + span
    for k, count in reach:
        if count < depth:
            for f, _, _ in steps:
                if (g := k + f) <= last and g not in seen:
                    seen.add(g)
                    reach.append((g, count + 1))
    b = {base: start}
    for k in sorted(seen)[1:]:
        e, acc = k - base, 0
        for f, w, x in steps:
            acc += (w - e * x) * b.get(k - f, 0)
        b[k] = acc // (e * n0)
    return b


def inverse(a: LCNumber) -> LCNumber:
    """Multiplicative inverse: the power series of ``a ** -1`` to the window."""
    if not a.k:
        raise DivisionByZero("cannot invert zero")
    return _series_power(a, -1, 1, a.q if a.n[0] > 0 else -a.q, abs(a.n[0]))


def power(a: LCNumber, n: int) -> LCNumber:
    """Integer power: ``_series_power`` at ``p = n`` for every nonzero base
    and either sign of ``n``; ``a ** 0`` is 1 even for ``a == 0``.

    A power whose leading coefficient ``c0 ** n`` is sure to hold a number
    of more than MAX_DIGITS digits raises before any work (see
    ``check_power``; ``c0 = p/q`` reduced).
    """
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n == 0:
        return make_real(1, a.precision)
    if not a.k:
        return inverse(a) if n < 0 else a
    g = gcd(a.n[0], a.q)
    p, q, m = a.n[0] // g, a.q // g, abs(n)
    check_power(max(abs(p), q), m)
    if n < 0:
        p, q = (q if p > 0 else -q), abs(p)
    # c0 ** n from the reduced lead: n0 and q may share a factor (1 + eps/5)
    return _series_power(a, n, 1, p**m, q**m)


def sqrt(a: LCNumber) -> LCNumber:
    """Square root, expanded to the precision window.

    The leading exponent halves (exponents are rational, so this is
    always representable); the leading coefficient must be a nonnegative
    perfect rational square.  The rest follows from the power-series
    recurrence with exponent 1/2.  ``sqrt(0)`` is exactly zero.
    """
    if not a.k:
        return _zero(a.precision)
    g = gcd(a.n[0], a.q)
    p, q = a.n[0] // g, a.q // g
    if p < 0:
        raise NegativeLeadingCoefficient(
            f"square root of a series with negative leading coefficient {number_text(p, q)}"
        )
    u, v = isqrt(p), isqrt(q)
    if u * u != p or v * v != q:
        raise NonSquareLeadingCoefficient(
            f"leading coefficient {number_text(p, q)} is not the square of a rational"
        )
    return _series_power(a, 1, 2, u, v)


# -- order, classification, shadow --------------------------------------


def compare(a: LCNumber, b: LCNumber) -> int:
    """Sign of ``a - b``: -1, 0 or 1.  A total order refining the rational one."""
    diff = sub(a, b)
    if not diff.n:
        return 0
    return 1 if diff.n[0] > 0 else -1


def classify(a: LCNumber) -> Classification:
    if not a.k:
        return Classification.ZERO
    lead = a.k[0]
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
    if not a.k:
        return a
    return _term(a.k[0], a.d, a.n[0], a.q, a.precision)


def agrees_to_guaranteed_order(a: LCNumber, b: LCNumber) -> bool:
    """True when a and b match on every exponent below both windows.

    ``sub`` keeps exactly the nonzero differences below both windows (its
    lead always survives the truncation), so agreement is an empty
    difference; equal fields leave it empty at any precisions.
    """
    return a == b or not sub(a, b).k


def check_power(m: int, n: int) -> None:
    """Raise before computing a power ``x ** n`` when an integer ``m`` of
    ``x`` makes it sure to hold a number of more than MAX_DIGITS digits:
    ``|m| ** n`` is at least ``2 ** (n·(bit_length - 1))``."""
    if n * (abs(m).bit_length() - 1) >= _DIGIT_BITS:
        raise LCError(_TOO_LONG)


def number_text(n: int, d: int = 1) -> str:
    """``n/d``, ``d > 0``, as ``str(Fraction(n, d))`` prints it, unless a
    number of its reduced form has more than MAX_DIGITS digits."""
    g = gcd(n, d)
    n, d = n // g, d // g
    if abs(n) >= _DIGIT_BOUND or d >= _DIGIT_BOUND:
        raise LCError(_TOO_LONG)
    return f"{n}/{d}" if d > 1 else str(n)


def repr_text(value) -> str:
    """``value.render()`` quoted for a repr, or a marker naming the digit
    cap when a number of ``value`` is too long to print: a repr never raises."""
    try:
        return repr(value.render())
    except LCError:
        return f"<{_TOO_LONG}>"


def signed_sum(terms: Iterable[tuple[int, int, str]]) -> str:
    """The sum of ``(n/d)·unit`` over ``(n, d, unit)`` terms as text, e.g.
    ``-x^2 + 3/2·x·y - 1``: the first sign glued to its term, then `` + ``
    or `` - ``, a coefficient of 1 left out before a unit, ``·`` before a
    unit, and an empty unit for a bare number.  The empty sum is ``0``."""
    parts = []
    for n, d, unit in terms:
        mag = abs(n)
        if not unit:
            body = number_text(mag, d)
        elif mag == d:
            body = unit
        else:
            body = f"{number_text(mag, d)}·{unit}"
        if parts:
            parts.append(f"- {body}" if n < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if n < 0 else body)
    return " ".join(parts) or "0"

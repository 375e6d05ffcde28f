"""Series arithmetic: frozen worked examples plus the algebraic laws.

Expected values for the worked examples were derived by hand before the
tests were written: reciprocals via the geometric series of the unit
part, square roots via the binomial series with the coefficient
recurrence c_k = c_{k-1} * (3 - 2k) / (2k).
"""

from fractions import Fraction
from math import floor, gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from lcfield import (
    Classification,
    DivisionByZero,
    InfiniteOperand,
    LCError,
    LCNumber,
    NegativeLeadingCoefficient,
    NonSquareLeadingCoefficient,
    add,
    agrees_to_guaranteed_order,
    big_h,
    canonicalize,
    classify,
    compare,
    derivative_at,
    eps,
    infinitesimal_equality_report,
    inverse,
    is_infinitely_close,
    make_monomial,
    make_real,
    mul,
    neg,
    parse_text,
    power,
    product_rule_report,
    sqrt,
    standard_part,
    sub,
    tlh_reduce,
)
from lcfield.core import MAX_DIGITS

from _gen import lc_numbers, nonzero_lc_numbers, rationals, nonzero_rationals

F = Fraction


# -- construction and normalization ------------------------------------------


def test_from_terms_merges_sorts_and_drops_zeros():
    a = LCNumber.from_terms([(2, 5), (0, 1), (2, -5), (1, 3)])
    assert a.terms == ((F(0), F(1)), (F(1), F(3)))


def test_zero_has_no_terms_and_no_leading_exponent():
    z = make_real(0)
    assert z.terms == ()
    assert not z
    assert classify(z) is Classification.ZERO


def test_construction_truncates_to_the_leading_window():
    a = LCNumber.from_terms([(0, 1), (15, 2), (16, 3)], precision=16)
    assert a.coefficient(15) == 2
    assert a.coefficient(16) == 0


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        make_real(0.5)
    with pytest.raises(TypeError):
        LCNumber.from_terms([(0, 0.5)])
    with pytest.raises(TypeError):
        make_monomial(1, 0.5)
    # a float reaches make_real unconverted from every rational-point entry
    with pytest.raises(TypeError):
        derivative_at(parse_text("x^2"), "x", 0.5)
    with pytest.raises(TypeError):
        product_rule_report(parse_text("x"), parse_text("x^2"), "x", 0.5)
    with pytest.raises(TypeError):
        infinitesimal_equality_report(0.1)


def test_precision_must_be_a_positive_integer():
    with pytest.raises(ValueError):
        make_real(1, precision=0)
    with pytest.raises(ValueError):
        make_real(1, precision=-3)


def test_rational_exponents_are_first_class():
    a = make_monomial(3, F(1, 2))
    b = mul(a, a)
    assert b == make_monomial(9, 1)


# -- frozen reciprocal examples ------------------------------------------------


@pytest.mark.parametrize("precision", [4, 16, 64])
def test_inverse_of_one_minus_eps_is_the_geometric_series(precision):
    # A genuinely infinite series keeps exactly one term per unit of
    # precision.
    a = sub(make_real(1, precision), eps(precision))
    expected = LCNumber.from_terms([(k, 1) for k in range(precision)], precision)
    assert inverse(a) == expected


def test_inverse_with_infinite_lead_and_gap():
    # 2*eps^-2 + eps = 2*eps^-2 * (1 + eps^3/2); the reciprocal alternates
    # with exponents 2 + 3k and coefficients (-1)^k / 2^(k+1), k = 0..5
    # inside the window [2, 18).
    a = add(make_monomial(2, -2), eps())
    expected = LCNumber.from_terms(
        [(2 + 3 * k, F((-1) ** k, 2 ** (k + 1))) for k in range(6)]
    )
    assert inverse(a) == expected


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        inverse(make_real(0))


def test_long_inverse_with_incommensurate_tail_exponents():
    # Exponents i/4 + j/3 below the window: 765 distinct values at T = 64.
    a = LCNumber.from_terms([(0, 1), (F(1, 4), 1), (F(1, 3), -2)], precision=64)
    b = inverse(a)
    assert len(b.terms) == 765
    assert mul(a, b) == make_real(1)
    assert power(a, -1) == b


@given(nonzero_lc_numbers())
def test_inverse_multiplies_back_to_one(a):
    assert mul(a, inverse(a)) == make_real(1)


@given(nonzero_lc_numbers())
def test_inverse_is_an_involution(a):
    assert inverse(inverse(a)) == a


# -- frozen square-root examples -----------------------------------------------


def test_sqrt_of_four_plus_eps_prefix():
    s = sqrt(add(make_real(4), eps()))
    assert s.coefficient(0) == 2
    assert s.coefficient(1) == F(1, 4)
    assert s.coefficient(2) == F(-1, 64)
    assert s.coefficient(3) == F(1, 512)
    assert s.coefficient(4) == F(-5, 16384)
    assert mul(s, s) == add(make_real(4), eps())


def test_long_sqrt_with_incommensurate_tail_exponents():
    a = LCNumber.from_terms([(0, 4), (F(1, 4), 1), (F(1, 3), -2)], precision=64)
    s = sqrt(a)
    assert len(s.terms) == 765
    assert mul(s, s) == a


def test_sqrt_exact_cases():
    assert sqrt(make_real(0)) == make_real(0)
    assert sqrt(make_real(9)) == make_real(3)
    assert sqrt(make_real(F(9, 4))) == make_real(F(3, 2))
    assert sqrt(make_monomial(1, 2)) == eps()
    assert sqrt(make_monomial(4, -2)) == make_monomial(2, -1)
    one_plus = add(make_real(1), eps())
    assert sqrt(mul(one_plus, one_plus)) == one_plus


def test_sqrt_halves_the_leading_exponent():
    s = sqrt(make_monomial(1, 1))
    assert s.terms[0][0] == F(1, 2)
    assert mul(s, s) == eps()


def test_sqrt_rejects_negative_lead():
    with pytest.raises(NegativeLeadingCoefficient):
        sqrt(add(make_real(-1), eps()))


def test_sqrt_rejects_non_square_lead():
    with pytest.raises(NonSquareLeadingCoefficient):
        sqrt(make_real(2))
    with pytest.raises(NonSquareLeadingCoefficient):
        sqrt(add(make_real(F(1, 3)), eps()))


@given(nonzero_lc_numbers(bound=2))
def test_sqrt_of_a_square_recovers_the_positive_root(b):
    root = sqrt(mul(b, b))
    expected = b if b.terms[0][1] > 0 else neg(b)
    assert root == expected


# -- kernel parity with a plain Fraction-keyed reference -----------------------
#
# The kernel stores and computes integer exponent and coefficient numerators
# over one denominator each; the reference below keys everything by
# Fraction, multiplies schoolbook-style and expands powers with the binomial
# series, then applies the same window rules.


def _reference_window(merged, precision, bound=None):
    nonzero = {
        e: c for e, c in merged.items() if c != 0 and (bound is None or e < bound)
    }
    if not nonzero:
        return (), precision
    lead = min(nonzero)
    if bound is not None:
        precision = max(1, floor(bound - lead))
    return tuple(sorted((e, c) for e, c in nonzero.items() if e < lead + precision)), precision


def _reference_add(a, b):
    merged = {}
    for e, c in a.terms + b.terms:
        merged[e] = merged.get(e, 0) + c
    windows = [x.terms[0][0] + x.precision for x in (a, b) if x.terms]
    bound = min(windows) if windows else None
    return _reference_window(merged, min(a.precision, b.precision), bound)


def _reference_mul(a, b):
    merged = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            merged[ea + eb] = merged.get(ea + eb, 0) + ca * cb
    return _reference_window(merged, min(a.precision, b.precision))


def _reference_compare(a, b):
    terms, _ = _reference_add(a, LCNumber.from_terms([(e, -c) for e, c in b.terms], b.precision))
    return (terms[0][1] > 0) - (terms[0][1] < 0) if terms else 0


def _reference_agrees(a, b):
    windows = [x.terms[0][0] + x.precision for x in (a, b) if x.terms]
    if not windows:
        return True
    bound = min(windows)
    return [t for t in a.terms if t[0] < bound] == [t for t in b.terms if t[0] < bound]


def _reference_power(a, alpha, lead):
    """``a ** alpha`` as ``lead·eps^(alpha·e0)·sum_k binom(alpha, k)·t^k``."""
    (e0, c0), precision = a.terms[0], a.precision
    t = {e - e0: c / c0 for e, c in a.terms[1:]}
    total, term, k = {F(0): F(1)}, {F(0): F(1)}, 0
    while term:
        k += 1
        product = {}
        for e1, c1 in term.items():
            for e2, c2 in t.items():
                if e1 + e2 < precision:
                    product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        term = {e: c * (alpha - k + 1) / k for e, c in product.items()}
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    merged = {alpha * e0 + e: lead * c for e, c in total.items()}
    return _reference_window(merged, precision)


parity_exponents = st.fractions(min_value=-3, max_value=3, max_denominator=12)
parity_precisions = st.integers(min_value=1, max_value=8)


def parity_pairs(min_size=0):
    return st.lists(st.tuples(parity_exponents, rationals), min_size=min_size, max_size=5)


@st.composite
def parity_operands(draw, min_terms=0):
    return LCNumber.from_terms(draw(parity_pairs(min_terms)), draw(parity_precisions))


@st.composite
def prefix_pairs(draw, sign):
    """``(a, b)`` where ``b`` holds ``sign`` times all of ``a`` or a prefix
    of it: with ``sign = -1`` it cancels that prefix, with ``+1`` repeats it."""
    a = draw(parity_operands(min_terms=1))
    keep = draw(st.integers(min_value=0, max_value=len(a.terms)))
    extra = draw(parity_operands())
    b = LCNumber.from_terms(
        [(e, sign * c) for e, c in a.terms[:keep]] + list(extra.terms),
        draw(parity_precisions),
    )
    return a, b


@st.composite
def power_operands(draw, square_lead=False):
    """Nonzero series whose tail sits at least 1/2 above the lead, so the
    reference's binomial series stays short."""
    e0, c0 = draw(parity_exponents), draw(nonzero_rationals)
    if square_lead:
        c0 = c0 * c0
    offsets = st.fractions(min_value=F(1, 2), max_value=4, max_denominator=12)
    tail = draw(st.lists(st.tuples(offsets, nonzero_rationals), max_size=3))
    precision = draw(st.integers(min_value=1, max_value=5))
    return LCNumber.from_terms([(e0, c0)] + [(e0 + f, c) for f, c in tail], precision)


def _result(value):
    return value.terms, value.precision


@given(parity_pairs(), parity_precisions)
def test_from_terms_matches_the_fraction_keyed_reference(pairs, precision):
    merged = {}
    for e, c in pairs:
        merged[e] = merged.get(e, 0) + c
    assert _result(LCNumber.from_terms(pairs, precision)) == _reference_window(merged, precision)


@given(st.one_of(st.tuples(parity_operands(), parity_operands()), prefix_pairs(-1)))
def test_add_matches_the_fraction_keyed_reference(pair):
    a, b = pair
    assert _result(add(a, b)) == _reference_add(a, b)
    assert _result(sub(a, b)) == _reference_add(a, neg(b))


@given(st.one_of(st.tuples(parity_operands(), parity_operands()), prefix_pairs(-1), prefix_pairs(1)))
def test_sub_is_add_of_the_negation(pair):
    a, b = pair
    diff, via_neg = sub(a, b), add(a, neg(b))
    assert (diff.k, diff.d, diff.n, diff.q, diff.precision) == (
        via_neg.k, via_neg.d, via_neg.n, via_neg.q, via_neg.precision
    )


@given(parity_operands(), parity_operands())
def test_mul_matches_the_fraction_keyed_reference(a, b):
    assert _result(mul(a, b)) == _reference_mul(a, b)


@given(power_operands())
def test_inverse_matches_the_binomial_reference(a):
    lead = 1 / a.terms[0][1]
    assert _result(inverse(a)) == _reference_power(a, F(-1), lead)


@given(power_operands(square_lead=True))
def test_sqrt_matches_the_binomial_reference(a):
    c0 = a.terms[0][1]
    lead = F(isqrt(c0.numerator), isqrt(c0.denominator))
    assert _result(sqrt(a)) == _reference_power(a, F(1, 2), lead)


@given(power_operands(), st.integers(min_value=-4, max_value=6))
def test_power_matches_the_binomial_reference(a, n):
    lead = a.terms[0][1] ** n
    assert _result(power(a, n)) == _reference_power(a, F(n), lead)


@pytest.mark.parametrize("n", range(-4, 7))
def test_power_of_zero(n):
    zero = make_real(0, precision=5)
    if n < 0:
        with pytest.raises(DivisionByZero):
            power(zero, n)
    else:
        assert _result(power(zero, n)) == (((F(0), F(1)),) if n == 0 else (), 5)


@given(st.one_of(st.tuples(parity_operands(), parity_operands()), prefix_pairs(-1), prefix_pairs(1)))
def test_compare_matches_the_fraction_keyed_reference(pair):
    a, b = pair
    assert compare(a, b) == _reference_compare(a, b)
    assert compare(a, a) == 0


@given(parity_operands())
def test_tlh_reduce_matches_the_fraction_keyed_reference(a):
    assert _result(tlh_reduce(a)) == (a.terms[:1], a.precision)


@given(st.one_of(st.tuples(parity_operands(), parity_operands()), prefix_pairs(1)))
def test_agreement_matches_the_fraction_keyed_reference(pair):
    a, b = pair
    assert agrees_to_guaranteed_order(a, b) == _reference_agrees(a, b)
    assert agrees_to_guaranteed_order(b, a) == _reference_agrees(a, b)


# -- lattice storage: one set of fields per value ----------------------------------


def _assert_on_the_lattice(value):
    assert value.d > 0 and value.q > 0
    assert list(value.k) == sorted(set(value.k)) and all(value.n)
    assert len(value.k) == len(value.n)
    assert gcd(value.d, *value.k) == 1 and gcd(value.q, *value.n) == 1
    for e, c in value.terms:
        assert type(e) is F and type(c) is F
        assert gcd(e.numerator, e.denominator) == 1 and gcd(c.numerator, c.denominator) == 1


@pytest.mark.parametrize(
    "routes",
    [
        # an exponent written 2/4, or reached over the quarter lattice
        [
            LCNumber.from_terms([(F(2, 4), 3)]),
            LCNumber.from_terms([(F(1, 4), 1), (F(1, 2), 3), (F(1, 4), -1)]),
            make_monomial(3, F(1, 2)),
        ],
        # a cancelling add leaves 1/2 over the coefficient denominator 6
        [
            add(
                LCNumber.from_terms([(0, F(1, 2)), (F(1, 3), F(1, 3))]),
                make_monomial(F(-1, 3), F(1, 3)),
            ),
            make_real(F(1, 2)),
        ],
        # mul then inverse
        [
            inverse(mul(make_monomial(F(2, 3), F(1, 2)), make_monomial(F(9, 4), F(1, 6)))),
            make_monomial(F(2, 3), F(-2, 3)),
        ],
        [
            mul(add(make_real(F(2, 3)), make_monomial(1, F(1, 2))),
                inverse(add(make_real(F(2, 3)), make_monomial(1, F(1, 2))))),
            make_real(1),
        ],
    ],
    ids=["exponent_2/4", "cancelling_add", "monomial_inverse", "mul_inverse"],
)
def test_one_value_by_different_routes_has_one_set_of_fields(routes):
    first = routes[0]
    for value in routes:
        _assert_on_the_lattice(value)
        assert value == first and hash(value) == hash(first)
        assert (value.k, value.d, value.n, value.q) == (first.k, first.d, first.n, first.q)
        assert value.terms == first.terms


@given(lc_numbers(bound=2), lc_numbers(bound=2), st.integers(min_value=-2, max_value=3))
def test_every_kernel_result_is_reduced_on_its_lattice(a, b, n):
    results = [add(a, b), sub(a, b), mul(a, b), neg(a), tlh_reduce(a)]
    if b:
        results += [inverse(b), power(b, n)]
        if b.terms[0][1] > 0:
            results.append(sqrt(mul(b, b)))
    for value in results:
        _assert_on_the_lattice(value)
        assert value == LCNumber.from_terms(value.terms, value.precision)
        assert hash(value) == hash(LCNumber.from_terms(value.terms, value.precision))


def test_power_refuses_a_leading_coefficient_past_the_digit_cap_up_front():
    # 2**13287 < 10**4000 <= 2**13288: the guard is exact for powers of two.
    bits = (10**MAX_DIGITS).bit_length()
    assert power(make_real(2), bits - 1).render()
    assert power(make_real(F(1, 2)), bits - 1).render()
    for base, n in [(2, bits), (F(1, 2), bits), (F(-3, 5), 10**11), (2, 99999999999)]:
        with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
            power(add(make_real(base), eps()), n)
    with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
        power(add(make_real(2), eps()), -99999999999)  # its inverse leads with 1/2
    # a lead of 1 or a zero base is never refused by the guard
    assert power(make_real(0), 99999999999) == make_real(0)
    assert power(eps(), 99999999999) == make_monomial(1, 99999999999)


# -- field laws (exact inside the generator's window) ---------------------------


@given(lc_numbers(), lc_numbers())
def test_addition_commutes(a, b):
    assert add(a, b) == add(b, a)


@given(lc_numbers(), lc_numbers(), lc_numbers())
def test_addition_associates(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(lc_numbers())
def test_additive_identity_and_inverse(a):
    assert add(a, make_real(0)) == a
    assert add(a, neg(a)) == make_real(0)


@given(lc_numbers(bound=2), lc_numbers(bound=2))
def test_multiplication_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(lc_numbers(bound=2), lc_numbers(bound=2), lc_numbers(bound=2))
def test_multiplication_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(lc_numbers(bound=2), lc_numbers(bound=2), lc_numbers(bound=2))
def test_multiplication_distributes_over_addition(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(lc_numbers())
def test_multiplicative_identity(a):
    assert mul(a, make_real(1)) == a


@given(lc_numbers(bound=2), lc_numbers(bound=2))
def test_product_leading_exponents_add(a, b):
    p = mul(a, b)
    if not a or not b:
        assert not p
    else:
        assert p.terms[0][0] == a.terms[0][0] + b.terms[0][0]
        assert p.terms[0][1] == a.terms[0][1] * b.terms[0][1]


def test_power_conventions():
    assert power(make_real(0), 0) == make_real(1)
    a = add(make_real(2), eps())
    assert power(a, 3) == mul(a, mul(a, a))
    assert power(a, -1) == inverse(a)
    assert power(a, -2) == inverse(mul(a, a))
    with pytest.raises(DivisionByZero):
        power(make_real(0), -1)
    with pytest.raises(TypeError):
        power(a, F(1, 2))


# -- no operators: equality only between values --------------------------------


def test_operators_reject_floats():
    with pytest.raises(TypeError):
        eps() + 0.5


@given(lc_numbers(), rationals, st.integers(min_value=7, max_value=64))
def test_equal_values_hash_equal(a, q, precision):
    values = [
        a,
        LCNumber.from_terms(a.terms, precision),
        add(a, make_real(0)),
        make_real(q),
        make_real(q, precision),
        q,
        int(q),
    ]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y)


def test_a_value_equals_only_another_value():
    assert make_real(3) != 3
    assert 3 != make_real(3)
    assert make_real(F(1, 2)) != F(1, 2)
    assert 3 not in {make_real(3)}
    assert len({make_real(3, 4), make_real(3, 64)}) == 1
    with pytest.raises(TypeError):
        3 + make_real(1)
    with pytest.raises(TypeError):
        make_real(1) < make_real(2)


# -- equality vs precision -------------------------------------------------------


def test_equality_ignores_precision_metadata():
    a = make_real(3, precision=4)
    b = make_real(3, precision=32)
    assert a == b
    assert hash(a) == hash(b)


def test_binary_ops_combine_precision_by_min():
    a = make_real(1, precision=4)
    b = eps(precision=32)
    assert add(a, b).precision == 4
    assert mul(a, b).precision == 4


def test_agreement_below_the_guaranteed_window():
    a = make_real(1, precision=4)
    b = LCNumber.from_terms([(0, 1), (5, 7)], precision=16)
    assert agrees_to_guaranteed_order(a, b)
    assert a != b
    c = LCNumber.from_terms([(0, 1), (2, 7)], precision=16)
    assert not agrees_to_guaranteed_order(a, c)


# -- classification and the standard part ----------------------------------------


def test_classification_examples():
    assert classify(eps()) is Classification.INFINITESIMAL
    assert classify(make_monomial(-2, F(1, 2))) is Classification.INFINITESIMAL
    assert classify(big_h()) is Classification.INFINITE
    assert classify(add(make_real(3), neg(big_h()))) is Classification.INFINITE
    assert classify(add(make_real(1), eps())) is Classification.APPRECIABLE
    assert classify(make_real(-7)) is Classification.APPRECIABLE


def test_standard_part_examples():
    assert standard_part(add(make_real(2), make_monomial(3, 1))) == 2
    assert standard_part(eps()) == 0
    assert standard_part(neg(eps())) == 0
    assert standard_part(make_real(F(22, 7))) == F(22, 7)
    assert standard_part(make_real(0)) == 0
    with pytest.raises(InfiniteOperand):
        standard_part(big_h())
    with pytest.raises(InfiniteOperand):
        standard_part(add(big_h(), make_real(5)))


@given(lc_numbers(finite=True), lc_numbers(finite=True))
def test_standard_part_is_a_ring_homomorphism(a, b):
    assert standard_part(add(a, b)) == standard_part(a) + standard_part(b)
    assert standard_part(mul(a, b)) == standard_part(a) * standard_part(b)


@given(lc_numbers(finite=True))
def test_standard_part_fixes_rationals_and_kills_infinitesimals(a):
    q = standard_part(a)
    assert standard_part(make_real(q)) == q
    assert is_infinitely_close(a, make_real(q))


# -- infinite closeness -----------------------------------------------------------


@given(lc_numbers(finite=True), lc_numbers(finite=True), lc_numbers(finite=True))
def test_infinite_closeness_is_an_equivalence(a, b, c):
    assert is_infinitely_close(a, a)
    if is_infinitely_close(a, b):
        assert is_infinitely_close(b, a)
    if is_infinitely_close(a, b) and is_infinitely_close(b, c):
        assert is_infinitely_close(a, c)


@given(lc_numbers(finite=True), lc_numbers(finite=True), lc_numbers(finite=True))
def test_infinite_closeness_is_a_congruence(a, b, c):
    if is_infinitely_close(a, b):
        assert is_infinitely_close(add(a, c), add(b, c))
        assert is_infinitely_close(mul(a, c), mul(b, c))


def test_closeness_examples():
    assert is_infinitely_close(add(make_real(2), eps()), make_real(2))
    assert not is_infinitely_close(make_real(2), make_real(3))
    assert not is_infinitely_close(big_h(), add(big_h(), make_real(1)))


# -- leading-stratum reduction ------------------------------------------------------


def test_tlh_reduce_examples():
    assert tlh_reduce(add(make_real(2), eps())) == make_real(2)
    assert tlh_reduce(add(eps(), make_monomial(1, 2))) == eps()
    assert tlh_reduce(make_real(0)) == make_real(0)
    assert tlh_reduce(add(big_h(), make_real(9))) == big_h()


@given(lc_numbers())
def test_tlh_reduce_is_idempotent(a):
    once = tlh_reduce(a)
    assert tlh_reduce(once) == once
    assert len(once.terms) <= 1


@given(lc_numbers(finite=True))
def test_tlh_reduce_preserves_the_standard_part_of_appreciables(a):
    if classify(a) is Classification.APPRECIABLE:
        assert standard_part(tlh_reduce(a)) == standard_part(a)


# -- order ---------------------------------------------------------------------------


def test_infinitesimals_defeat_every_assignable_scale():
    e, one = eps(), make_real(1)
    assert compare(e, make_real(0)) > 0
    for n in (1, 10, 100, 10**3, 10**6, 10**12):
        assert compare(mul(make_real(n), e), one) < 0
        assert compare(big_h(), make_real(n)) > 0
    assert compare(e, make_real(F(1, 10**9))) < 0


@given(lc_numbers(), lc_numbers())
def test_order_is_total(a, b):
    signs = [compare(a, b) < 0, a == b, compare(a, b) > 0]
    assert sum(signs) == 1
    assert compare(a, b) in (-1, 0, 1)


@given(lc_numbers(), lc_numbers(), lc_numbers())
def test_order_is_compatible_with_addition(a, b, c):
    if compare(a, b) < 0:
        assert compare(add(a, c), add(b, c)) < 0


@given(lc_numbers(), lc_numbers(), lc_numbers(bound=2))
def test_order_is_compatible_with_positive_scaling(a, b, c):
    if compare(a, b) < 0 and compare(c, make_real(0)) > 0:
        assert compare(mul(a, c), mul(b, c)) < 0


@given(lc_numbers(), lc_numbers(), lc_numbers())
def test_order_is_transitive(a, b, c):
    if compare(a, b) < 0 and compare(b, c) < 0:
        assert compare(a, c) < 0


def test_compare_is_the_sign_of_the_difference_lead():
    assert compare(eps(), make_real(0)) == 1
    assert compare(make_real(1), add(make_real(1), eps())) == -1
    assert compare(big_h(), make_real(10**9)) == 1
    assert compare(make_real(2), make_real(2)) == 0


# -- serialization ---------------------------------------------------------------------


def test_json_round_trip_examples():
    a = add(make_real(F(1, 3)), make_monomial(F(-2, 7), F(3, 2)))
    data = a.to_json()
    assert data == {
        "terms": [
            {"exp": "0", "coef": "1/3"},
            {"exp": "3/2", "coef": "-2/7"},
        ],
        "precision": 16,
    }
    back = from_payload(data)
    assert back == a
    assert back.precision == a.precision


def from_payload(data):
    pairs = [(F(t["exp"]), F(t["coef"])) for t in data["terms"]]
    return LCNumber.from_terms(pairs, data["precision"])


@given(lc_numbers())
def test_json_round_trip(a):
    back = from_payload(a.to_json())
    assert back == a
    assert back.precision == a.precision


# -- rendering ----------------------------------------------------------------------------


def test_render_examples():
    assert make_real(0).render() == "0"
    assert eps().render() == "eps"
    assert big_h().render() == "eps^-1"
    assert add(make_real(1), make_monomial(-4, 1)).render() == "1 - 4·eps"
    assert add(make_real(2), eps()).render() == "2 + eps"
    assert make_monomial(F(1, 2), F(1, 2)).render() == "1/2·eps^1/2"
    assert neg(eps()).render() == "-eps"


def _reference_render(value):
    """``value`` as text, built from ``terms`` and ``str(Fraction)``."""
    parts = []
    for exp, coef in value.terms:
        mag = abs(coef)
        if exp == 0:
            body = str(mag)
        else:
            unit = "eps" if exp == 1 else f"eps^{exp}"
            body = unit if mag == 1 else f"{mag}·{unit}"
        if parts:
            parts.append(f"- {body}" if coef < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if coef < 0 else body)
    return " ".join(parts) or "0"


@given(st.one_of(lc_numbers(), nonzero_lc_numbers().map(inverse)))
def test_render_and_to_json_print_each_term_as_its_fractions(a):
    assert a.render() == _reference_render(a)
    assert a.to_json() == {
        "terms": [{"exp": str(e), "coef": str(c)} for e, c in a.terms],
        "precision": a.precision,
    }


def test_a_number_past_the_digit_cap_is_refused_wherever_it_is_printed():
    big = 10**MAX_DIGITS
    for value in (make_real(big), make_real(F(1, big)), make_monomial(1, big), make_monomial(1, F(1, big))):
        for text in (value.render, value.to_json):
            with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
                text()
    assert make_real(F(big - 1, 2)).render() == f"{big - 1}/2"
    # sqrt's messages print the leading coefficient
    for lead in (-big * big, 2 * big * big):
        with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
            sqrt(make_real(lead))


def test_a_repr_names_the_digit_cap_instead_of_raising():
    marker = f"<value has a number of more than {MAX_DIGITS} digits>"
    form = canonicalize(parse_text("10^3000*10^3000*x"))
    assert repr(make_real(10**MAX_DIGITS)) == f"LCNumber({marker}, precision=16)"
    assert repr(form.numerator) == f"Polynomial({marker})"
    assert repr(form) == f"RationalForm({marker})"
    assert repr(make_real(F(-1, 2), 4)) == "LCNumber('-1/2', precision=4)"
    assert repr(canonicalize(parse_text("x/2"))) == "RationalForm('(x) / (2)')"

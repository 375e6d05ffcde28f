"""Multivariate polynomials and reduced polynomial fractions.

The gcd and normalization paths are cross-checked against sympy, which
plays no part in the runtime code.
"""

import math
from fractions import Fraction
from time import perf_counter

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from lcfield import DivisionByZero, LCError
from lcfield.core import MAX_DIGITS, check_power
from lcfield.dsl import (
    Add,
    Const,
    Eps,
    HUnit,
    Mul,
    Neg,
    Pow,
    Var,
    _eval,
    _Fractions,
    canonicalize,
    parse_text,
)
from lcfield.poly import _PRIME, Polynomial, RationalForm, _certified_coprime, poly_gcd

from _gen import expressions

F = Fraction
XY = ("x", "y")
XYH = ("x", "y", "H")


def P(variables, mapping):
    """The polynomial with ``exponent tuple -> coefficient`` terms, built by
    ``var``, ``const`` and the ring operations alone."""
    result = Polynomial.zero(variables)
    for mono, coef in mapping.items():
        term = Polynomial.const(variables, coef)
        for name, e in zip(variables, mono):
            term = term * Polynomial.var(variables, name) ** e
        result = result + term
    return result


def monomials(poly):
    """``poly``'s terms as ``(exponent tuple, coefficient)`` pairs, in order."""
    return list(zip(poly.exponents(), (c for _, c in poly.terms)))


# -- hypothesis generator ------------------------------------------------------

coefs = st.integers(min_value=-6, max_value=6)


@st.composite
def polynomials(draw, variables=XY, max_degree=3, max_terms=4, nonzero=False):
    monos = st.tuples(
        *(st.integers(min_value=0, max_value=max_degree) for _ in variables)
    )
    entries = draw(
        st.dictionaries(monos, coefs, min_size=1 if nonzero else 0, max_size=max_terms)
    )
    poly = P(variables, entries)
    if nonzero and not poly:
        poly = poly + Polynomial.const(variables, 1)
    return poly


def to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for mono, coef in monomials(poly):
        term = sympy.Integer(coef)
        for sym, exp in zip(symbols, mono):
            term *= sym**exp
        expr += term
    return sympy.expand(expr)


# -- ordering and construction ---------------------------------------------------


def test_terms_are_stored_in_descending_grlex_order():
    p = P(XY, {(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1})
    assert [m for m, _ in monomials(p)] == [(2, 0), (1, 1), (0, 1), (0, 0)]


def test_grlex_ranks_total_degree_first():
    # y^3 outranks x^2 despite the alphabetical tie-break inside a degree
    p = P(XY, {(2, 0): 1, (0, 3): 1})
    assert monomials(p)[0][0] == (0, 3)


def test_zero_terms_are_dropped():
    assert not P(XY, {(1, 0): 0})
    assert not P(XY, {})
    # from_dict itself drops a zero coefficient: the key of x at width 16
    assert not Polynomial.from_dict(XY, {1 << 32 | 1 << 16: 0}, 16)


def test_const_takes_only_integers():
    # a Fraction would floor silently in the integer divisions below
    with pytest.raises(TypeError):
        Polynomial.const(XY, F(1, 2))
    with pytest.raises(TypeError):
        Polynomial.const(XY, 0.5)


def test_variable_tuples_must_match():
    with pytest.raises(ValueError):
        P(XY, {(1, 0): 1}) + P(("x",), {(1,): 1})


# -- ring arithmetic ---------------------------------------------------------------


def test_small_product():
    x_plus_y = P(XY, {(1, 0): 1, (0, 1): 1})
    x_minus_y = P(XY, {(1, 0): 1, (0, 1): -1})
    assert x_plus_y * x_minus_y == P(XY, {(2, 0): 1, (0, 2): -1})


def test_power():
    x_plus_y = P(XY, {(1, 0): 1, (0, 1): 1})
    assert x_plus_y**2 == P(XY, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert x_plus_y**0 == Polynomial.const(XY, 1)
    with pytest.raises(ValueError):
        x_plus_y ** (-1)


@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero(XY) == a
    assert a * Polynomial.const(XY, 1) == a


@given(polynomials(), polynomials())
def test_arithmetic_agrees_with_sympy(a, b):
    sx, sy = sympy.symbols("x y")
    assert to_sympy(a * b, (sx, sy)) == sympy.expand(
        to_sympy(a, (sx, sy)) * to_sympy(b, (sx, sy))
    )
    assert to_sympy(a + b, (sx, sy)) == to_sympy(a, (sx, sy)) + to_sympy(b, (sx, sy))


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def rational(value):
    return sympy.Rational(value.numerator, value.denominator)


def scaled_substitution(expr, symbol, value):
    """sympy's ``q^d · expr(p/q)`` for ``value = p/q``, with ``d`` the
    degree of ``expr`` in ``symbol``."""
    if expr == 0:
        return expr
    scale = value.denominator ** sympy.degree(expr, symbol)
    return sympy.expand(scale * expr.subs(symbol, rational(value)))


@given(polynomials(), small_fractions, small_fractions)
def test_evaluation_is_a_homomorphism_point(a, px, py):
    symbols = sympy.symbols("x y")
    point = dict(zip(symbols, (rational(px), rational(py))))
    value = to_sympy(a, symbols).subs(point)
    assert to_sympy(a * a, symbols).subs(point) == value**2


@given(polynomials(("x", "y", "z")), small_fractions, small_fractions, small_fractions)
def test_substituting_every_variable_matches_evaluate(a, px, py, pz):
    fixed = a.substitute(0, px).substitute(1, py).substitute(2, pz)
    assert fixed.variables == a.variables
    assert fixed.is_constant
    symbols = sympy.symbols("x y z")
    expected = to_sympy(a, symbols)
    for symbol, value in zip(symbols, (px, py, pz)):
        expected = scaled_substitution(expected, symbol, value)
    assert to_sympy(fixed, symbols) == expected


@given(polynomials(("x", "y", "z")), st.integers(0, 2), small_fractions)
def test_substitute_scales_by_the_denominator_and_keeps_the_zeros(a, index, value):
    symbols = sympy.symbols("x y z")
    expr = to_sympy(a, symbols)
    fixed = a.substitute(index, value)
    assert to_sympy(fixed, symbols) == scaled_substitution(expr, symbols[index], value)
    assert (not fixed) == (sympy.expand(expr.subs(symbols[index], rational(value))) == 0)


@given(polynomials(), st.integers(0, 1), small_fractions)
def test_substitute_zeroes_the_fixed_slot(a, index, value):
    fixed = a.substitute(index, value)
    assert all(mono[index] == 0 for mono, _ in monomials(fixed))


@given(polynomials(), st.integers(0, 1))
def test_substituting_zero_drops_the_terms_that_use_the_variable(a, index):
    kept = {mono: coef for mono, coef in monomials(a) if mono[index] == 0}
    assert a.substitute(index, 0) == P(XY, kept)


def test_substitute_spot_check():
    p = P(XY, {(2, 1): 1, (1, 0): -3, (0, 1): 2})  # x^2 y - 3x + 2y
    # 2^2 · (y/4 - 3/2 + 2y)
    assert p.substitute(0, F(1, 2)) == P(XY, {(0, 1): 9, (0, 0): -6})
    assert p.substitute(1, 0) == P(XY, {(1, 0): -3})


def test_substitute_refuses_a_power_past_the_digit_cap():
    # x^20000 at 2 or at 1/2 holds 2^20000, about 6000 digits; at 0, 1
    # and -1 every power stays small
    p = P(XY, {(20000, 0): 1})
    for value in (F(2), F(1, 2), F(-3)):
        with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
            p.substitute(0, value)
    assert p.substitute(0, F(-1)) == P(XY, {(0, 0): 1})


@given(polynomials(("x", "y", "z")), st.integers(0, 2))
def test_the_view_in_one_variable_rebuilds_the_polynomial(a, index):
    x = Polynomial.var(a.variables, a.variables[index])
    view = a.coefficients_in(index)
    for coeff in view.values():
        assert all(mono[index] == 0 for mono, _ in monomials(coeff))
        # stored canonically: equal to the same terms built afresh
        assert coeff == P(a.variables, dict(monomials(coeff)))
    assert sum((c * x**k for k, c in view.items()), Polynomial.zero(a.variables)) == a


# -- division ------------------------------------------------------------------------


def test_divmod_exact_case():
    x2_minus_y2 = P(XY, {(2, 0): 1, (0, 2): -1})
    x_minus_y = P(XY, {(1, 0): 1, (0, 1): -1})
    assert x2_minus_y2.exact_div(x_minus_y) == P(XY, {(1, 0): 1, (0, 1): 1})


def test_exact_div_refuses_inexact():
    p = P(XY, {(2, 0): 1, (0, 0): 1})
    with pytest.raises(ValueError):
        p.exact_div(P(XY, {(1, 0): 1}))
    with pytest.raises(ValueError):  # x^2 + 1 = (x + y)(x - y) + y^2 + 1, refused at y^2
        p.exact_div(P(XY, {(1, 0): 1, (0, 1): -1}))
    with pytest.raises(ZeroDivisionError):
        p.exact_div(Polynomial.zero(XY))


@st.composite
def dividends_and_divisors(draw):
    variables = draw(st.sampled_from([XY, ("x", "y", "z")]))
    d = draw(polynomials(variables, max_degree=2, max_terms=3, nonzero=True))
    a = draw(polynomials(variables, max_degree=2, max_terms=3)) * d
    if draw(st.booleans()):
        a = a + draw(polynomials(variables, max_degree=3, max_terms=2))
    return a, d


@given(dividends_and_divisors())
def test_exact_div_agrees_with_sympy_on_divisibility(case):
    # over Z: the quotient over QQ exists and has integer coefficients
    a, d = case
    symbols = sympy.symbols(a.variables)
    quot, rem = sympy.div(
        sympy.Poly(to_sympy(a, symbols), *symbols, domain="QQ"),
        sympy.Poly(to_sympy(d, symbols), *symbols, domain="QQ"),
    )
    if rem.is_zero and all(c.is_integer for c in quot.coeffs()):
        assert a.exact_div(d) * d == a
    else:
        with pytest.raises(ValueError):
            a.exact_div(d)


@given(polynomials(max_degree=2), polynomials(max_degree=2, nonzero=True))
def test_exact_division_inverts_multiplication(a, d):
    assert (a * d).exact_div(d) == a


# -- content and gcd --------------------------------------------------------------------


def test_content_and_primitive():
    p = P(XY, {(1, 0): -12, (0, 0): 18})
    assert type(p.content()) is int and p.content() == 6
    assert p.primitive() == P(XY, {(1, 0): -2, (0, 0): 3})
    assert Polynomial.zero(XY).content() == 0
    assert Polynomial.zero(XY).primitive() == Polynomial.zero(XY)


def test_gcd_of_classic_pair():
    x2_minus_y2 = P(XY, {(2, 0): 1, (0, 2): -1})
    x_plus_y_sq = P(XY, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    g = poly_gcd(x2_minus_y2, x_plus_y_sq)
    assert g == P(XY, {(1, 0): 1, (0, 1): 1})


def test_gcd_of_coprime_pair_is_one():
    assert poly_gcd(
        P(XY, {(1, 0): 1}), P(XY, {(0, 1): 1, (0, 0): 1})
    ) == Polynomial.const(XY, 1)


def test_gcd_with_zero():
    p = P(XY, {(1, 0): 2, (0, 0): 2})
    assert poly_gcd(p, Polynomial.zero(XY)) == P(XY, {(1, 0): 1, (0, 0): 1})
    assert poly_gcd(Polynomial.zero(XY), Polynomial.zero(XY)) == Polynomial.zero(XY)


@given(
    polynomials(max_degree=2, max_terms=3, nonzero=True),
    polynomials(max_degree=2, max_terms=3, nonzero=True),
    polynomials(max_degree=1, max_terms=2, nonzero=True),
)
def test_gcd_divides_both_and_sees_planted_factors(a, b, g):
    def degree(p):  # the graded-lex leading term has the top total degree
        return p.degree

    d = poly_gcd(a * g, b * g)
    (a * g).exact_div(d)  # each raises unless d divides
    (b * g).exact_div(d)
    assert degree(d.exact_div(poly_gcd(d, g))) + degree(g) >= degree(d)


@given(
    polynomials(max_degree=2, max_terms=3, nonzero=True),
    polynomials(max_degree=2, max_terms=3, nonzero=True),
)
def test_gcd_agrees_with_sympy_up_to_scale(a, b):
    sx, sy = sympy.symbols("x y")
    ours = to_sympy(poly_gcd(a, b), (sx, sy))
    theirs = sympy.gcd(to_sympy(a, (sx, sy)), to_sympy(b, (sx, sy)))
    quotient = sympy.simplify(ours / theirs)
    assert quotient.is_constant(sx, sy)


@given(
    polynomials(XYH, max_degree=2, max_terms=3, nonzero=True),
    polynomials(XYH, max_degree=2, max_terms=3, nonzero=True),
    polynomials(XYH, max_degree=1, max_terms=3, nonzero=True),
)
def test_gcd_agrees_with_sympy_on_three_variables_with_a_planted_factor(a, b, g):
    symbols = sympy.symbols(XYH)
    ours = to_sympy(poly_gcd(a * g, b * g), symbols)
    theirs = sympy.gcd(to_sympy(a * g, symbols), to_sympy(b * g, symbols))
    assert not sympy.cancel(ours / theirs).free_symbols


# -- the coprimality certificate ---------------------------------------------------

variable_tuples = st.sampled_from([("x",), XY, XYH])


@st.composite
def planted_pairs(draw):
    """``(g·a, g·b)`` over 1-3 variables with ``g`` of positive degree."""
    variables = draw(variable_tuples)
    a = draw(polynomials(variables, max_degree=2, max_terms=3, nonzero=True))
    b = draw(polynomials(variables, max_degree=2, max_terms=3, nonzero=True))
    g = draw(polynomials(variables, max_degree=2, max_terms=3, nonzero=True))
    assume(not g.is_constant)
    return g * a, g * b


@given(planted_pairs())
def test_a_planted_common_factor_is_never_certified_coprime(pair):
    assert not _certified_coprime(*pair)


@st.composite
def nonzero_pairs(draw):
    variables = draw(variable_tuples)
    return (
        draw(polynomials(variables, max_degree=3, max_terms=4, nonzero=True)),
        draw(polynomials(variables, max_degree=3, max_terms=4, nonzero=True)),
    )


@given(nonzero_pairs())
def test_a_certified_pair_is_coprime_to_sympy(pair):
    # poly_gcd's gcd is integer-primitive, so sympy sees the primitive parts
    a, b = pair
    if _certified_coprime(a, b):
        symbols = sympy.symbols(a.variables)
        ours = to_sympy(a.primitive(), symbols), to_sympy(b.primitive(), symbols)
        assert sympy.gcd(*ours) in (1, -1)
        assert poly_gcd(a, b) == Polynomial.const(a.variables, 1)


def test_an_image_that_drops_degree_falls_back_to_the_prs():
    # lc_x(f) is a multiple of _PRIME·y, so it vanishes mod _PRIME at every
    # point: the certificate gives up, and the PRS answers alone.  As a
    # common factor, f's image is a constant and hides it.
    x, y = Polynomial.var(XY, "x"), Polynomial.var(XY, "y")
    one = Polynomial.const(XY, 1)
    f = Polynomial.const(XY, _PRIME) * y * x + one
    for a, b, expected in ((f, x - one, one), (f * (x + y), f * (x - one), f)):
        assert not _certified_coprime(a, b)
        assert poly_gcd(a, b) == expected
        symbols = sympy.symbols(XY)
        theirs = sympy.gcd(to_sympy(a, symbols), to_sympy(b, symbols))
        assert not sympy.cancel(to_sympy(expected, symbols) / theirs).free_symbols


# This input kept the PRS alone busy for minutes (34 CPU-minutes in one run)
# on coefficient growth; the certificate proves its gcd is 1.
SLOW_PRS_INPUT = (
    "(((y)^2)^2/((H + x - eps))^3 + (2/x * (z * y / 2) / (1/3 + y - H))/(2/2)^0"
    " - ((y + (x + 0 - z) - eps))^-2)"
)


def test_the_input_that_stalled_the_prs_is_reduced_at_once():
    tree = parse_text(SLOW_PRS_INPUT)
    start = perf_counter()
    rf = canonicalize(tree)
    assert perf_counter() - start < 2
    symbols = {name: sympy.Symbol(name) for name in rf.numerator.variables}
    ordered = tuple(symbols.values())
    num, den = to_sympy(rf.numerator, ordered), to_sympy(rf.denominator, ordered)
    theirs_num, theirs_den = sympy.fraction(sympy.cancel(tree_to_sympy(tree, symbols)))
    assert sympy.expand(num * theirs_den - den * theirs_num) == 0
    assert sympy.gcd(num, den) == 1


@settings(deadline=None)
@given(nonzero_pairs(), st.data())
def test_a_variable_dividing_every_term_of_both_is_never_certified_coprime(pair, data):
    a, b = pair
    x = Polynomial.var(a.variables, data.draw(st.sampled_from(a.variables)))
    assert not _certified_coprime(x * a, x * b)


@settings(deadline=None)
@given(nonzero_pairs())
def test_a_certificate_over_a_large_power_is_sound(pair):
    # x^E·a and b share a factor exactly when x·a and b do
    a, b = pair
    x = Polynomial.var(a.variables, "x")
    if _certified_coprime(x ** 9999999999 * a, b):
        symbols = sympy.symbols(a.variables)
        ours = to_sympy((x * a).primitive(), symbols), to_sympy(b.primitive(), symbols)
        assert sympy.gcd(*ours) in (1, -1)


@pytest.mark.parametrize("exponent", [10000000, 9999999999])
def test_a_large_shared_power_is_reduced_at_once(exponent):
    # Images once had one coefficient per degree up to the exponent:
    # 10^7 took seconds and hundreds of MB, and ten digits asked for gigabytes.
    tree = parse_text(f"x^{exponent}*(x+1)/(x^{exponent}*(x+2))")
    start = perf_counter()
    rendered = canonicalize(tree).render()
    assert perf_counter() - start < 2
    assert rendered == "(x + 1) / (x + 2)"


# -- reduced fractions ---------------------------------------------------------------------


def test_make_reduces_to_lowest_terms():
    num = P(XY, {(2, 0): 1, (0, 2): -1})  # x^2 - y^2
    den = P(XY, {(1, 0): 1, (0, 1): -1})  # x - y
    rf = RationalForm.make(num, den)
    assert rf.numerator == P(XY, {(1, 0): 1, (0, 1): 1})
    assert rf.is_polynomial


def test_make_normalizes_sign_and_content():
    # (-2x) / (-4y) must come out as x / (2y)
    rf = RationalForm.make(P(XY, {(1, 0): -2}), P(XY, {(0, 1): -4}))
    assert rf.numerator == P(XY, {(1, 0): 1})
    assert rf.denominator == P(XY, {(0, 1): 2})


def test_zero_numerator_collapses_to_canonical_zero():
    rf = RationalForm.make(Polynomial.zero(XY), P(XY, {(0, 1): 5}))
    assert rf.is_zero
    assert rf.denominator == Polynomial.const(XY, 1)


def times(a, b):
    return RationalForm.make(a.numerator * b.numerator, a.denominator * b.denominator)


def over(a, b):
    return RationalForm.make(a.numerator * b.denominator, a.denominator * b.numerator)


def test_zero_denominator_is_rejected():
    one = RationalForm.make(Polynomial.const(XY, 1), Polynomial.const(XY, 1))
    zero = RationalForm.make(Polynomial.zero(XY), Polynomial.const(XY, 1))
    with pytest.raises(ZeroDivisionError):
        RationalForm.make(Polynomial.const(XY, 1), Polynomial.zero(XY))
    with pytest.raises(ZeroDivisionError):
        over(one, zero)


@given(polynomials(nonzero=True), polynomials(nonzero=True))
def test_construction_routes_agree(a, d):
    # building a/d directly or via (a*k)/(d*k) lands on the same pair
    k = P(XY, {(1, 1): 3, (0, 0): 1})
    direct = RationalForm.make(a, d)
    padded = RationalForm.make(a * k, d * k)
    assert direct == padded


@given(
    expressions(names=XY, allow_units=False, max_leaves=3),
    expressions(names=XY, allow_units=False, max_leaves=3),
)
def test_field_laws_on_fractions(s, t):
    # sums through the canonicalizer; products and quotients also by
    # reducing the cross products of two reduced forms, which must agree
    try:
        x, y = canonicalize(s, XY), canonicalize(t, XY)
    except DivisionByZero:
        assume(False)
    assert canonicalize(Add((s, t), "+"), XY) == canonicalize(Add((t, s), "+"), XY)
    assert canonicalize(Add((s, s), "-"), XY).is_zero
    assert canonicalize(Mul((s, t), "*"), XY) == times(x, y) == times(y, x)
    if not y.is_zero:
        assert canonicalize(Mul((s, t, t), "/*"), XY) == times(over(x, y), y) == x


def test_invariants_hold_after_arithmetic():
    rf = canonicalize(parse_text("(x + y)/(x - y) + (x - y)/(x + y)"))
    assert poly_gcd(rf.numerator, rf.denominator) == Polynomial.const(XY, 1)
    assert rf.denominator.leading_coefficient > 0
    assert math.gcd(rf.numerator.content(), rf.denominator.content()) == 1


def test_render_forms():
    assert canonicalize(parse_text("x + y")).render() == "x + y"
    assert canonicalize(parse_text("x / y")).render() == "(x) / (y)"
    assert canonicalize(parse_text("x - x"), XY).render() == "0"


def tree_to_sympy(node, symbols):
    """The syntax tree as a sympy expression, with eps read as ``1/H``."""
    if isinstance(node, Const):
        return sympy.Rational(node.value.numerator, node.value.denominator)
    if isinstance(node, Var):
        return symbols[node.name]
    if isinstance(node, Eps):
        return 1 / symbols["H"]
    if isinstance(node, HUnit):
        return symbols["H"]
    if isinstance(node, Neg):
        return -tree_to_sympy(node.arg, symbols)
    if isinstance(node, Pow):
        return tree_to_sympy(node.base, symbols) ** node.exponent
    apply = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }
    value = tree_to_sympy(node.args[0], symbols)
    for op, arg in zip(node.ops, node.args[1:]):
        value = apply[op](value, tree_to_sympy(arg, symbols))
    return value


@given(expressions(names=XY))
def test_canonical_forms_are_reduced_and_match_sympy(tree):
    try:
        rf = canonicalize(tree, XY)
    except DivisionByZero:
        assume(False)
    variables = rf.numerator.variables
    symbols = {name: sympy.Symbol(name) for name in variables}
    ordered = tuple(symbols.values())
    num, den = to_sympy(rf.numerator, ordered), to_sympy(rf.denominator, ordered)
    assert sympy.cancel(tree_to_sympy(tree, symbols) - num / den) == 0
    assert sympy.gcd(num, den) == 1
    assert rf.denominator.leading_coefficient > 0
    coefficients = [c for _, c in rf.numerator.terms + rf.denominator.terms]
    assert math.gcd(*coefficients) == 1


@given(expressions(names=XY))
@example(parse_text("3/4*x - 0.5*y + eps/2"))
def test_every_coefficient_is_an_int(tree):
    try:
        fractions = _Fractions(XYH)
        fraction = _eval(tree, fractions.env, 0, fractions)
        form = canonicalize(tree, XYH)
    except DivisionByZero:
        assume(False)
    for poly in (*fraction, form.numerator, form.denominator):
        assert all(type(c) is int for _, c in poly.terms)


def test_polynomial_render_spot_checks():
    h_only = ("H",)
    p = P(h_only, {(2,): -4})
    assert p.render() == "-4·H^2"
    q = P(XY, {(1, 1): 1, (0, 0): -1})
    assert q.render() == "x·y - 1"
    assert str(q) == q.render()


def _reference_render(poly):
    """``poly`` as text, each coefficient printed by ``str``."""
    parts = []
    for mono, coef in monomials(poly):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(poly.variables, mono) if e]
        mag = abs(coef)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "·".join(factors)
        else:
            body = "·".join([str(mag)] + factors)
        if parts:
            parts.append(f"- {body}" if coef < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if coef < 0 else body)
    return " ".join(parts) or "0"


@given(polynomials(XYH, max_terms=6))
def test_render_matches_the_reference_layout(poly):
    assert poly.render() == _reference_render(poly)


@pytest.mark.parametrize(
    "source", ["10^3000*10^3000*x", f"(x^{'9' * MAX_DIGITS})^{'9' * MAX_DIGITS}"],
    ids=["coefficient", "exponent"],
)
def test_render_refuses_a_number_past_the_digit_cap(source):
    with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
        canonicalize(parse_text(source)).render()


# -- packed keys against an exponent-tuple reference ------------------------------
#
# A reference polynomial is a dict ``exponent tuple -> nonzero coefficient``
# over XY.  Exponents are drawn around the key width's limits: 16-bit
# fields keep the total degree below 2^15 and 32-bit ones below 2^31, so
# sums, products, powers, quotients and slices cross a repack both ways.

edge_exponents = st.sampled_from([0, 1, 2, 2**14, 2**15 - 1, 2**15, 2**16, 2**31 - 1, 2**31])
edge_monomials = st.tuples(edge_exponents, edge_exponents)
nonzero_coefs = coefs.filter(bool)


def edge_dicts(max_terms=3, min_terms=0):
    return st.dictionaries(edge_monomials, nonzero_coefs, min_size=min_terms, max_size=max_terms)


def as_dict(poly):
    return dict(monomials(poly))


def grlex(mono):
    return (sum(mono), mono)


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_pow(a, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_div_by_term(a, mono, coef):
    """``a`` divided by one term over Z, or None when that is not exact."""
    out = {}
    for m, c in a.items():
        diff = tuple(x - y for x, y in zip(m, mono))
        if min(diff) < 0 or c % coef:
            return None
        out[diff] = c // coef
    return out


def ref_coefficients_in(a, index):
    out = {}
    for m, c in a.items():
        out.setdefault(m[index], {})[m[:index] + (0,) + m[index + 1:]] = c
    return out


def ref_substitute(a, index, value):
    p, q = value.numerator, value.denominator
    view = ref_coefficients_in(a, index)
    degree = max(view, default=0)
    out = {}
    for k, coeff in view.items():
        out = ref_add(out, {m: c * p**k * q ** (degree - k) for m, c in coeff.items()})
    return out


def assert_same(poly, reference):
    """``poly`` holds ``reference``'s terms, in graded-lex order, and has the
    very ``terms`` of the same value built from scratch."""
    assert monomials(poly) == sorted(reference.items(), key=lambda t: grlex(t[0]), reverse=True)
    assert poly.terms == P(XY, reference).terms


@given(edge_dicts(), edge_dicts(), edge_dicts(max_terms=2, min_terms=1), st.integers(0, 3))
def test_ring_operations_match_the_tuple_reference(a, b, d, n):
    pa, pb, pd = P(XY, a), P(XY, b), P(XY, d)
    assert_same(pa, a)
    assert_same(pa + pb, ref_add(a, b))
    assert_same(pa - pb, ref_add(a, ref_neg(b)))
    assert_same(-pa, ref_neg(a))
    assert_same(pa * pb, ref_mul(a, b))
    assert_same(pa**n, ref_pow(a, n))
    assert_same((pa * pd).exact_div(pd), a)
    assert pa.content() == math.gcd(*a.values())
    assert pa.render() == _reference_render(pa)  # its terms in the reference's order
    # equal values built by different routes have equal terms
    assert (pa + pb - pb).terms == pa.terms
    assert (pa * pb).terms == (pb * pa).terms
    assert (pa * pd - pd * pa).terms == ()


@given(edge_dicts(), edge_monomials, nonzero_coefs)
def test_division_by_a_term_matches_the_tuple_reference(a, mono, coef):
    # a key difference that underflows a field sets its guard bit
    quotient = ref_div_by_term(a, mono, coef)
    if quotient is None:
        with pytest.raises(ValueError):
            P(XY, a).exact_div(P(XY, {mono: coef}))
    else:
        assert_same(P(XY, a).exact_div(P(XY, {mono: coef})), quotient)


@given(edge_dicts(max_terms=4), st.integers(0, 1), small_fractions)
def test_views_and_substitution_match_the_tuple_reference(a, index, value):
    view = P(XY, a).coefficients_in(index)
    expected = ref_coefficients_in(a, index)
    assert sorted(view) == sorted(expected)
    for k, coeff in view.items():
        assert_same(coeff, expected[k])
    p, q = value.numerator, value.denominator
    degree = max(expected, default=0)
    try:
        check_power(max(abs(p), q), degree)
    except LCError:
        with pytest.raises(LCError, match=f"more than {MAX_DIGITS} digits"):
            P(XY, a).substitute(index, value)
    else:
        assert_same(P(XY, a).substitute(index, value), ref_substitute(a, index, value))


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.sampled_from([0, 2**14, 2**15 - 1, 2**15]), st.sampled_from([0, 1, 2**15])),
    polynomials(max_degree=2, max_terms=3, nonzero=True),
    polynomials(max_degree=2, max_terms=3, nonzero=True),
)
def test_gcd_commutes_with_a_monomial_factor_across_a_repack(mono, f, g):
    # gcd(m·f, m·g) = m·gcd(f, g) in a unique factorization domain
    m = P(XY, {mono: 1})
    assert_same(poly_gcd(m * f, m * g), ref_mul({mono: 1}, as_dict(poly_gcd(f, g))))


@pytest.mark.parametrize(
    "source, same_as, rendered",
    [
        ("x^70000*y - y*x^70000", "0*x*y", "0"),
        ("(x^40000)^2/x^79999", "x", "x"),
        ("x^18446744073709551616*x", "x^18446744073709551617", "x^18446744073709551617"),
    ],
    ids=["cancelled", "divided", "past_64_bits"],
)
def test_repacked_forms_equal_the_directly_built_ones(source, same_as, rendered):
    form = canonicalize(parse_text(source))
    assert form == canonicalize(parse_text(same_as), form.numerator.variables)
    assert form.render() == rendered

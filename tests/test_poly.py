"""Multivariate polynomials and reduced polynomial fractions.

The gcd and normalization paths are cross-checked against sympy, which
plays no part in the runtime code.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

from lcfield import DivisionByZero
from lcfield.dsl import (
    Add,
    Const,
    Eps,
    HUnit,
    Mul,
    Neg,
    Pow,
    Var,
    _canon,
    canonicalize,
    parse_text,
)
from lcfield.poly import Polynomial, RationalForm, poly_gcd

from _gen import expressions

F = Fraction
XY = ("x", "y")
XYH = ("x", "y", "H")


P = Polynomial.from_dict


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
    poly = Polynomial.from_dict(variables, entries)
    if nonzero and poly.is_zero:
        poly = poly + Polynomial.const(variables, 1)
    return poly


def to_sympy(poly, symbols):
    expr = sympy.Integer(0)
    for mono, coef in poly.terms:
        term = sympy.Integer(coef)
        for sym, exp in zip(symbols, mono):
            term *= sym**exp
        expr += term
    return sympy.expand(expr)


# -- ordering and construction ---------------------------------------------------


def test_terms_are_stored_in_descending_grlex_order():
    p = P(XY, {(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 1): 1})
    assert [m for m, _ in p.terms] == [(2, 0), (1, 1), (0, 1), (0, 0)]


def test_grlex_ranks_total_degree_first():
    # y^3 outranks x^2 despite the alphabetical tie-break inside a degree
    p = P(XY, {(2, 0): 1, (0, 3): 1})
    assert p.terms[0][0] == (0, 3)


def test_zero_terms_are_dropped():
    assert P(XY, {(1, 0): 0}).is_zero
    assert P(XY, {}).is_zero


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
    assert fixed.is_zero == (sympy.expand(expr.subs(symbols[index], rational(value))) == 0)


@given(polynomials(), st.integers(0, 1), small_fractions)
def test_substitute_zeroes_the_fixed_slot(a, index, value):
    fixed = a.substitute(index, value)
    assert all(mono[index] == 0 for mono, _ in fixed.terms)


@given(polynomials(), st.integers(0, 1))
def test_substituting_zero_drops_the_terms_that_use_the_variable(a, index):
    kept = {mono: coef for mono, coef in a.terms if mono[index] == 0}
    assert a.substitute(index, 0) == Polynomial.from_dict(XY, kept)


def test_substitute_spot_check():
    p = P(XY, {(2, 1): 1, (1, 0): -3, (0, 1): 2})  # x^2 y - 3x + 2y
    # 2^2 · (y/4 - 3/2 + 2y)
    assert p.substitute(0, F(1, 2)) == P(XY, {(0, 1): 9, (0, 0): -6})
    assert p.substitute(1, 0) == P(XY, {(1, 0): -3})


@given(polynomials(("x", "y", "z")), st.integers(0, 2))
def test_the_view_in_one_variable_rebuilds_the_polynomial(a, index):
    x = Polynomial.var(a.variables, a.variables[index])
    view = a.coefficients_in(index)
    for coeff in view.values():
        assert all(mono[index] == 0 for mono, _ in coeff.terms)
        # built without sorting, so it must already be stored canonically
        assert coeff == Polynomial.from_dict(a.variables, dict(coeff.terms))
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


@given(
    polynomials(max_degree=2, max_terms=3, nonzero=True),
    polynomials(max_degree=2, max_terms=3, nonzero=True),
    polynomials(max_degree=1, max_terms=2, nonzero=True),
)
def test_gcd_divides_both_and_sees_planted_factors(a, b, g):
    def degree(p):  # the graded-lex leading term has the top total degree
        return sum(p.terms[0][0])

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
        fraction = _canon(tree, XYH)
        form = canonicalize(tree, XYH)
    except DivisionByZero:
        assume(False)
    for poly in (*fraction, form.numerator, form.denominator):
        assert all(type(c) is int for _, c in poly.terms)


def test_polynomial_render_spot_checks():
    h_only = ("H",)
    p = Polynomial.from_dict(h_only, {(2,): -4})
    assert p.render() == "-4·H^2"
    q = P(XY, {(1, 1): 1, (0, 0): -1})
    assert q.render() == "x·y - 1"

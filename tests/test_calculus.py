"""Differential quotients, shadows, and the product rule bookkeeping."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, assume, strategies as st

import lcfield
from lcfield import (
    Classification,
    DivisionByZero,
    UnboundVariable,
    add,
    classify,
    eps,
    make_real,
    neg,
    standard_part,
)
from lcfield.calculus import (
    DiffResult,
    InconsistentDiffResult,
    NotFinite,
    UnsupportedNode,
    derivative_at,
    differential_quotient,
    symbolic_derivative,
)
from lcfield.dsl import Const, NonRationalNode, canonicalize, evaluate, parse_text
from lcfield.gallery import product_rule_report

from _gen import expressions, rationals


def F(n, d=1):
    return Fraction(n, d)


def quotient_of(source: str, point, **kwargs):
    return differential_quotient(
        parse_text(source), "x", make_real(Fraction(point)), **kwargs
    )


# -- differential quotient, frozen examples ----------------------------


def test_quotient_of_square_at_three():
    q = quotient_of("x^2", 3)
    assert q.terms == ((F(0), F(6)), (F(1), F(1)))


def test_quotient_of_cube_at_two():
    q = quotient_of("x^3", 2)
    assert q.terms == ((F(0), F(12)), (F(1), F(6)), (F(2), F(1)))


def test_quotient_of_reciprocal_at_two():
    # (1/(2+eps) - 1/2)/eps alternates with powers of 2 in the denominator
    q = quotient_of("1/x", 2)
    for k, (e, c) in enumerate(q.terms[:4]):
        assert e == k
        assert c == F((-1) ** (k + 1), 2 ** (k + 2))


def test_quotient_of_sqrt_at_four():
    q = quotient_of("sqrt(x)", 4)
    assert q.terms[0] == (F(0), F(1, 4))
    assert q.terms[1] == (F(1), F(-1, 64))


def test_quotient_direction_independence():
    forward = quotient_of("x^2", 3)
    backward = quotient_of("x^2", 3, increment=neg(eps()))
    assert standard_part(forward) == standard_part(backward) == 6
    assert forward.terms == ((F(0), F(6)), (F(1), F(1)))
    assert backward.terms == ((F(0), F(6)), (F(1), F(-1)))


def test_quotient_with_scaled_increment():
    two_eps = add(eps(), eps())
    q = quotient_of("x^2", 5, increment=two_eps)
    assert q.terms == ((F(0), F(10)), (F(1), F(2)))


def test_quotient_of_constant_is_zero():
    assert quotient_of("7", 3).terms == ()


# -- derivative_at ------------------------------------------------------


def test_derivative_of_square():
    r = derivative_at(parse_text("x^2"), "x", 3)
    assert r.shadow == 6
    assert r.discarded == eps()
    assert r.quotient == add(make_real(6), eps())


def test_derivative_of_cube_discards_two_orders():
    r = derivative_at(parse_text("x^3"), "x", 2)
    assert r.shadow == 12
    assert r.discarded.terms == ((F(1), F(6)), (F(2), F(1)))


def test_derivative_of_reciprocal():
    r = derivative_at(parse_text("1/x"), "x", 2)
    assert r.shadow == F(-1, 4)
    assert classify(r.discarded) is Classification.INFINITESIMAL


def test_derivative_of_sqrt():
    assert derivative_at(parse_text("sqrt(x)"), "x", 4).shadow == F(1, 4)


def test_derivative_of_sqrt_at_zero_is_not_finite():
    with pytest.raises(NotFinite):
        derivative_at(parse_text("sqrt(x)"), "x", 0)


def test_derivative_of_constant():
    r = derivative_at(parse_text("5"), "x", 1)
    assert r.shadow == 0
    assert r.discarded.terms == ()


def test_derivative_accepts_rational_point():
    r = derivative_at(parse_text("x^2"), "x", F(1, 2))
    assert r.shadow == 1


def test_derivative_with_environment():
    r = derivative_at(parse_text("y*x^2"), "x", 3, env={"y": make_real(2)})
    assert r.shadow == 12


def test_derivative_propagates_evaluation_errors():
    with pytest.raises(UnboundVariable):
        derivative_at(parse_text("x + y"), "x", 1)
    with pytest.raises(DivisionByZero):
        derivative_at(parse_text("1/x"), "x", 0)


def test_diff_result_rejects_mismatched_parts():
    with pytest.raises(InconsistentDiffResult):
        DiffResult(
            quotient=make_real(1), shadow=F(2), discarded=make_real(0)
        )
    with pytest.raises(InconsistentDiffResult):
        DiffResult(quotient=make_real(2), shadow=F(1), discarded=make_real(1))


def test_diff_result_checks_hold_under_optimized_python():
    script = (
        "from lcfield import DiffResult, InconsistentDiffResult, make_real\n"
        "try:\n"
        "    DiffResult(quotient=make_real(1), shadow=5, discarded=make_real(0))\n"
        "except InconsistentDiffResult:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(lcfield.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


# -- quotient shadow against the symbolic oracle ------------------------


@given(
    expressions(names=("x",), allow_units=False),
    rationals,
)
def test_shadow_matches_symbolic_oracle(expr, point):
    derivative = symbolic_derivative(expr, "x")
    try:
        result = derivative_at(expr, "x", point)
        expected = evaluate(derivative, {"x": make_real(point)})
    except DivisionByZero:
        assume(False)
    assert classify(expected) in (
        Classification.ZERO,
        Classification.APPRECIABLE,
    )
    assert result.shadow == standard_part(expected)


@given(expressions(names=("x",), allow_units=False), rationals)
def test_quotient_shadow_is_direction_free(expr, point):
    p = make_real(Fraction(point))
    try:
        forward = differential_quotient(expr, "x", p)
        backward = differential_quotient(expr, "x", p, increment=neg(eps()))
    except DivisionByZero:
        assume(False)
    assert standard_part(forward) == standard_part(backward)


# -- symbolic oracle on its own -----------------------------------------


def canon(source_or_expr, variables=("x",)):
    expr = (
        parse_text(source_or_expr)
        if isinstance(source_or_expr, str)
        else source_or_expr
    )
    return canonicalize(expr, variables)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x^2", "2*x"),
        ("x^3 - 4*x", "3*x^2 - 4"),
        ("(x + 1)/x", "-1/x^2"),
        ("x^-2", "-2/x^3"),
        ("2", "0"),
        ("eps", "0"),
        ("H", "0"),
        ("x*x", "2*x"),
        ("x", "1"),
    ],
)
def test_symbolic_derivative_examples(source, expected):
    got = symbolic_derivative(parse_text(source), "x")
    assert canon(got) == canon(expected)


def test_symbolic_derivative_treats_other_variables_as_constant():
    got = symbolic_derivative(parse_text("x*y + y^2"), "x")
    assert canon(got, ("x", "y")) == canon("y", ("x", "y"))


def test_symbolic_derivative_of_power_zero():
    assert symbolic_derivative(parse_text("x^0"), "x") == Const(F(0))


def test_symbolic_derivative_rejects_sqrt_and_st():
    # one error for a node outside the rational fragment, as canonicalize raises
    with pytest.raises(NonRationalNode) as info:
        symbolic_derivative(parse_text("sqrt(x)"), "x")
    assert isinstance(info.value, UnsupportedNode)
    with pytest.raises(UnsupportedNode) as info:
        symbolic_derivative(parse_text("1 + st(x)"), "x")
    assert info.value.position == 4


# -- product rule -------------------------------------------------------


def test_product_rule_report_for_square_times_cube():
    report = product_rule_report(
        parse_text("x^2"), parse_text("x^3"), "x", 2
    )
    assert report.example_id == "product_rule"
    assert report.passed
    assert [c.passed for c in report.claims] == [True, True, True]
    assert "u = x^2" in report.parameters
    assert "x = 2" in report.parameters


def test_product_rule_shadow_is_the_derivative_of_the_product():
    # d(x^5)/dx at 2 is 80; the shadow claim records both sides
    report = product_rule_report(
        parse_text("x^2"), parse_text("x^3"), "x", 2
    )
    shadow_claim = report.claims[1]
    assert "80" in shadow_claim.computed
    assert shadow_claim.passed


def test_product_rule_cross_term_vanishes_for_constants():
    report = product_rule_report(parse_text("3"), parse_text("x"), "x", 1)
    assert report.passed


@given(
    expressions(names=("x",), allow_units=False, allow_div=False),
    expressions(names=("x",), allow_units=False, allow_div=False),
    rationals,
)
def test_product_rule_holds_for_random_pairs(u, v, point):
    try:
        report = product_rule_report(u, v, "x", point)
    except DivisionByZero:
        # negative powers divide; skip pole draws
        assume(False)
    assert report.passed

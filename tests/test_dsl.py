"""Expression language: lexer, parser, printer, evaluator, canonicalizer."""

import gc
import types
from fractions import Fraction

import pytest
from hypothesis import given, assume, strategies as st

from lcfield import (
    DivisionByZero,
    InfiniteOperand,
    LCNumber,
    NegativeLeadingCoefficient,
    NonSquareLeadingCoefficient,
    add,
    big_h,
    eps,
    make_monomial,
    make_real,
    mul,
    standard_part,
    sub,
)
from lcfield.dsl import (
    MAX_DEPTH,
    Add,
    Const,
    Div,
    Eps,
    HUnit,
    LexError,
    Mul,
    Neg,
    NonRationalNode,
    ParseError,
    Pow,
    Sqrt,
    St,
    Sub,
    UnboundVariable,
    Var,
    canonicalize,
    evaluate,
    free_variables,
    parse_text,
    to_source,
    tokenize,
    uses_units,
)
from lcfield.poly import RationalForm

from _gen import expressions, rationals

F = Fraction


# -- lexer -------------------------------------------------------------------


def test_token_stream_of_a_compound_expression():
    tokens = tokenize("(y+2+2/H)^2")
    assert [t.kind for t in tokens] == [
        "lparen", "identifier", "plus", "number", "plus",
        "number", "slash", "identifier", "rparen", "caret", "number",
    ]
    assert len(tokens) == 11
    assert tokens[0].position == 0
    assert tokens[-1].position == 10


def test_token_kinds_cover_the_alphabet():
    tokens = tokenize("a_1 * 7 - 3/4 + (x) ^ 2 , eps")
    kinds = {t.kind for t in tokens}
    assert kinds == {
        "identifier", "star", "number", "minus", "slash",
        "plus", "lparen", "rparen", "caret", "comma",
    }


def test_double_dot_is_a_lex_error_at_the_second_dot():
    with pytest.raises(LexError) as info:
        tokenize("3..5")
    assert info.value.position == 2


def test_trailing_dot_is_a_lex_error():
    with pytest.raises(LexError) as info:
        tokenize("3.")
    assert info.value.position == 2


def test_leading_dot_is_not_a_number():
    with pytest.raises(LexError) as info:
        tokenize(".5")
    assert info.value.position == 0


def test_unknown_character_reports_its_offset():
    with pytest.raises(LexError) as info:
        tokenize("x + @")
    assert info.value.position == 4


def test_decimal_literals_become_exact_fractions():
    assert parse_text("0.5") == Const(F(1, 2))
    assert parse_text("3.25") == Const(F(13, 4))
    assert parse_text("2.0") == Const(F(2))


# -- parser shapes -------------------------------------------------------------


def test_negation_binds_looser_than_power():
    assert parse_text("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse_text("(-x)^2") == Pow(Neg(Var("x")), 2)


def test_precedence_and_associativity():
    assert parse_text("1 + 2*x") == Add(Const(F(1)), Mul(Const(F(2)), Var("x")))
    assert parse_text("a - b - c") == Sub(Sub(Var("a"), Var("b")), Var("c"))
    assert parse_text("a/b/c") == Div(Div(Var("a"), Var("b")), Var("c"))
    assert parse_text("a*b + c") == Add(Mul(Var("a"), Var("b")), Var("c"))


def test_rational_literal_folding():
    assert parse_text("3/2") == Const(F(3, 2))
    assert parse_text("3 / 2") == Const(F(3, 2))
    assert parse_text("x + 1/2") == Add(Var("x"), Const(F(1, 2)))


def test_folding_defers_to_a_following_power():
    assert parse_text("3/2^2") == Div(Const(F(3)), Pow(Const(F(2)), 2))
    assert parse_text("(3/2)^2") == Pow(Const(F(3, 2)), 2)


def test_folding_skips_zero_and_decimal_denominators():
    assert parse_text("3/0") == Div(Const(F(3)), Const(F(0)))
    assert parse_text("3/2.5") == Div(Const(F(3)), Const(F(5, 2)))


def test_power_requires_an_integer_literal_exponent():
    with pytest.raises(ParseError) as info:
        parse_text("x ^ y")
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_text("x^(2)")
    assert parse_text("x^-2") == Pow(Var("x"), -2)
    assert parse_text("x^0") == Pow(Var("x"), 0)


def test_power_does_not_chain():
    with pytest.raises(ParseError) as info:
        parse_text("2^3^2")
    assert info.value.position == 3


def test_reserved_words_parse_as_units_and_functions():
    assert parse_text("eps") == Eps()
    assert parse_text("H") == HUnit()
    assert parse_text("sqrt(x)") == Sqrt(Var("x"))
    assert parse_text("st(x + eps)") == St(Add(Var("x"), Eps()))
    with pytest.raises(ParseError):
        parse_text("sqrt 4")
    with pytest.raises(ValueError):
        Var("eps")


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_text("1 +")
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse_text("(1 + 2")
    assert info.value.position == 6
    with pytest.raises(ParseError) as info:
        parse_text("1 2")
    assert info.value.position == 2


def test_empty_source_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_text("")
    with pytest.raises(ParseError):
        parse_text("   ")


@pytest.mark.parametrize(
    "source, position",
    [
        # the MAX_DEPTH-th "+" makes the left-nested sum one node too deep
        ("+".join(["1"] * 2000), 2 * MAX_DEPTH - 1),
        ("+".join(["1"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
        ("(" * 3000 + "1" + ")" * 3000, MAX_DEPTH),
        ("sqrt(" * 500 + "1" + ")" * 500, 5 * MAX_DEPTH + 4),
        ("-" * 3000 + "x", MAX_DEPTH),
    ],
    ids=["flat_sum", "one_term_too_many", "parentheses", "sqrt", "negations"],
)
def test_nesting_past_the_depth_bound_is_a_parse_error(source, position):
    with pytest.raises(ParseError) as info:
        parse_text(source)
    assert info.value.position == position


@pytest.mark.parametrize(
    "source, same",
    [
        (" + ".join(["x"] * MAX_DEPTH), f"{MAX_DEPTH}*x"),
        ("(" * (MAX_DEPTH - 1) + "x" + " + 1)" * (MAX_DEPTH - 1), f"x + {MAX_DEPTH - 1}"),
        ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "x"),
        ("-" * (MAX_DEPTH - 1) + "x", "-x"),
    ],
    ids=["flat_sum", "nested_sums", "parentheses", "negations"],
)
def test_a_tree_at_the_depth_bound_evaluates_prints_and_canonicalizes(source, same):
    tree, reference = parse_text(source), parse_text(same)
    env = {"x": make_real(F(3, 2))}
    assert evaluate(tree, env) == evaluate(reference, env)
    assert parse_text(to_source(tree)) == tree
    assert canonicalize(tree) == canonicalize(reference)


# -- structure helpers ------------------------------------------------------------


def test_free_variables_and_units():
    e = parse_text("x*y + eps*z - sqrt(w)")
    assert free_variables(e) == {"x", "y", "z", "w"}
    assert uses_units(e)
    assert not uses_units(parse_text("x + 1"))
    assert free_variables(parse_text("1 + eps")) == set()


# -- printer ------------------------------------------------------------------------


def test_to_source_spot_checks():
    assert to_source(parse_text("-x^2")) == "-x^2"
    assert to_source(parse_text("(x + y)*z")) == "(x + y)*z"
    assert to_source(parse_text("x - (y - z)")) == "x - (y - z)"
    assert to_source(Div(Const(F(6)), Const(F(2)))) == "6/(2)"
    assert to_source(parse_text("(3/2)^2")) == "(3/2)^2"
    assert to_source(parse_text("st(sqrt(x))")) == "st(sqrt(x))"


@given(expressions(allow_sqrt=True, allow_st=True))
def test_print_parse_round_trip(tree):
    assert parse_text(to_source(tree)) == tree


# -- evaluation ------------------------------------------------------------------------


def test_evaluate_line_example():
    value = evaluate(parse_text("1 - x/H"), {"x": make_real(4)})
    assert value == sub(make_real(1), make_monomial(4, 1))
    assert standard_part(value) == 1


def test_evaluate_uses_bindings_and_units():
    env = {"x": make_real(3)}
    assert evaluate(parse_text("st(2*x + eps)"), env) == make_real(6)
    assert evaluate(parse_text("eps*H"), env) == make_real(1)
    assert evaluate(parse_text("sqrt(x^2)"), env) == make_real(3)


def test_evaluate_respects_precision():
    v = evaluate(parse_text("1/(1 - eps)"), precision=4)
    assert v == LCNumber.from_terms([(k, 1) for k in range(4)], precision=4)


def test_unbound_variable_reports_name_and_position():
    with pytest.raises(UnboundVariable) as info:
        evaluate(parse_text("2*y + 1"))
    assert "y" in str(info.value)
    assert info.value.position == 2


@pytest.mark.parametrize(
    "source, error, position",
    [
        ("1/(x-x)", DivisionByZero, 1),
        ("2 + (x - x)^-1", DivisionByZero, 11),
        ("1 + sqrt(x - 2)", NegativeLeadingCoefficient, 4),
        ("3*sqrt(2)", NonSquareLeadingCoefficient, 2),
        ("1 + st(H)", InfiniteOperand, 4),
        # the inner operator is the one that divides by zero
        ("1/(1/(x - x))", DivisionByZero, 4),
    ],
    ids=[
        "div",
        "negative_power",
        "sqrt_negative",
        "sqrt_nonsquare",
        "st_infinite",
        "nested_div",
    ],
)
def test_division_by_zero_carries_the_operator_position(source, error, position):
    with pytest.raises(error) as info:
        evaluate(parse_text(source), {"x": make_real(1)})
    assert info.value.position == position


def test_a_caught_evaluation_error_leaves_no_frame_cycles():
    expr = parse_text("2 + 3*(1/(x-x))")
    gc.collect()
    flags, saved = gc.get_debug(), gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            evaluate(expr, {"x": make_real(1)})
        except DivisionByZero:
            pass
        gc.collect()
        frames = [
            obj
            for obj in gc.garbage
            if isinstance(obj, types.FrameType)
            and obj.f_globals.get("__name__") == "lcfield.dsl"
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
    assert frames == []


def test_standard_part_of_infinite_value_raises():
    with pytest.raises(InfiniteOperand):
        evaluate(parse_text("st(H)"))


def test_integer_zero_power_is_one_even_at_zero():
    assert evaluate(parse_text("x^0"), {"x": make_real(0)}) == make_real(1)


@given(expressions(names=("x",), allow_units=False, allow_div=False), rationals)
def test_evaluation_is_a_homomorphism_on_polynomial_trees(tree, q):
    # direct evaluation pitted against substitute-then-arithmetic by hand
    def by_hand(node):
        if isinstance(node, Const):
            return make_real(node.value)
        if isinstance(node, Var):
            return make_real(q)
        if isinstance(node, Add):
            return add(by_hand(node.left), by_hand(node.right))
        if isinstance(node, Sub):
            return sub(by_hand(node.left), by_hand(node.right))
        if isinstance(node, Mul):
            return mul(by_hand(node.left), by_hand(node.right))
        if isinstance(node, Neg):
            return sub(make_real(0), by_hand(node.arg))
        if isinstance(node, Pow):
            base = by_hand(node.base)
            result = make_real(1)
            for _ in range(abs(node.exponent)):
                result = mul(result, base)
            if node.exponent < 0:
                return make_real(1) / result
            return result
        raise AssertionError(node)

    try:
        expected = by_hand(tree)
    except DivisionByZero:
        assume(False)
        return
    assert evaluate(tree, {"x": make_real(q)}) == expected


# -- canonical forms -------------------------------------------------------------------


def test_canonicalize_detects_polynomial_identity():
    lhs = parse_text("(x + 1)^2")
    rhs = parse_text("x^2 + 2*x + 1")
    assert canonicalize(lhs) == canonicalize(rhs)
    assert canonicalize(parse_text("(x + 1)^2 - (x^2 + 2*x + 1)")).is_zero


def test_canonicalize_folds_units_to_one_indeterminate():
    # comparing across expressions takes a shared variable tuple, here ("H",)
    h = ("H",)
    assert canonicalize(parse_text("H*(1/H)"), h) == canonicalize(parse_text("1"), h)
    assert canonicalize(parse_text("eps*H"), h) == canonicalize(parse_text("1"), h)
    assert canonicalize(parse_text("eps"), h) == canonicalize(parse_text("1/H"), h)
    assert canonicalize(parse_text("H^2*eps"), h) == canonicalize(parse_text("H"), h)


def test_canonicalize_distinguishes_non_identities():
    assert canonicalize(parse_text("(x + 1)^2")) != canonicalize(
        parse_text("x^2 + 1")
    )
    h = ("H",)
    assert canonicalize(parse_text("H*eps"), h) != canonicalize(parse_text("0"), h)


def test_canonicalize_orders_variables_alphabetically_with_h_last():
    rf = canonicalize(parse_text("z + a + H + eps"))
    assert rf.numerator.variables == ("a", "z", "H")


def test_canonicalize_accepts_explicit_variable_tuples():
    rf1 = canonicalize(parse_text("x + 1"), ("x", "y"))
    rf2 = canonicalize(parse_text("x + 1 + y - y"), ("x", "y"))
    assert rf1 == rf2
    with pytest.raises(ValueError):
        canonicalize(parse_text("x + w"), ("x",))


def test_canonicalize_rejects_non_rational_nodes():
    with pytest.raises(NonRationalNode):
        canonicalize(parse_text("sqrt(x)"))
    with pytest.raises(NonRationalNode):
        canonicalize(parse_text("st(x)"))


def test_canonicalize_rejects_identically_zero_denominators():
    with pytest.raises(DivisionByZero):
        canonicalize(parse_text("1/(x - x)"))
    with pytest.raises(DivisionByZero):
        canonicalize(parse_text("(x - x)^-1"))
    # a denominator that merely CAN vanish is fine
    rf = canonicalize(parse_text("1/x"))
    assert isinstance(rf, RationalForm)


@given(expressions(names=("x", "y"), allow_units=False), rationals, rationals)
def test_canonical_form_evaluates_like_the_tree(tree, qx, qy):
    try:
        rf = canonicalize(tree, ("x", "y"))
    except DivisionByZero:
        assume(False)
        return
    point = {"x": qx, "y": qy}
    den = rf.denominator.evaluate(point)
    assume(den != 0)
    try:
        direct = evaluate(tree, {"x": make_real(qx), "y": make_real(qy)})
    except DivisionByZero:
        assume(False)
        return
    assert direct == make_real(rf.numerator.evaluate(point) / den)


@given(expressions(names=("x",), allow_units=False, max_leaves=4))
def test_syntactically_shuffled_trees_share_a_canonical_form(tree):
    doubled = Sub(Mul(Const(F(2)), tree), tree)
    try:
        assert canonicalize(doubled, ("x",)) == canonicalize(tree, ("x",))
    except DivisionByZero:
        assume(False)

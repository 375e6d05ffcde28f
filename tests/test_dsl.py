"""Expression language: lexer, parser, printer, evaluator, canonicalizer."""

import gc
import os
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, assume, strategies as st

import lcfield
from lcfield import dsl
from lcfield import (
    DivisionByZero,
    InfiniteOperand,
    LCNumber,
    NegativeLeadingCoefficient,
    NonSquareLeadingCoefficient,
    add,
    big_h,
    eps,
    inverse,
    make_monomial,
    make_real,
    mul,
    standard_part,
    sub,
)
from lcfield.core import MAX_DIGITS
from lcfield.dsl import (
    MAX_DEPTH,
    MAX_TERMS,
    MAX_VARIABLES,
    Add,
    Const,
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
        "(", "identifier", "+", "number", "+",
        "number", "/", "identifier", ")", "^", "number",
    ]
    assert len(tokens) == 11
    assert tokens[0].position == 0
    assert tokens[-1].position == 10


def test_token_kinds_cover_the_alphabet():
    tokens = tokenize("a_1 * 7 - 3/4 + (x) ^ 2 · eps")
    kinds = {t.kind for t in tokens}
    assert kinds == {
        "identifier", "*", "number", "-", "/", "+", "(", ")", "^",
    }
    # an operator's kind is its character, and "·" has the kind "*"
    assert [(t.kind, t.text) for t in tokens if t.text in "*·"] == [
        ("*", "*"), ("*", "·"),
    ]
    # no grammar rule reads a comma, so it is not a token
    with pytest.raises(LexError) as info:
        tokenize("1,2")
    assert info.value.position == 1
    assert str(info.value) == "invalid character ',' (at position 1)"


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
    # a lexing failure is a parse failure, so one except clause takes both
    with pytest.raises(ParseError):
        parse_text("x + @")


def test_an_identifier_continues_only_with_letters_decimal_digits_and_underscores():
    # '²' is alphanumeric but neither a letter nor a decimal digit
    with pytest.raises(LexError) as info:
        tokenize("x²")
    assert str(info.value) == "invalid character '²' (at position 1)"
    for name in ("x_1", "x١", "αβ2"):
        assert [(t.kind, t.text) for t in tokenize(name)] == [("identifier", name)]


def test_decimal_literals_become_exact_fractions():
    assert parse_text("0.5") == Const(F(1, 2))
    assert parse_text("3.25") == Const(F(13, 4))
    assert parse_text("2.0") == Const(F(2))


@given(st.text())
@example("²")  # '²' and '①' are isdigit() but not isdecimal()
@example("①")
@example("x^²")
def test_any_text_parses_or_raises_a_lex_or_parse_error(text):
    try:
        parse_text(text)
    except (LexError, ParseError):
        pass


# -- parser shapes -------------------------------------------------------------


def test_negation_binds_looser_than_power():
    assert parse_text("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse_text("(-x)^2") == Pow(Neg(Var("x")), 2)


def test_precedence_and_associativity():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert parse_text("1 + 2*x") == Add((Const(F(1)), Mul((Const(F(2)), Var("x")), "*")), "+")
    assert parse_text("a - b - c") == Add((a, b, c), "--")
    assert parse_text("a/b/c") == Mul((a, b, c), "//")
    assert parse_text("a*b + c") == Add((Mul((a, b), "*"), c), "+")
    assert parse_text("a - (b - c)") == Add((a, Add((b, c), "-")), "-")


@pytest.mark.parametrize(
    "source, same",
    [("(a - b) + c", "a - b + c"), ("((a*b))/c", "a*b/c"), ("(a/b)·c", "a/b*c")],
)
def test_a_parenthesized_first_chain_is_extended(source, same):
    # the binary trees these chains replace were equal too
    assert parse_text(source) == parse_text(same)


def test_rational_literal_folding():
    assert parse_text("3/2") == Const(F(3, 2))
    assert parse_text("3 / 2") == Const(F(3, 2))
    assert parse_text("x + 1/2") == Add((Var("x"), Const(F(1, 2))), "+")


def test_folding_defers_to_a_following_power():
    assert parse_text("3/2^2") == Mul((Const(F(3)), Pow(Const(F(2)), 2)), "/")
    assert parse_text("(3/2)^2") == Pow(Const(F(3, 2)), 2)


def test_folding_skips_zero_and_decimal_denominators():
    assert parse_text("3/0") == Mul((Const(F(3)), Const(F(0))), "/")
    assert parse_text("3/2.5") == Mul((Const(F(3)), Const(F(5, 2))), "/")


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
    assert parse_text("st(x + eps)") == St(Add((Var("x"), Eps()), "+"))
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
        # a sum of any length is one chain, one level deep: no error
        ("+".join(["1"] * 2000), None),
        ("+".join(["1"] * (MAX_DEPTH + 1)), None),
        ("(" * 3000 + "1" + ")" * 3000, MAX_DEPTH),
        ("sqrt(" * 500 + "1" + ")" * 500, 5 * MAX_DEPTH + 4),
        ("-" * 3000 + "x", MAX_DEPTH),
    ],
    ids=["flat_sum", "one_term_too_many", "parentheses", "sqrt", "negations"],
)
def test_nesting_past_the_depth_bound_is_a_parse_error(source, position):
    if position is None:
        assert isinstance(parse_text(source), Add)
        return
    with pytest.raises(ParseError) as info:
        parse_text(source)
    assert info.value.position == position


def _continuant(n: int) -> str:
    # K_n = x*K_(n-1) + K_(n-2): the numerator of a continued fraction
    # with n partial quotients x, whose coefficients are binomials
    return " + ".join(
        f"{comb(n - k, k)}*x^{n - 2 * k}" for k in range(n // 2 + 1)
    )


def _nested_quotients(levels: int) -> str:
    source = "x"
    for k in range(1, levels + 1):
        source = f"({source}/(y + {k}))*(y + {k})"
    return source


CONTINUED_FRACTION = "x" + " + 1/(x" * 29 + ")" * 29


@pytest.mark.parametrize(
    "source, same",
    [
        (" + ".join(["x"] * MAX_DEPTH), f"{MAX_DEPTH}*x"),
        ("(" * (MAX_DEPTH - 1) + "x" + " + 1)" * (MAX_DEPTH - 1), f"x + {MAX_DEPTH - 1}"),
        ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "x"),
        ("-" * (MAX_DEPTH - 1) + "x", "-x"),
        (CONTINUED_FRACTION, f"({_continuant(30)})/({_continuant(29)})"),
    ],
    ids=["flat_sum", "nested_sums", "parentheses", "negations", "continued_fraction"],
)
def test_a_tree_at_the_depth_bound_evaluates_prints_and_canonicalizes(source, same):
    tree, reference = parse_text(source), parse_text(same)
    env = {"x": make_real(F(3, 2))}
    assert evaluate(tree, env) == evaluate(reference, env)
    assert parse_text(to_source(tree)) == tree
    assert canonicalize(tree) == canonicalize(reference)


@pytest.mark.parametrize(
    "source, same, operands",
    [
        (" + ".join(["x - 1"] * 5000), "5000*x - 5000", 10_000),
        ("*".join(["x/2"] * 1000), "x^1000/2^1000", 2000),
        # twelve parenthesized levels of /(y + k) *(y + k), extended into
        # one chain: its unreduced fraction is x·P/P, reduced once
        (_nested_quotients(12), "x", 25),
    ],
    ids=["sum_of_10000", "product_of_2000", "nested_quotients"],
)
def test_a_chain_of_any_length_is_one_level_deep(source, same, operands):
    tree, reference = parse_text(source), parse_text(same)
    assert len(tree.args) == operands
    env = {"x": make_real(F(3, 2)), "y": make_real(F(1, 3))}
    assert evaluate(tree, env) == evaluate(reference, env)
    assert parse_text(to_source(tree)) == tree
    form = canonicalize(tree)
    assert canonicalize(reference, form.numerator.variables) == form


def test_a_repeated_denominator_is_not_multiplied_in_again():
    # cross-multiplying every term would give a denominator of degree 120
    tree = parse_text(" + ".join(["1/(x*y + z + 1)"] * 60))
    fractions = dsl._Fractions(("x", "y", "z"))
    _, den = dsl._eval(tree, fractions.env, 0, fractions)
    assert den.degree == 2  # the total degree of the leading term
    assert canonicalize(tree).render() == "(60) / (x·y + z + 1)"


@pytest.mark.parametrize("count", [MAX_VARIABLES, MAX_VARIABLES + 1])
def test_distinct_variables_past_the_cap_are_a_parse_error(count):
    source = " + ".join(f"v{i}" for i in range(count)) + " + v0*v1"
    if count <= MAX_VARIABLES:
        assert len(canonicalize(parse_text(source)).numerator.variables) == count
        # repeated names and the reserved words do not count
        assert len(free_variables(parse_text(f"{source} + sqrt(eps*H) + st(v1)"))) == count
        return
    with pytest.raises(ParseError) as info:
        parse_text(source)
    assert str(info.value).startswith(f"more than {MAX_VARIABLES} distinct variables")
    assert info.value.position == source.index(f"v{MAX_VARIABLES}")


def _nested(opener: str, depth: int) -> str:
    # Each step nests four levels inside a product and a sum: a
    # parenthesis, two unary minus signs and ``opener``.  Every level's
    # value is 1, so a sqrt( opener stays exact.
    source = "x/x"
    for _ in range(depth // 4):
        source = f"x*(--{opener}{source})^1)^1/x + 0"
    return source


def test_the_recursion_budget_holds_at_the_depth_bound():
    assert MAX_DEPTH % 4 == 0
    # a fresh interpreter at the default recursion limit, so the test
    # runner's own frames do not count against the walkers
    script = f"""
import sys
from fractions import Fraction
from lcfield import make_real
from lcfield.dsl import NonRationalNode, canonicalize, evaluate, parse_text, to_source
assert sys.getrecursionlimit() == 1000
env = {{"x": make_real(Fraction(3, 2))}}
one = canonicalize(parse_text("x/x"))
for source in ({_nested("sqrt(", MAX_DEPTH)!r}, {_nested("(", MAX_DEPTH)!r}):
    tree = parse_text(source)
    if evaluate(tree, env) != make_real(1) or parse_text(to_source(tree)) != tree:
        raise SystemExit("wrong value or round trip")
    try:
        form = canonicalize(tree)
    except NonRationalNode:
        form = "sqrt"
    if form != ("sqrt" if "sqrt" in source else one):
        raise SystemExit("wrong canonical form")
"""
    src = str(Path(lcfield.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for opener in ("sqrt(", "("):
        with pytest.raises(ParseError):
            parse_text(f"({_nested(opener, MAX_DEPTH)})")


# -- structure helpers ------------------------------------------------------------


def test_free_variables_and_units():
    e = parse_text("x*y + eps*z - sqrt(w)")
    assert free_variables(e) == {"x", "y", "z", "w"}
    assert uses_units(e)
    assert not uses_units(parse_text("x + 1"))
    assert free_variables(parse_text("1 + eps")) == set()


def _preorder(node):
    """Each node, then its children's walks in order: the recursive
    reference that ``dsl._scan`` must agree with."""
    yield node
    if isinstance(node, (Add, Mul)):
        children = node.args
    elif isinstance(node, Pow):
        children = (node.base,)
    elif isinstance(node, (Sqrt, St, Neg)):
        children = (node.arg,)
    else:
        children = ()
    for child in children:
        yield from _preorder(child)


@given(expressions(allow_sqrt=True, allow_st=True))
def test_one_scan_finds_what_a_recursive_preorder_walk_finds(tree):
    nodes = list(_preorder(tree))
    names = {n.name for n in nodes if isinstance(n, Var)}
    units = any(isinstance(n, (Eps, HUnit)) for n in nodes)
    first = next((n for n in nodes if isinstance(n, (Sqrt, St))), None)
    assert free_variables(tree) == names
    assert uses_units(tree) == units
    scanned_names, scanned_units, nonrational = dsl._scan(tree)
    assert (scanned_names, scanned_units) == (names, units)
    assert nonrational is first


# -- printer ------------------------------------------------------------------------


def test_to_source_spot_checks():
    assert to_source(parse_text("-x^2")) == "-x^2"
    assert to_source(parse_text("(x + y)*z")) == "(x + y)*z"
    assert to_source(parse_text("x - (y - z)")) == "x - (y - z)"
    assert to_source(Mul((Const(F(6)), Const(F(2))), "/")) == "6/(2)"
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


def test_the_evaluator_calls_the_kernel_through_module_globals(monkeypatch):
    # perfbench's tracer counts evaluator calls by swapping these attributes
    calls = Counter()
    for name in ("add", "sub", "mul", "inverse"):
        def counted(*args, _name=name, _kernel=getattr(lcfield.core, name)):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(lcfield.core, name, counted)
    env = {name: make_real(k) for k, name in enumerate("abcde", start=1)}
    assert evaluate(parse_text("a - b + c*d/e"), env) == make_real(F(7, 5))
    assert calls == {"add": 1, "sub": 1, "mul": 2, "inverse": 1}


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
            value = by_hand(node.args[0])
            for op, arg in zip(node.ops, node.args[1:]):
                value = (add if op == "+" else sub)(value, by_hand(arg))
            return value
        if isinstance(node, Mul):
            value = by_hand(node.args[0])
            for arg in node.args[1:]:
                value = mul(value, by_hand(arg))
            return value
        if isinstance(node, Neg):
            return sub(make_real(0), by_hand(node.arg))
        if isinstance(node, Pow):
            base = by_hand(node.base)
            result = make_real(1)
            for _ in range(abs(node.exponent)):
                result = mul(result, base)
            if node.exponent < 0:
                return inverse(result)
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


@pytest.mark.parametrize(
    "source, variables, kind, position",
    [
        # refused before the undeclared w is found
        ("sqrt(x) + w", ("x",), "sqrt", 0),
        # refused before the zero divisor is met
        ("1/(x-x) + sqrt(x)", None, "sqrt", 10),
        # the first sqrt/st in preorder: an outer node before its argument
        ("x + sqrt(st(y)) + st(z)", None, "sqrt", 4),
    ],
    ids=["before_undeclared", "before_zero_divisor", "first_in_preorder"],
)
def test_canonicalize_refuses_the_first_non_rational_node_first(
    source, variables, kind, position
):
    with pytest.raises(NonRationalNode) as info:
        canonicalize(parse_text(source), variables)
    assert str(info.value) == f"{kind} is not a rational operation"
    assert info.value.position == position


def test_canonicalize_scans_its_tree_once(monkeypatch):
    calls = Counter()
    scan = dsl._scan

    def counted(expr):
        calls[expr] += 1
        return scan(expr)

    monkeypatch.setattr(dsl, "_scan", counted)
    tree = parse_text("(x + eps)/(y - H) + x^2*z")
    canonicalize(tree)
    assert calls == {tree: 1}


def test_canonicalize_rejects_identically_zero_denominators():
    with pytest.raises(DivisionByZero):
        canonicalize(parse_text("1/(x - x)"))
    with pytest.raises(DivisionByZero):
        canonicalize(parse_text("(x - x)^-1"))
    # a denominator that merely CAN vanish is fine
    rf = canonicalize(parse_text("1/x"))
    assert isinstance(rf, RationalForm)


def test_the_term_budget_is_the_monomial_count_bound():
    # t terms to the k: at most C(t+k-1, k) terms, refused past MAX_TERMS
    for t in (1, 2, 3, 10, 50):
        for k in range(40):
            if comb(t + k - 1, k) <= MAX_TERMS:
                dsl._check_terms(t + k - 1, k, "power", 0)
            else:
                with pytest.raises(lcfield.LCError, match=f"more than {MAX_TERMS} terms"):
                    dsl._check_terms(t + k - 1, k, "power", 0)


@pytest.mark.parametrize(
    "source", ["(a+b+c+d+e+f+g+h+i+j)^40", "(x + 1)^99999999999", "1/(x*y + 1)^-99999999999"]
)
def test_canonicalize_refuses_a_power_past_the_term_budget_before_expanding(source):
    tree = parse_text(source)
    start = time.perf_counter()
    with pytest.raises(lcfield.LCError, match=f"more than {MAX_TERMS} terms") as info:
        canonicalize(tree)
    assert time.perf_counter() - start < 1
    assert info.value.position == source.index("^")


def test_the_digit_cap_refusal_has_one_position_for_series_and_fractions():
    tree = parse_text("1 + (2*x)^99999")
    with pytest.raises(lcfield.LCError, match=f"more than {MAX_DIGITS} digits") as info:
        canonicalize(tree)
    assert info.value.position == 9
    with pytest.raises(lcfield.LCError, match=f"more than {MAX_DIGITS} digits") as info:
        evaluate(tree, {"x": make_real(1)})
    assert info.value.position == 9


def test_a_power_checks_both_digit_caps_before_either_term_budget():
    # the numerator's 40th power may expand to C(49, 9) terms, but the
    # denominator's 2^400 to the 40th is past the digit cap, and that is
    # checked first
    tree = parse_text("((a+b+c+d+e+f+g+h+i+j)/2^400)^40")
    with pytest.raises(lcfield.LCError) as info:
        canonicalize(tree)
    assert str(info.value) == f"value has a number of more than {MAX_DIGITS} digits"


TEN = "(a+b+c+d+e+f+g+h+i+j)"
CHAIN_PRODUCT = f"{TEN}^6*{TEN}^6"
RECIPROCAL_SUM = f"1/{TEN}^6 + 1/(a+b+c+d+e+f+g+h+i+k)^6"


@pytest.mark.parametrize(
    "source, position",
    [(CHAIN_PRODUCT, CHAIN_PRODUCT.index("*")), (RECIPROCAL_SUM, RECIPROCAL_SUM.index(" + 1/") + 1)],
    ids=["chain_product", "reciprocal_sum"],
)
def test_canonicalize_refuses_a_product_past_the_term_budget_before_expanding(source, position):
    # each factor passes the power budget (5005 terms); their product
    # would multiply 5005 x 5005 term pairs
    tree = parse_text(source)
    start = time.perf_counter()
    with pytest.raises(lcfield.LCError) as info:
        canonicalize(tree)
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"product may expand to more than {MAX_TERMS} terms"
    assert info.value.position == position


@pytest.mark.parametrize(
    "source, same",
    [
        # 200 factors: each step has few term pairs
        ("*".join(["(x+1)"] * 200), "(x+1)^200"),
        # 715 x 55 term pairs, but at most C(16, 6) = 8008 terms
        (f"{TEN}^4*{TEN}^2", f"{TEN}^6"),
        # C(602, 2) monomials of degree at most 600, but 4 term pairs
        ("(x^300 + y^300)*(x^300 - y^300)", "x^600 - y^600"),
    ],
    ids=["long_chain", "many_pairs_few_terms", "high_degree_few_pairs"],
)
def test_a_product_under_either_term_bound_is_expanded(source, same):
    form = canonicalize(parse_text(source))
    assert form == canonicalize(parse_text(same), form.numerator.variables)


@pytest.mark.parametrize(
    "source, position, message",
    [
        ("1/0/0", 1, "denominator is identically zero"),
        ("1/(x - x)/(y - y)", 1, "denominator is identically zero"),
        ("(x - x)^-1/(y - y)", 7, "negative power of an identically zero base"),
    ],
    ids=["one_over_zero_twice", "two_zero_divisors", "zero_power_first"],
)
def test_canonicalize_blames_a_chains_first_zero_divisor(source, position, message):
    # one left-to-right pass over a chain, so both report the same spot
    tree = parse_text(source)
    with pytest.raises(DivisionByZero, match=message) as info:
        canonicalize(tree)
    assert info.value.position == position
    with pytest.raises(DivisionByZero) as info:
        evaluate(tree, {"x": make_real(1), "y": make_real(2)})
    assert info.value.position == position


@given(expressions(max_leaves=4))
def test_canonical_renders_parse_back(tree):
    try:
        form = canonicalize(tree)
    except DivisionByZero:
        assume(False)
    assert canonicalize(parse_text(form.render()), form.numerator.variables) == form


def test_a_render_of_more_than_a_hundred_terms_parses_back():
    form = canonicalize(parse_text("(x + y + z + w + u)^5"))
    text = form.render()
    assert text.count(" + ") == 125 and "·" in text
    assert to_source(parse_text(text)).count("*") == text.count("·")
    assert canonicalize(parse_text(text), form.numerator.variables) == form


@given(expressions(names=("x", "y"), allow_units=False), rationals, rationals)
def test_canonical_form_evaluates_like_the_tree(tree, qx, qy):
    try:
        rf = canonicalize(tree, ("x", "y"))
    except DivisionByZero:
        assume(False)
        return
    symbols = sympy.symbols("x y")
    point = {s: sympy.Rational(q.numerator, q.denominator) for s, q in zip(symbols, (qx, qy))}
    num, den = (
        sympy.Poly.from_dict(dict(zip(p.exponents(), (c for _, c in p.terms))), symbols)
        .as_expr().subs(point)
        for p in (rf.numerator, rf.denominator)
    )
    assume(den != 0)
    try:
        direct = evaluate(tree, {"x": make_real(qx), "y": make_real(qy)})
    except DivisionByZero:
        assume(False)
        return
    assert direct == make_real(Fraction(str(num / den)))


@given(expressions(names=("x",), allow_units=False, max_leaves=4))
def test_syntactically_shuffled_trees_share_a_canonical_form(tree):
    doubled = Add((Mul((Const(F(2)), tree), "*"), tree), "-")
    try:
        assert canonicalize(doubled, ("x",)) == canonicalize(tree, ("x",))
    except DivisionByZero:
        assume(False)

"""Identity transfer checking: canonical verdicts plus exact sampling on
both sides of the assignable divide."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcfield import (
    DivisionByZero,
    LCError,
    agrees_to_guaranteed_order,
    dsl,
    add,
    evaluate,
    make_monomial,
    make_real,
    parse_text,
    sub,
)
from lcfield import core, poly
from lcfield.cli import main
from lcfield.dsl import NonRationalNode, identities_transfer_check

from _gen import built_real, expressions, fields

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def check(lhs: str, rhs: str, **kwargs):
    return identities_transfer_check(parse_text(lhs), parse_text(rhs), **kwargs)


def test_binomial_square_is_an_identity_everywhere():
    report = check("(x + y)^2", "x^2 + 2*x*y + y^2", trials=20)
    assert report.identity
    assert report.counterexample is None
    assert len(report.finite_samples) == 20
    assert len(report.infinite_samples) == 20
    assert all(r["agree"] is True for r in report.finite_samples)
    assert all(r["agree"] is True for r in report.infinite_samples)


def test_unit_reciprocal_identity_has_no_variables():
    report = check("eps*H", "1", trials=5)
    assert report.identity
    assert all(r["point"] == {} for r in report.finite_samples)


def test_failed_identity_produces_a_concrete_witness():
    report = check("(x + 1)^2", "x^2 + 1", trials=10)
    assert not report.identity
    witness = report.counterexample
    assert witness is not None
    # the witness must actually exhibit the disagreement it reports
    x = Fraction(witness["point"]["x"])
    lhs = evaluate(parse_text("(x + 1)^2"), {"x": make_real(x)})
    rhs = evaluate(parse_text("x^2 + 1"), {"x": make_real(x)})
    assert lhs.render() == witness["lhs"]
    assert rhs.render() == witness["rhs"]
    assert witness["lhs"] != witness["rhs"]


def test_zero_variable_counterexample():
    report = check("H*eps", "0", trials=3)
    assert not report.identity
    assert report.counterexample == {"point": {}, "lhs": "1", "rhs": "0"}


def test_pole_points_are_redrawn():
    report = check("1/x - 1/(x + 1)", "1/(x*(x + 1))", trials=30)
    assert report.identity
    assert all(r["agree"] is True for r in report.finite_samples)
    assert all(r["agree"] is True for r in report.infinite_samples)


def test_reports_are_deterministic_for_a_seed():
    a = check("(x - y)^2", "x^2 - 2*x*y + y^2", trials=15, seed=7)
    b = check("(x - y)^2", "x^2 - 2*x*y + y^2", trials=15, seed=7)
    assert a == b
    c = check("(x - y)^2", "x^2 - 2*x*y + y^2", trials=15, seed=8)
    assert c.finite_samples != a.finite_samples


def test_json_shape():
    report = check("x^2 - y^2", "(x - y)*(x + y)", trials=4, seed=3)
    data = report.to_json()
    assert set(data) == {
        "identity",
        "finite_samples",
        "infinite_samples",
        "counterexample",
        "seed",
    }
    assert data["identity"] is True
    assert data["seed"] == 3
    assert data["counterexample"] is None
    for record in data["finite_samples"] + data["infinite_samples"]:
        assert set(record) == {"point", "agree"}
        assert set(record["point"]) == {"x", "y"}
        assert record["agree"] in (True, False, None)


def test_inassignable_samples_mix_strata():
    report = check("x + 0", "x", trials=60, seed=0)
    rendered = [r["point"]["x"] for r in report.infinite_samples]
    assert any("eps^-1" in text for text in rendered)
    assert any("eps" in text and "eps^-1" not in text for text in rendered)


def test_sampler_draw_order_is_pinned():
    report = check("x + 0", "x", trials=4, seed=0)
    assert [r["point"]["x"] for r in report.finite_samples] == [
        "3/7",
        "-8/5",
        "7/8",
        "3/5",
    ]
    assert [r["point"]["x"] for r in report.infinite_samples] == [
        "1/2 + 3·eps",
        "-1/9",
        "-5/2·eps",
        "8/9·eps^-1",
    ]


def built_draw_finite(rng, precision):
    return make_real(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), precision)


def built_nonzero_rational(rng):
    value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return value if rng.random() < 0.5 else -value


def built_draw_mixed(rng, precision):
    """The sampler's draws as each point built its coordinates afresh."""
    kind = rng.randrange(4)
    if kind == 0:
        return built_draw_finite(rng, precision)
    if kind == 1:
        return make_monomial(built_nonzero_rational(rng), 1, precision)
    if kind == 2:
        return make_monomial(built_nonzero_rational(rng), -1, precision)
    return add(
        built_draw_finite(rng, precision),
        make_monomial(built_nonzero_rational(rng), 1, precision),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
def test_tabled_draws_equal_the_built_ones(seed, precision):
    for draw, built in (
        (dsl._draw_finite, built_draw_finite),
        (dsl._draw_mixed, built_draw_mixed),
    ):
        tabled_rng, built_rng = random.Random(seed), random.Random(seed)
        for _ in range(40):
            value, text = draw(tabled_rng, precision)
            expected = built(built_rng, precision)
            assert fields(value) == fields(expected)
            assert text == expected.render()
        assert tabled_rng.getstate() == built_rng.getstate()


@pytest.mark.parametrize("precision", [4, 16, 64])
def test_witness_grid_points_come_from_the_coordinate_table(precision):
    for v in dsl._WITNESS_CANDIDATES:
        value, text = dsl._coordinate(v.numerator, v.denominator, 0, precision)
        assert fields(value) == fields(built_real(v, precision))
        assert text == str(v)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_agreement_is_an_empty_difference(seed, p, r):
    # The same draws at two precisions give equal values with different
    # windows; sums of two draws give multi-term values.
    a, b = (dsl._draw_mixed(random.Random(seed), precision)[0] for precision in (p, r))
    c = dsl._draw_mixed(random.Random(seed + 1), r)[0]
    values = (a, b, c, add(a, c), add(b, c), add(c, a))
    for x, y in itertools.product(values, repeat=2):
        assert agrees_to_guaranteed_order(x, y) == (not sub(x, y).k)


@pytest.mark.parametrize(
    "lhs, rhs, witness",
    [
        (
            "x*y*(x - 1)",
            "0",
            {"point": {"x": "-1", "y": "1"}, "lhs": "2", "rhs": "0"},
        ),
        # every grid point with x = 0 is a pole and is skipped
        (
            "1/x + y",
            "y + 1/x + x*(x-1)*(x+1)*y",
            {"point": {"x": "2", "y": "1"}, "lhs": "3/2", "rhs": "15/2"},
        ),
    ],
    ids=["vanishing_product", "pole_skipped"],
)
def test_witness_grid_order_is_pinned(lhs, rhs, witness):
    assert check(lhs, rhs).counterexample == witness


def test_non_rational_expressions_are_rejected():
    with pytest.raises(NonRationalNode):
        check("sqrt(x)", "x")
    with pytest.raises(NonRationalNode):
        check("x", "st(x)")


# a line with no literal and no sample builds no value at that precision,
# yet is refused like the others
@pytest.mark.parametrize(
    "lhs, rhs, trials", [("x", "x", 0), ("x + 1", "1 + x", 0), ("x", "x", 1)]
)
def test_a_precision_below_one_is_refused_on_entry(lhs, rhs, trials):
    with pytest.raises(ValueError, match="precision must be a positive integer"):
        check(lhs, rhs, trials=trials, precision=0)


@pytest.mark.parametrize(
    "lhs, rhs, error, message, position",
    [
        # the left side's fraction is built before the right side is refused
        ("1/(x-x)", "sqrt(x)", DivisionByZero, "denominator is identically zero", 1),
        ("sqrt(x)", "1/(x-x)", NonRationalNode, "sqrt is not a rational operation", 0),
        ("x + st(x)", "sqrt(y)", NonRationalNode, "st is not a rational operation", 4),
    ],
    ids=["left_zero_divisor_first", "left_sqrt_first", "left_st_first"],
)
def test_the_left_side_is_refused_before_the_right(lhs, rhs, error, message, position):
    with pytest.raises(error) as info:
        check(lhs, rhs)
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.position == position


def test_the_verdicts_own_products_are_held_to_the_term_budget():
    # each side passes alone (5005 terms); N1·D2 would multiply 5005 x 5005
    # term pairs, and exists only once both sides are built
    e1, e2 = parse_text("(a+b+c+d+e+f+g+h+i+j)^6"), parse_text("1/(a+b+c+d+e+f+g+h+i+k)^6")
    start = time.perf_counter()
    with pytest.raises(LCError) as info:
        identities_transfer_check(e1, e2, trials=0)
    assert time.perf_counter() - start < 1
    assert str(info.value) == f"product may expand to more than {dsl.MAX_TERMS} terms"
    assert info.value.position == e2.pos


def test_each_side_is_scanned_once(monkeypatch):
    calls = Counter()
    scan = dsl._scan

    def counted(expr):
        calls[expr] += 1
        return scan(expr)

    monkeypatch.setattr(dsl, "_scan", counted)
    e1, e2 = parse_text("(x + eps)^2"), parse_text("x^2 + 2*x*eps + eps*eps")
    identities_transfer_check(e1, e2, trials=2)
    assert calls == {e1: 1, e2: 1}


def test_identically_zero_denominator_is_rejected_up_front():
    with pytest.raises(DivisionByZero):
        check("1/(x - x)", "1")


def test_one_sided_units_still_share_a_canonical_frame():
    report = check("(x + 1/H)^2 - 2*x/H - 1/H^2", "x^2", trials=10)
    assert report.identity
    assert all(r["agree"] is True for r in report.finite_samples)
    assert all(r["agree"] is True for r in report.infinite_samples)


# -- the compiled program against the tree walk -------------------------------


def sides_or_error(e1, e2, point, precision):
    """Both sides' fields as ``evaluate`` gives them, or ``None`` where
    either side raises."""
    try:
        return tuple(fields(evaluate(e, point, precision)) for e in (e1, e2))
    except LCError:
        return None


@settings(max_examples=200, deadline=None)
@given(
    expressions(names=("x", "y", "z")),
    expressions(names=("x", "y", "z")),
    st.sampled_from([dsl._draw_finite, dsl._draw_mixed]),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=16),
)
def test_the_program_gives_both_sides_as_evaluate_does(e1, e2, draw, seed, precision):
    names = sorted(dsl.free_variables(e1) | dsl.free_variables(e2))
    rng = random.Random(seed)
    values = [draw(rng, precision)[0] for _ in names]
    expected = sides_or_error(e1, e2, dict(zip(names, values)), precision)
    run = dsl._program(e1, e2, names, precision)
    if expected is None:
        with pytest.raises(LCError):
            run(values)
    else:
        assert tuple(fields(side) for side in run(values)) == expected


def test_the_program_runs_each_operation_the_sides_share_once(monkeypatch):
    # the right side is the left prefix of the left side's + chain; the
    # kernels are patched after compiling, so the program must read
    # core's attributes when it runs
    e1, e2 = parse_text("3*w*u + 3*z + u*(w - 2)"), parse_text("3*w*u + 3*z")
    point = {"u": make_real(2), "w": make_real(5), "z": make_real(Fraction(1, 3))}
    run = dsl._program(e1, e2, sorted(point), 16)
    calls = Counter()
    for name in ("add", "sub", "mul"):
        def counted(*args, _name=name, _kernel=getattr(core, name)):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(core, name, counted)
    lhs, rhs = run([point[name] for name in sorted(point)])
    shared = calls.copy()
    calls.clear()
    assert lhs == evaluate(e1, point, 16)
    assert shared == calls == {"mul": 4, "add": 2, "sub": 1}
    assert rhs == evaluate(e2, point, 16)


def test_the_program_builds_its_leaves_once_per_line(monkeypatch):
    # the literal 1/2 on both sides, eps, H and a negative power's exponent
    # are leaves, built when the line compiles and never at a point
    e1 = parse_text("-(x + 1/2)^-2 + eps*H*x")
    e2 = parse_text("2*x - (x + 1/2)^-2 + H*1/2")
    points = [make_real(v) for v in (1, Fraction(-2, 3), 5, Fraction(7, 2))]
    expected = [(evaluate(e1, {"x": v}), evaluate(e2, {"x": v})) for v in points]
    run = dsl._program(e1, e2, ["x"], 16)
    calls = Counter()
    for name in ("make_real", "make_monomial"):
        def counted(*args, _name=name, _kernel=getattr(core, name)):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(core, name, counted)
    assert [run([value]) for value in points] == expected
    assert not calls


# -- the pruned witness search against the exhaustive walk -------------------


def exhaustive_counterexample(e1, e2, names, precision):
    """The witness search without pruning: every grid point, in order."""
    for values in itertools.product(dsl._WITNESS_CANDIDATES, repeat=len(names)):
        point = {n: make_real(v, precision) for n, v in zip(names, values)}
        try:
            sides = evaluate(e1, point, precision), evaluate(e2, point, precision)
        except DivisionByZero:
            continue
        if not agrees_to_guaranteed_order(*sides):
            return {
                "point": {n: str(v) for n, v in zip(names, values)},
                "lhs": sides[0].render(),
                "rhs": sides[1].render(),
            }
    return None


@st.composite
def non_identities(draw):
    """``(lhs, rhs, precision)``: rhs adds to lhs a product of linear
    factors that vanish on whole grid planes, sometimes with a removable
    pole (``x/x`` or ``(x - 1)/(x - 1)``) or a real one (``1/(x - 1)``)
    and with eps/H.  A removable factor stays in the unreduced
    difference, so it vanishes on a plane of poles.

    Truncation can hide the difference at every point, and then the walk
    covers the whole grid; that case is drawn in one variable only, where
    the grid has 31 points."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    low_precision = len(names) == 1

    def pick(options):
        return draw(st.sampled_from(options))

    atoms = names + ("eps", "H", "2", "1/3")
    base = " + ".join(
        f"{pick(atoms)}*{pick(atoms)}" for _ in range(draw(st.integers(1, 3)))
    )
    factors = [
        f"({pick(names)} - {pick(('0', '1', '-1', '2', '1/2'))})"
        for _ in range(draw(st.integers(1, 3)))
    ]
    scales = ("1", "3/2", "eps", "H") + (("eps^9",) if low_precision else ())
    lhs, rhs = base, f"{base} + {'*'.join(factors)}*{pick(scales)}"
    pole = pick(("none", "removable", "removable_at_one", "real"))
    v = pick(names)
    if pole == "removable":
        lhs = f"({lhs})*{v}/{v}"
    elif pole == "removable_at_one":
        lhs = f"({lhs})*({v} - 1)/({v} - 1)"
    elif pole == "real":
        lhs, rhs = f"{lhs} + 1/({v} - 1)", f"{rhs} + 1/({v} - 1)"
    precision = pick((2, 4, 16)) if low_precision else 16
    return lhs, rhs, precision


@settings(max_examples=100)
@given(non_identities())
def test_pruned_witness_search_matches_the_exhaustive_walk(case):
    lhs, rhs, precision = case
    e1, e2 = parse_text(lhs), parse_text(rhs)
    report = identities_transfer_check(e1, e2, trials=0, precision=precision)
    assert not report.identity
    names = sorted(dsl.free_variables(e1) | dsl.free_variables(e2))
    assert report.counterexample == exhaustive_counterexample(
        e1, e2, names, precision
    )


def test_witness_search_skips_the_subgrids_where_the_difference_vanishes(
    monkeypatch,
):
    # The difference x*(y + 2) is zero on the whole x = 0 plane, the first
    # 961 grid points; an exhaustive walk runs the line's program at each.
    runs = []
    program = dsl._program

    def counting(*args):
        run = program(*args)

        def counted(values):
            runs.append(values)
            return run(values)

        return counted

    monkeypatch.setattr(dsl, "_program", counting)
    report = check("x*(y + 2) + y*z", "y*z", trials=0)
    assert report.counterexample == {
        "point": {"x": "1", "y": "0", "z": "0"},
        "lhs": "2",
        "rhs": "0",
    }
    assert len(runs) <= 2


def test_witness_search_does_not_substitute_a_candidate_past_the_digit_cap():
    # 0, 1 and -1 are pruned; substituting any other candidate would raise
    # it to the difference's degree, about 10^11, so the trees judge it,
    # and their power is refused as at a pole
    start = time.perf_counter()
    report = check("(x-1)*(x+1)*x*x^99999999999", "0")
    assert time.perf_counter() - start < 2
    assert not report.identity
    assert report.counterexample is None


def test_a_candidate_past_the_digit_cap_keeps_the_witness_the_trees_give():
    # the difference has degree 14001 in x, so 2^14001 passes the digit
    # cap, but the trees evaluate to 6 and 0 at x = 2
    lhs, rhs = "x^7000*x^7000*(x-1)*(x+1)/(x^7000*x^6999)", "0"
    report = check(lhs, rhs, trials=0)
    assert report.counterexample == {"point": {"x": "2"}, "lhs": "6", "rhs": "0"}
    e1, e2 = parse_text(lhs), parse_text(rhs)
    assert report.counterexample == exhaustive_counterexample(e1, e2, ["x"], 16)


@pytest.mark.parametrize("corpus", ["identities.txt", "non_identities.txt"])
def test_transfer_takes_no_gcd(monkeypatch, capsys, corpus):
    # the verdict and the witness search both use the cross-multiplied
    # difference of the unreduced fractions
    gcd, calls = poly.poly_gcd, []

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(poly, "poly_gcd", counting)
    dsl.canonicalize(parse_text("x/x"))
    assert calls, "the counter does not see canonicalize's gcd"
    calls.clear()
    code = main(["transfer", str(CORPORA / corpus)])
    out, err = capsys.readouterr()
    assert (code, err) == ((0, "") if corpus == "identities.txt" else (4, ""))
    assert "checked" in out
    assert calls == []

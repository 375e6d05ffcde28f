"""Gallery reports: parallel lines, infinitesimal equality, ellipse to parabola."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lcfield import gallery
from lcfield.cli import main
from lcfield.dsl import canonicalize, parse_text
from lcfield.gallery import (
    DEFAULT_GRID,
    ellipse_parabola_report,
    infinitesimal_equality_report,
    parabola_rows,
    parallel_lines_report,
    verify_conic_chain,
    write_parabola_csv,
)

from _gen import rationals


# Independent check of the recorded cofactor: the radical-clearing chain
# evaluated with plain rationals, no series code involved.  With
# S1 = x^2 + y^2 and S2 = x^2 + (y - h)^2,
#   4*S1*S2 - ((h+2)^2 - S1 - S2)^2
# must equal -4h^2 times the divided-out rational form.
def chain_sides(x: Fraction, y: Fraction, h: Fraction):
    s1 = x * x + y * y
    s2 = x * x + (y - h) ** 2
    lhs = 4 * s1 * s2 - ((h + 2) ** 2 - s1 - s2) ** 2
    form = (y + 2 + 2 / h) ** 2 - s1 * (1 + 4 / h + 4 / (h * h))
    return lhs, -4 * h * h * form


@pytest.mark.parametrize(
    "x, y, h",
    [
        (Fraction(2), Fraction(3), Fraction(5)),
        (Fraction(1, 2), Fraction(-2), Fraction(3)),
        (Fraction(-3), Fraction(7), Fraction(2)),
        (Fraction(0), Fraction(-1), Fraction(10)),
    ],
)
def test_cofactor_is_minus_four_h_squared_numerically(x, y, h):
    lhs, rhs = chain_sides(x, y, h)
    assert lhs == rhs


@given(rationals, rationals, rationals.filter(lambda h: h != 0))
def test_cofactor_identity_at_random_rational_points(x, y, h):
    lhs, rhs = chain_sides(x, y, h)
    assert lhs == rhs


# -- parallel lines ------------------------------------------------------


def test_parallel_lines_default_grid():
    report = parallel_lines_report()
    assert report.example_id == "parallel_lines"
    assert report.passed
    assert len(report.claims) == 2 + len(DEFAULT_GRID) + 2
    assert report.parameters == tuple(str(x) for x in DEFAULT_GRID)


def test_parallel_lines_slope_claim():
    report = parallel_lines_report()
    slope = report.claims[0]
    assert "slope" in slope.description
    assert slope.passed
    assert report.claims[1].expected == "infinitesimal"


def test_parallel_lines_custom_grid():
    xs = (Fraction(5), Fraction(-7, 2))
    report = parallel_lines_report(xs)
    assert report.passed
    assert len(report.claims) == 2 + 2 + 2
    assert "shadow of the line point at x = -7/2" in [
        c.description for c in report.claims
    ]


@given(st.lists(rationals, min_size=1, max_size=5))
def test_parallel_lines_hold_anywhere(xs):
    assert parallel_lines_report(tuple(xs)).passed


# -- infinitesimal equality ----------------------------------------------


def test_infinitesimal_equality_default():
    report = infinitesimal_equality_report()
    assert report.example_id == "infinitesimal_equality"
    assert report.passed
    assert len(report.claims) == 10
    assert report.parameters == ("3",)


def test_infinitesimal_equality_at_zero_keeps_the_increment():
    report = infinitesimal_equality_report(0)
    assert report.passed
    descriptions = [c.description for c in report.claims]
    assert (
        "at x = 0 the infinitesimal is itself the leading stratum"
        in descriptions
    )


@given(rationals)
def test_infinitesimal_equality_holds_anywhere(x):
    assert infinitesimal_equality_report(x).passed


# -- conic chain ----------------------------------------------------------


def test_conic_chain_passes():
    report = verify_conic_chain()
    assert report.passed
    assert len(report.claims) == 7


def test_conic_chain_records_the_cofactor():
    report = verify_conic_chain()
    recorded = next(
        c for c in report.claims if c.description == "recorded cofactor"
    )
    assert recorded.computed == "-4·H^2"
    assert recorded.passed
    # canonicalize orders the chain's variables itself: x, y, then H
    rebuilt = next(
        c
        for c in report.claims
        if c.description == "cofactor times the rational form rebuilds the squared chain"
    )
    assert rebuilt.computed == (
        "4·x^2·H^2 + 16·x^2·H + 16·y^2·H - 16·y·H^2 + 16·x^2 + 16·y^2"
        " - 16·y·H - 16·H^2 - 32·H - 16"
    )


def test_conic_chain_vertex_checks():
    report = verify_conic_chain()
    by_description = {c.description: c for c in report.claims}
    vertex = by_description["distance sum at the vertex with the far focus at 2"]
    assert vertex.computed == "4"
    closing = by_description["rational form closes at the vertex with the far focus at 2"]
    assert closing.computed == "0"


# Each input whose canonical form is swapped for that of ``1``, and the
# one claim that must then fail.
BROKEN_STEPS = {
    "squaring_rule": (
        "a^2 + b^2 + 2*a*b",
        "squaring a two-term sum expands to squares plus twice the product",
    ),
    "radical_isolation": (
        "2*R - ((H + 2)^2 - (x^2 + y^2) - (x^2 + (y - H)^2))",
        "isolating the doubled radical is the same relation",
    ),
}


@pytest.mark.parametrize("source, description", BROKEN_STEPS.values(), ids=BROKEN_STEPS)
def test_a_failed_conic_step_is_one_failed_claim_in_the_full_report(
    monkeypatch, capsys, source, description
):
    assert main(["gallery", "ellipse_parabola"]) == 0
    intact = capsys.readouterr().out.splitlines()
    broken = parse_text(source)

    def canonicalize_one_step_wrongly(expr, variables=None):
        if expr == broken:
            expr = parse_text("1")
        return canonicalize(expr, variables)

    monkeypatch.setattr(gallery, "canonicalize", canonicalize_one_step_wrongly)
    assert main(["gallery", "ellipse_parabola"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(intact)
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {description}: ")
    assert lines[-1] == "FAIL"
    assert [line for line in lines if line.startswith("[PASS]")] == [
        line for line in intact if line.startswith("[PASS]") and description not in line
    ]


# -- parabola shadow -------------------------------------------------------


def test_parabola_rows_frozen_values():
    rows = parabola_rows()
    assert rows[3] == (Fraction(0), Fraction(-1), Fraction(0))
    assert rows[-1] == (Fraction(3), Fraction(5, 4), Fraction(0))
    assert all(shadow == 0 for _, _, shadow in rows)
    assert all(y == x * x / 4 - 1 for x, y, _ in rows)


@given(st.lists(rationals, min_size=1, max_size=4))
def test_parabola_shadow_vanishes_on_curve_only(xs):
    from lcfield.gallery import parabola_shadow_report

    report = parabola_shadow_report(tuple(xs))
    assert report.passed


def test_write_parabola_csv(tmp_path):
    path = tmp_path / "parabola.csv"
    write_parabola_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,y0,st_of_lhs"
    assert len(lines) == 1 + len(DEFAULT_GRID)
    assert "0,-1,0" in lines
    assert lines[1] == "-3,5/4,0"


# -- merged report ----------------------------------------------------------


def test_ellipse_parabola_report_merges_chain_and_grid():
    report = ellipse_parabola_report()
    assert report.example_id == "ellipse_parabola"
    assert report.passed
    assert len(report.claims) == 7 + 4 * len(DEFAULT_GRID)
    assert report.parameters == tuple(str(x) for x in DEFAULT_GRID)


def test_reports_do_not_depend_on_precision():
    for build in (
        parallel_lines_report,
        infinitesimal_equality_report,
        ellipse_parabola_report,
    ):
        texts = {build(precision=t).render_text() for t in (4, 16, 64)}
        assert len(texts) == 1

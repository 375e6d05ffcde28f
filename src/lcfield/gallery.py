"""The worked examples, as reports of exact claims.

A report is a flat list of claims, each with the computed value, the
expected value and an exact pass flag: rational equality, series
equality or classification membership, never a tolerance.  So in each
example a step is an identity instead of a limit:

* a line through a point at infinite distance is still a line, parallel
  "of sorts" to its neighbor: the slope is a nonzero infinitesimal;
* two quantities differing by an infinitesimal are unequal yet
  infinitely close, and dropping the lower stratum recovers equality;
* an ellipse with one focus sent to infinite distance satisfies, after
  clearing radicals, an equation whose shadow is a parabola;
* d(uv) = u·dv + v·du, once the infinitesimal du·dv/eps is discarded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    DEFAULT_PRECISION,
    Classification,
    LCNumber,
    add,
    big_h,
    classify,
    compare,
    eps,
    inverse,
    is_infinitely_close,
    make_real,
    mul,
    neg,
    standard_part,
    sub,
    tlh_reduce,
)
from .dsl import Expr, Mul, canonicalize, evaluate, parse_text, to_source
from .poly import RationalForm

__all__ = [
    "Claim",
    "GalleryReport",
    "format_value",
    "equality_claim",
    "judged_claim",
    "DEFAULT_GRID",
    "LINE_THROUGH_INFINITY",
    "ELLIPSE_RADICAL_LHS",
    "ELLIPSE_RATIONAL_LHS",
    "parallel_lines_report",
    "infinitesimal_equality_report",
    "verify_conic_chain",
    "parabola_shadow_report",
    "parabola_rows",
    "write_parabola_csv",
    "ellipse_parabola_report",
    "product_rule_report",
]


def format_value(value: object) -> str:
    if isinstance(value, Classification):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class Claim:
    description: str
    computed: str
    expected: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "description": self.description,
            "computed": self.computed,
            "expected": self.expected,
            "pass": self.passed,
        }

    def render_text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.description}: {self.computed} (expected {self.expected})"


def judged_claim(
    description: str, computed: object, expected_text: str, passed: bool
) -> Claim:
    """For claims whose expectation is a predicate rather than a value."""
    return Claim(
        description=description,
        computed=format_value(computed),
        expected=expected_text,
        passed=passed,
    )


def equality_claim(description: str, computed: object, expected: object) -> Claim:
    return judged_claim(
        description, computed, format_value(expected), computed == expected
    )


@dataclass(frozen=True)
class GalleryReport:
    example_id: str
    parameters: tuple[str, ...]
    claims: tuple[Claim, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json(self) -> dict:
        return {
            "example": self.example_id,
            "parameters": list(self.parameters),
            "claims": [c.to_json() for c in self.claims],
            "pass": self.passed,
        }

    def render_text(self) -> str:
        lines = [f"example: {self.example_id}"]
        if self.parameters:
            lines.append("parameters: " + ", ".join(self.parameters))
        lines.extend(c.render_text() for c in self.claims)
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


DEFAULT_GRID: tuple[Fraction, ...] = tuple(Fraction(k) for k in range(-3, 4))

# A line of height 1 at the origin whose second defining point sits at
# distance H: within any assignable window it runs parallel to y = 1.
LINE_THROUGH_INFINITY = "1 - x/H"

# Distance sum from (0, 0) and (0, H) held equal to H + 2.
ELLIPSE_RADICAL_LHS = "sqrt(x^2 + y^2) + sqrt(x^2 + (y - H)^2)"

# The same locus after squaring twice and dividing by H^2.
ELLIPSE_RATIONAL_LHS = "(y + 2 + 2/H)^2 - (x^2 + y^2)*(1 + 4/H + 4/H^2)"


def parallel_lines_report(
    xs: Sequence[Fraction] = DEFAULT_GRID, precision: int = DEFAULT_PRECISION
) -> GalleryReport:
    """The line through (0, 1) and (H, 0): infinitesimally sloped, its
    points all have shadow height 1, and it crosses zero only at an
    infinite abscissa."""
    line = parse_text(LINE_THROUGH_INFINITY)
    h = big_h(precision)
    e = eps(precision)

    def height(x: LCNumber) -> LCNumber:
        return evaluate(line, {"x": x}, precision)

    one = make_real(1, precision)
    slope = sub(height(one), height(make_real(0, precision)))
    claims = [
        equality_claim("slope is the negated infinitesimal unit", slope, neg(e)),
        equality_claim("slope classification", classify(slope), Classification.INFINITESIMAL),
    ]
    for x in xs:
        y = height(make_real(x, precision))
        shadow_point = (standard_part(make_real(x, precision)), standard_part(y))
        claims.append(
            equality_claim(
                f"shadow of the line point at x = {x}",
                shadow_point,
                (x, Fraction(1)),
            )
        )
    claims.append(
        equality_claim("the line vanishes at x = H", height(h), make_real(0, precision))
    )
    claims.append(
        equality_claim("x-intercept classification", classify(h), Classification.INFINITE)
    )
    return GalleryReport(
        "parallel_lines", tuple(str(x) for x in xs), tuple(claims)
    )


def infinitesimal_equality_report(
    x: Fraction | int = Fraction(3), precision: int = DEFAULT_PRECISION
) -> GalleryReport:
    """``2x + eps`` against ``2x``: unequal, infinitely close, equal again
    once the lower stratum is dropped (except at x = 0, where eps is the
    leading stratum and survives)."""
    base = make_real(2 * x, precision)
    bumped = add(base, eps(precision))
    claims = [
        equality_claim(
            "2x + eps is infinitely close to 2x", is_infinitely_close(bumped, base), True
        ),
        equality_claim("2x + eps differs from 2x as a series", bumped != base, True),
    ]
    reduced = tlh_reduce(bumped)
    if x != 0:
        claims.append(
            equality_claim("dropping the lower stratum recovers 2x", reduced, base)
        )
    else:
        claims.append(
            equality_claim(
                "at x = 0 the infinitesimal is itself the leading stratum",
                reduced,
                eps(precision),
            )
        )
    difference = sub(bumped, base)
    for n in (1, 10, 100, 1000, 10**4, 10**5, 10**6):
        scaled = mul(make_real(n, precision), difference)
        claims.append(
            equality_claim(
                f"{n} times the difference stays below 1",
                compare(scaled, make_real(1, precision)) < 0,
                True,
            )
        )
    return GalleryReport("infinitesimal_equality", (str(x),), tuple(claims))


def verify_conic_chain(precision: int = DEFAULT_PRECISION) -> GalleryReport:
    """Clear the radicals from the two-focus distance equation and verify
    each step canonically, with the radical tracked as an opaque square.

    ``R`` stands for the product radical, constrained by
    ``R^2 = (x^2 + y^2) * (x^2 + (y - H)^2)``.  Squaring the distance sum
    gives ``S1 + S2 + 2R = (H + 2)^2``; isolating ``2R`` and squaring
    again eliminates ``R``; dividing the resulting polynomial by the
    derived cofactor lands exactly on the rational form whose shadow is
    the parabola.  A failed step is a failed claim; every step is still
    reported.
    """
    squared_sum = parse_text(
        "x^2 + y^2 + (x^2 + (y - H)^2) + 2*R - (H + 2)^2"
    )
    isolated = parse_text(
        "2*R - ((H + 2)^2 - (x^2 + y^2) - (x^2 + (y - H)^2))"
    )
    square_rule_lhs = parse_text("(a + b)^2")
    square_rule_rhs = parse_text("a^2 + b^2 + 2*a*b")

    # Squaring the isolated radical and substituting R^2 = S1*S2 kills R.
    squared_chain = parse_text(
        "4*(x^2 + y^2)*(x^2 + (y - H)^2)"
        " - ((H + 2)^2 - (x^2 + y^2) - (x^2 + (y - H)^2))^2"
    )
    chain = canonicalize(squared_chain)
    target = canonicalize(parse_text(ELLIPSE_RATIONAL_LHS))
    cofactor = RationalForm.make(
        chain.numerator * target.denominator, chain.denominator * target.numerator
    )
    rebuilt = RationalForm.make(
        target.numerator * cofactor.numerator,
        target.denominator * cofactor.denominator,
    )

    # Finite sanity point: with the far focus at assignable height h = 2
    # the figure is an honest ellipse with vertex (0, -1); both forms
    # close there.  h stands in for H, which always means the infinite
    # unit inside an expression.
    finite_radical = parse_text(ELLIPSE_RADICAL_LHS.replace("H", "h"))
    finite_rational = parse_text(ELLIPSE_RATIONAL_LHS.replace("H", "h"))
    vertex = {
        "x": make_real(0, precision),
        "y": make_real(-1, precision),
        "h": make_real(2, precision),
    }
    claims = (
        equality_claim(
            "squaring a two-term sum expands to squares plus twice the product",
            canonicalize(square_rule_lhs) == canonicalize(square_rule_rhs),
            True,
        ),
        equality_claim(
            "isolating the doubled radical is the same relation",
            canonicalize(squared_sum) == canonicalize(isolated),
            True,
        ),
        judged_claim(
            "the squared chain divided by the rational form leaves a polynomial cofactor",
            cofactor,
            "a polynomial in H with zero remainder",
            cofactor.is_polynomial,
        ),
        equality_claim(
            "cofactor times the rational form rebuilds the squared chain",
            rebuilt,
            chain,
        ),
        judged_claim(
            "recorded cofactor",
            cofactor,
            "nonzero polynomial in H",
            not cofactor.is_zero,
        ),
        equality_claim(
            "distance sum at the vertex with the far focus at 2",
            evaluate(finite_radical, vertex, precision),
            make_real(4, precision),
        ),
        equality_claim(
            "rational form closes at the vertex with the far focus at 2",
            evaluate(finite_rational, vertex, precision),
            make_real(0, precision),
        ),
    )
    return GalleryReport("ellipse_parabola", (), claims)


def _parabola_height(x: Fraction) -> Fraction:
    return x * x / 4 - 1


def _plane_value(lhs: Expr, x: Fraction, y: Fraction, precision: int) -> LCNumber:
    point = {"x": make_real(x, precision), "y": make_real(y, precision)}
    return evaluate(lhs, point, precision)


def parabola_shadow_report(
    xs: Sequence[Fraction] = DEFAULT_GRID, precision: int = DEFAULT_PRECISION
) -> GalleryReport:
    """On y = x^2/4 - 1 the rational form's value is infinitesimal (zero
    at the vertex) and its shadow vanishes; one unit off the curve the
    shadow is appreciable.  So the infinite-focus locus casts the
    parabola as its shadow."""
    lhs = parse_text(ELLIPSE_RATIONAL_LHS)
    claims = []
    for x in xs:
        y = _parabola_height(x)
        value = _plane_value(lhs, x, y, precision)
        claims.append(
            judged_claim(
                f"series on the parabola at x = {x}",
                value,
                "zero or infinitesimal",
                classify(value)
                in (Classification.ZERO, Classification.INFINITESIMAL),
            )
        )
        claims.append(
            equality_claim(
                f"shadow on the parabola at x = {x}",
                standard_part(value),
                Fraction(0),
            )
        )
        shadow_equation = (y + 2) ** 2 - (x * x + y * y)
        claims.append(
            equality_claim(
                f"assignable shadow equation at x = {x}",
                shadow_equation,
                Fraction(0),
            )
        )
        off = y + 1
        off_value = _plane_value(lhs, x, off, precision)
        claims.append(
            judged_claim(
                f"off the parabola at x = {x} the shadow is nonzero",
                standard_part(off_value),
                "nonzero rational",
                standard_part(off_value) != 0,
            )
        )
    return GalleryReport(
        "ellipse_parabola", tuple(str(x) for x in xs), tuple(claims)
    )


def parabola_rows(
    xs: Sequence[Fraction] = DEFAULT_GRID, precision: int = DEFAULT_PRECISION
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(x0, y0, shadow of the rational form) for each grid abscissa."""
    lhs = parse_text(ELLIPSE_RATIONAL_LHS)
    rows = []
    for x in xs:
        y = _parabola_height(x)
        value = _plane_value(lhs, x, y, precision)
        rows.append((x, y, standard_part(value)))
    return rows


def write_parabola_csv(
    path: str,
    xs: Sequence[Fraction] = DEFAULT_GRID,
    precision: int = DEFAULT_PRECISION,
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x0", "y0", "st_of_lhs"])
        for x, y, shadow in parabola_rows(xs, precision):
            writer.writerow([str(x), str(y), str(shadow)])


def ellipse_parabola_report(
    xs: Sequence[Fraction] = DEFAULT_GRID, precision: int = DEFAULT_PRECISION
) -> GalleryReport:
    """The radical-clearing chain followed by the shadow grid."""
    chain = verify_conic_chain(precision)
    grid = parabola_shadow_report(xs, precision)
    return GalleryReport("ellipse_parabola", grid.parameters, chain.claims + grid.claims)


def product_rule_report(
    u: Expr,
    v: Expr,
    var: str,
    point: Fraction | int,
    env: dict[str, LCNumber] | None = None,
    precision: int = DEFAULT_PRECISION,
) -> GalleryReport:
    """The product rule as exact series bookkeeping at one point.

    With ``dg = g(point + eps) - g(point)``: first the raw identity
    ``d(uv) = u*dv + v*du + du*dv``, then the shadow identity that the
    derivative of the product is ``st(u)*st(dv/eps) + st(v)*st(du/eps)``,
    and finally that the dropped cross term ``du*dv/eps`` is
    infinitesimal (or zero), which is exactly why dropping it is
    harmless.
    """
    p = make_real(point, precision)
    e = eps(precision)
    bindings = dict(env or {})

    def at(g: Expr, x: LCNumber) -> LCNumber:
        bindings[var] = x
        return evaluate(g, bindings, precision)

    u_here, v_here = at(u, p), at(v, p)
    du = sub(at(u, add(p, e)), u_here)
    dv = sub(at(v, add(p, e)), v_here)
    product = Mul((u, v), "*")
    d_product = sub(at(product, add(p, e)), at(product, p))

    rhs = add(add(mul(u_here, dv), mul(v_here, du)), mul(du, dv))
    quotient = mul(d_product, inverse(e))
    shadow_expected = standard_part(u_here) * standard_part(
        mul(dv, inverse(e))
    ) + standard_part(v_here) * standard_part(mul(du, inverse(e)))
    cross = mul(mul(du, dv), inverse(e))

    claims = (
        equality_claim("d(uv) equals u*dv + v*du + du*dv", d_product, rhs),
        equality_claim(
            "shadow of d(uv)/eps equals st(u)*st(dv/eps) + st(v)*st(du/eps)",
            standard_part(quotient),
            shadow_expected,
        ),
        judged_claim(
            "dropped cross term du*dv/eps is negligible",
            cross,
            "zero or infinitesimal",
            classify(cross)
            in (Classification.ZERO, Classification.INFINITESIMAL),
        ),
    )
    parameters = (
        f"u = {to_source(u)}",
        f"v = {to_source(v)}",
        f"{var} = {point}",
    )
    return GalleryReport("product_rule", parameters, claims)

"""Acceptance suite: the package's headline guarantees, one test per
numbered criterion, each printing a single ``[criterion N] PASS/FAIL``
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every check is exact rational arithmetic; the only tolerances are the
stated wall-clock bounds.  Criterion 9 re-runs the value-producing
criteria at truncation orders 4, 16, and 64 and requires bytewise
identical outputs, which is why the random polynomial degrees here are
capped so every exact support fits the narrowest window.
"""

import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from lcfield import (
    Classification,
    InfiniteOperand,
    add,
    big_h,
    classify,
    compare,
    eps,
    inverse,
    make_real,
    mul,
    neg,
    standard_part,
    sub,
)
from lcfield.calculus import derivative_at, symbolic_derivative
from lcfield.cli import load_corpus
from lcfield.dsl import Mul, evaluate, identities_transfer_check, parse_text
from lcfield.gallery import (
    DEFAULT_GRID,
    ELLIPSE_RATIONAL_LHS,
    parallel_lines_report,
    product_rule_report,
    verify_conic_chain,
)

from _gen import (
    random_finite_value,
    random_nonzero_rational,
    random_poly_expr,
    random_rational,
    random_series,
)

CORPORA = Path(__file__).resolve().parent.parent / "corpora"

NEGLIGIBLE = (Classification.ZERO, Classification.INFINITESIMAL)


def conclude(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}")
    assert passed, detail


# -- criterion 1: the infinite-focus conic casts the parabola shadow ------


def _criterion_1(precision: int = 16, seed: int = 1001):
    lhs = parse_text(ELLIPSE_RATIONAL_LHS)
    rng = random.Random(seed)
    xs = list(DEFAULT_GRID) + [random_rational(rng) for _ in range(200)]
    output = []
    ok = True
    start = perf_counter()
    for x in xs:
        y = x * x / 4 - 1
        def value_at(height):
            return evaluate(
                lhs,
                {
                    "x": make_real(x, precision),
                    "y": make_real(height, precision),
                },
                precision,
            )
        on_curve = standard_part(value_at(y))
        perturbed = standard_part(value_at(y + 1))
        ok = ok and on_curve == 0 and perturbed != 0
        output.append((str(x), str(on_curve), str(perturbed)))
    elapsed = perf_counter() - start
    ok = ok and elapsed < 1.0
    return ok, f"{len(xs)} points in {elapsed:.3f}s", tuple(output)


def test_criterion_1_parabola_shadow():
    ok, detail, _ = _criterion_1()
    conclude(1, ok, detail)


# -- criterion 2: radical-clearing chain with recorded cofactor -----------


def test_criterion_2_conic_chain():
    start = perf_counter()
    report = verify_conic_chain()
    elapsed = perf_counter() - start
    recorded = next(
        (c for c in report.claims if c.description == "recorded cofactor"),
        None,
    )
    ok = (
        report.passed
        and recorded is not None
        and recorded.computed == "-4·H^2"
        and elapsed < 1.0
    )
    conclude(2, ok, f"chain of {len(report.claims)} claims in {elapsed:.3f}s")


# -- criterion 3: product rule, 500 random pairs ---------------------------


def _criterion_3(precision: int = 16, seed: int = 3001, pairs: int = 500):
    rng = random.Random(seed)
    output = []
    ok = True
    start = perf_counter()
    for _ in range(pairs):
        degree_u = rng.randint(0, 3)
        u = random_poly_expr(rng, degree_u)
        v = random_poly_expr(rng, 3 - degree_u)
        point = random_rational(rng)
        report = product_rule_report(u, v, "x", point, precision=precision)
        product = Mul((u, v), "*")
        oracle = evaluate(
            symbolic_derivative(product, "x"),
            {"x": make_real(point, precision)},
            precision,
        )
        shadow = derivative_at(product, "x", point, precision=precision).shadow
        ok = ok and report.passed and shadow == standard_part(oracle)
        output.append((report.render_text(), str(shadow)))
    elapsed = perf_counter() - start
    ok = ok and elapsed < 5.0
    return ok, f"{pairs} pairs in {elapsed:.3f}s", tuple(output)


def test_criterion_3_product_rule():
    ok, detail, _ = _criterion_3()
    conclude(3, ok, detail)


# -- criterion 4: the shadow map is a ring homomorphism --------------------


def test_criterion_4_standard_part_homomorphism():
    rng = random.Random(4001)
    ok = True
    for _ in range(10_000):
        a = random_finite_value(rng)
        b = random_finite_value(rng)
        ok = ok and standard_part(add(a, b)) == standard_part(a) + standard_part(b)
        ok = ok and standard_part(mul(a, b)) == standard_part(a) * standard_part(b)
    ok = ok and standard_part(make_real(1)) == 1
    ok = ok and standard_part(eps()) == 0
    ok = ok and standard_part(neg(eps())) == 0
    try:
        standard_part(big_h())
        raised = False
    except InfiniteOperand:
        raised = True
    ok = ok and raised
    conclude(4, ok, "10000 finite pairs")


# -- criterion 5: incomparability and order laws ----------------------------


def test_criterion_5_incomparability_and_order():
    rng = random.Random(5001)
    one = make_real(1)
    ok = True
    ns = [10**k for k in range(7)] + [rng.randint(1, 10**6) for _ in range(200)]
    for n in ns:
        ok = ok and compare(mul(make_real(n), eps()), one) < 0
        ok = ok and compare(big_h(), make_real(n)) > 0
    zero = make_real(0)
    for _ in range(10_000):
        a, b, c = (random_series(rng) for _ in range(3))
        ok = ok and (compare(a, b) < 0) + (a == b) + (compare(b, a) < 0) == 1
        if compare(a, b) < 0:
            ok = ok and compare(add(a, c), add(b, c)) < 0
            if compare(zero, c) < 0:
                ok = ok and compare(mul(a, c), mul(b, c)) < 0
            if compare(b, c) < 0:
                ok = ok and compare(a, c) < 0
    conclude(5, ok, "10000 order triples")


# -- criterion 6: identity transfer over the corpus -------------------------


def test_criterion_6_transfer_corpus():
    identities = load_corpus(str(CORPORA / "identities.txt"))
    rejects = load_corpus(str(CORPORA / "non_identities.txt"))
    ok = len(identities) >= 25 and len(rejects) >= 5
    start = perf_counter()
    for _, lhs, rhs in identities:
        report = identities_transfer_check(
            parse_text(lhs), parse_text(rhs), trials=100, seed=6001
        )
        ok = ok and report.identity
        ok = ok and len(report.infinite_samples) == 100
        ok = ok and all(s["agree"] is True for s in report.infinite_samples)
        ok = ok and all(s["agree"] is True for s in report.finite_samples)
    for _, lhs, rhs in rejects:
        report = identities_transfer_check(
            parse_text(lhs), parse_text(rhs), trials=100, seed=6001
        )
        ok = ok and not report.identity
        ok = ok and report.counterexample is not None
    elapsed = perf_counter() - start
    ok = ok and elapsed < 10.0
    conclude(
        6,
        ok,
        f"{len(identities)} identities, {len(rejects)} rejects in {elapsed:.1f}s",
    )


# -- criterion 7: the parallel-line report, grid and random -----------------


def _criterion_7(precision: int = 16, seed: int = 7001):
    grid_report = parallel_lines_report(precision=precision)
    rng = random.Random(seed)
    xs = tuple(random_rational(rng) for _ in range(1000))
    random_report = parallel_lines_report(xs, precision=precision)
    by_description = {c.description: c for c in random_report.claims}
    slope = by_description["slope classification"]
    intercept = by_description["x-intercept classification"]
    ok = (
        grid_report.passed
        and random_report.passed
        and slope.expected == "infinitesimal"
        and intercept.expected == "infinite"
    )
    output = (grid_report.render_text(), random_report.render_text())
    return ok, "default grid plus 1000 random points", output


def test_criterion_7_parallel_lines():
    ok, detail, _ = _criterion_7()
    conclude(7, ok, detail)


# -- criterion 8: scaled product differential, dv superfluous ----------------


def _criterion_8(precision: int = 16, seed: int = 8001, cases: int = 100):
    rng = random.Random(seed)
    e = eps(precision)
    output = []
    ok = True
    for _ in range(cases):
        v = random_poly_expr(rng, 2)
        a = random_nonzero_rational(rng)
        p = random_rational(rng)
        here = make_real(p, precision)
        moved = add(here, e)
        v_here = evaluate(v, {"x": here}, precision)
        v_moved = evaluate(v, {"x": moved}, precision)
        dv = sub(v_moved, v_here)
        # ay = xv, so y = x*v/a and a*dy is exactly d(xv)
        scale = make_real(1 / a, precision)
        y_here = mul(scale, mul(here, v_here))
        y_moved = mul(scale, mul(moved, v_moved))
        dy = sub(y_moved, y_here)
        lhs = mul(make_real(a, precision), mul(dy, inverse(e)))
        rhs = add(add(mul(here, mul(dv, inverse(e))), v_here), dv)
        ok = ok and lhs == rhs
        ok = ok and classify(dv) in NEGLIGIBLE
        # dropping dv leaves the assignable identity between shadows
        shadow_lhs = standard_part(lhs)
        shadow_rhs = p * standard_part(mul(dv, inverse(e))) + standard_part(v_here)
        ok = ok and shadow_lhs == shadow_rhs
        output.append((lhs.render(), rhs.render(), str(shadow_lhs)))
    return ok, f"{cases} scaled products", tuple(output)


def test_criterion_8_scaled_product_differential():
    ok, detail, _ = _criterion_8()
    conclude(8, ok, detail)


# -- criterion 9: outputs do not depend on the truncation order --------------


def test_criterion_9_precision_robustness():
    ok = True
    for builder in (_criterion_1, _criterion_3, _criterion_7, _criterion_8):
        outputs = set()
        for t in (4, 16, 64):
            passed, _, output = builder(precision=t)
            ok = ok and passed
            outputs.add(output)
        ok = ok and len(outputs) == 1
    conclude(9, ok, "criteria 1, 3, 7, 8 at T in {4, 16, 64}")

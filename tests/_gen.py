"""Shared value and expression generators.

The hypothesis strategies for series values deliberately keep exponents
inside [-bound, bound] with few terms: sums and pairwise products of
such values fit entirely inside the default precision window, so the
algebraic laws under test are exact rather than
truncation-modulo-window statements.
"""

from fractions import Fraction
import random

from hypothesis import strategies as st

from lcfield import LCNumber, add, make_real
from lcfield.dsl import Add, Const, Eps, Expr, HUnit, Mul, Neg, Pow, Sqrt, Var

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_rationals = rationals.filter(lambda q: q != 0)
nonneg_rationals = st.fractions(min_value=0, max_value=9, max_denominator=9)


def exponents(bound: int = 3) -> st.SearchStrategy[Fraction]:
    return st.fractions(min_value=-bound, max_value=bound, max_denominator=4)


@st.composite
def lc_numbers(
    draw,
    bound: int = 3,
    max_terms: int = 4,
    min_terms: int = 0,
    finite: bool = False,
):
    """Series whose support fits any window after one ring operation."""
    low = 0 if finite else -bound
    exp_strategy = st.fractions(min_value=low, max_value=bound, max_denominator=4)
    exps = draw(
        st.lists(exp_strategy, min_size=min_terms, max_size=max_terms, unique=True)
    )
    pairs = [(e, draw(nonzero_rationals)) for e in exps]
    return LCNumber.from_terms(pairs)


def nonzero_lc_numbers(bound: int = 3, max_terms: int = 4):
    return lc_numbers(bound=bound, max_terms=max_terms, min_terms=1)


# -- expression trees ---------------------------------------------------------


@st.composite
def expressions(
    draw,
    names: tuple[str, ...] = ("x", "y"),
    allow_units: bool = True,
    allow_div: bool = True,
    allow_sqrt: bool = False,
    allow_st: bool = False,
    max_leaves: int = 6,
):
    """Random syntax trees restricted to parser-producible shapes:
    constants are nonnegative (negation is a Neg node), exponents are
    small integers, and a chain's first operand is never a chain of the
    same kind (the parser extends it instead)."""
    leaves = [
        st.builds(Const, nonneg_rationals),
        st.sampled_from([Var(n) for n in names]) if names else None,
        st.just(Eps()) if allow_units else None,
        st.just(HUnit()) if allow_units else None,
    ]
    leaf = st.one_of([s for s in leaves if s is not None])

    def chain(cls, symbols, children):
        def build(drawn):
            first, rest = drawn
            args = tuple(arg for _, arg in rest)
            ops = "".join(op for op, _ in rest)
            if isinstance(first, cls):
                return cls(first.args + args, first.ops + ops)
            return cls((first,) + args, ops)

        rest = st.lists(
            st.tuples(st.sampled_from(symbols), children), min_size=1, max_size=3
        )
        return st.tuples(children, rest).map(build)

    def extend(children):
        options = [
            chain(Add, "+-", children),
            chain(Mul, "*/" if allow_div else "*", children),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=-2, max_value=3)).map(
                lambda p: Pow(*p)
            ),
        ]
        if allow_sqrt:
            options.append(children.map(Sqrt))
        if allow_st:
            from lcfield.dsl import St

            options.append(children.map(St))
        return st.one_of(options)

    return draw(st.recursive(leaf, extend, max_leaves=max_leaves))


# -- plain-random helpers (seeded loops in the acceptance suite) --------------


def random_rational(rng: random.Random, span: int = 9, den: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_nonzero_rational(rng: random.Random, span: int = 9, den: int = 9) -> Fraction:
    while True:
        q = random_rational(rng, span, den)
        if q:
            return q


def poly_expr(coeffs: list[Fraction], var: str = "x") -> Expr:
    """Dense polynomial sum(coeffs[k] * var^k) as a syntax tree."""
    head: Expr = Const(Fraction(coeffs[0]) if coeffs else Fraction(0))
    terms = tuple(
        Mul((Const(Fraction(c)), Pow(Var(var), k)), "*")
        for k, c in enumerate(coeffs[1:], start=1)
    )
    return Add((head,) + terms, "+" * len(terms)) if terms else head


def random_poly_expr(
    rng: random.Random, max_degree: int, var: str = "x", span: int = 5
) -> Expr:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(degree + 1)]
    return poly_expr(coeffs, var)


def random_finite_value(rng: random.Random, precision: int = 16) -> LCNumber:
    """Finite series with a couple of small-exponent terms."""
    value = make_real(random_rational(rng), precision)
    for exp in (1, 2):
        if rng.random() < 0.5:
            value = add(
                value, LCNumber.from_terms([(exp, random_rational(rng))], precision)
            )
    return value


def random_series(rng: random.Random, bound: int = 3, max_terms: int = 3) -> LCNumber:
    """Series whose terms may sit in any stratum, infinite included."""
    count = rng.randint(0, max_terms)
    exps = rng.sample(range(-bound, bound + 1), count)
    pairs = [(Fraction(e), random_nonzero_rational(rng)) for e in exps]
    return LCNumber.from_terms(pairs)

"""Seeded input generators for the four perfbench workloads.

Standard library only: nothing here imports lcfield, so the program sees
only the generated inputs.  Every workload draws its items from a fixed
*universe*: item ``i`` of workload ``w`` is generated from
``random.Random(f"{w}:{i}")`` by the distribution stated in its
generator below, and its rendered output, if it passes the references,
is pinned in ``digests.json``.
The benchmark seed only chooses which universe items a run uses and in
what order, so the same seed always gives the same inputs.

Items are grouped into *strata* (item ``i`` belongs to stratum
``i % len(strata)``) and a run is a sequence of *rounds*, each holding one
fresh item from every stratum in a seeded order.  A run always finishes
the round it is in, so every run measures the same mix of item kinds and
its numbers do not depend on where the clock happened to stop.

A *covering* workload (``series_t64``) has a universe small enough for
one run: its plan is a sequence of *passes*, each holding every universe
item once, in rounds as above, in a fresh seeded order, and a run stops
only at the end of a pass.  So every run of it checks the same items,
the number that fail is the same in every run, and its item times are a
whole number of samples of each item; the seed orders them.

No generator ever looks at what the program does with an item: a defect
shows up as a failed item, never as a missing one.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("transfer_corpus", "series_t64", "canonical", "witness")

# How many distinct items each generated workload can draw from.
# series_t64 holds five items of each of its 48 strata: one pass over them
# takes about 11 s on the machine in baseline.json.
UNIVERSE = {"series_t64": 240, "canonical": 2160, "witness": 400}
COVERING = ("series_t64",)
# How many rounds the plan of a 20 s run holds (scaled with --seconds):
# about twice what such a run gets through at this commit, so set-up
# loads and parses only inputs a run can reach.  A run stops early, and
# says so, if it uses up its plan.
PLAN_ROUNDS_20S = {"transfer_corpus": 16, "series_t64": 20, "canonical": 100, "witness": 128}

SERIES_PRECISION = 64
CORPUS_PRECISION = 16
CORPORA = ("identities.txt", "non_identities.txt")
# transfer_corpus passes sample with one of these seeds; their outputs
# are pinned.  The benchmark seed picks one per pass.
SAMPLING_SEEDS = tuple(range(1000, 1016))


def precision(workload: str) -> int:
    """The truncation order T a workload runs at."""
    return SERIES_PRECISION if workload == "series_t64" else CORPUS_PRECISION


def _rng(workload: str, item: int) -> random.Random:
    return random.Random(f"{workload}:{item}")


# -- series_t64 -----------------------------------------------------------
#
# Bindings are 2-3-term series c0 + c1 eps^(1/d) [+ c2 eps^(1/d + j/d)],
# j in 1..d, built with LCNumber.from_terms.  The leading coefficient c0 is
# a positive rational square (so sqrt is defined); c1 and c2 are nonzero
# p/q with |p| <= 5 and q in {1, 2, 3}.  d is the stratum's exponent
# denominator, one of 1, 2, 3, 4.  Three-term series use d <= 2 and
# two-term series d >= 3: the cost of inverse and sqrt grows with the
# number of lattice points below the window, and this keeps every item
# under about a fortieth of a run.  Strata are item kind x expression
# shape x d, so each round holds the same mix of costs.

DENOMINATORS = (1, 2, 3, 4)
# Every division and square root acts on one binding (or 1 plus one), never
# on a product or sum of two, and the quotient's moved point x + eps is
# never inverted: those would be series with four or more terms.
SERIES_SHAPES = {
    "inverse": ("1/x",),
    "sqrt": ("sqrt(x)",),
    "rational": ("x*y + 1/(1 + x)", "x^2*y - 1/y", "(x - y)/(1 + y)", "sqrt(x)/(1 + y)"),
    "quotient": ("x^3 + y*x", "x^2*y - 3*x", "x*y^2 + 1/(y + 2)"),
}
# derivative_at in x at a rational point p, with y bound to a series
# drawn like the others.  ``a`` > 0 and ``b`` != p keep every denominator
# nonzero at p.
DERIVATIVE_SHAPES = (
    "(x^2 + {a})/(x - {b}) + y*x", "1/(x^2 + {a}) - {b}*x^3 + y*x", "(x + {a})^3/(x - {b}) + y*x",
)
SERIES_STRATA = tuple(
    (kind, shape, d) for kind, shapes in SERIES_SHAPES.items() for shape in shapes for d in DENOMINATORS
) + tuple(("derivative", shape, d) for shape in DERIVATIVE_SHAPES for d in DENOMINATORS)
_SQUARES = (Fraction(1), Fraction(4), Fraction(9), Fraction(1, 4), Fraction(9, 4))


def _small_nonzero(rng: random.Random) -> Fraction:
    p = rng.choice((1, 2, 3, 4, 5))
    return Fraction(p if rng.random() < 0.5 else -p, rng.choice((1, 2, 3)))


def _binding(rng: random.Random, d: int) -> list[list[str]]:
    """Terms ``[[exponent, coefficient], ...]`` of one 2-3-term series."""
    exponents = [Fraction(0), Fraction(1, d)]
    if d <= 2:
        exponents.append(exponents[-1] + Fraction(rng.randint(1, d), d))
    coefficients = [rng.choice(_SQUARES)] + [_small_nonzero(rng) for _ in exponents[1:]]
    return [[str(e), str(c)] for e, c in zip(exponents, coefficients)]


def series_item(item: int) -> dict:
    rng = _rng("series_t64", item)
    kind, shape, d = SERIES_STRATA[item % len(SERIES_STRATA)]
    spec: dict = {"id": item, "kind": kind}
    if kind == "derivative":
        point = rng.randint(-3, 3)
        a = rng.randint(1, 5)
        b = rng.choice([v for v in range(-4, 5) if v != point])
        spec.update(expr=shape.format(a=a, b=b), var="x", point=str(point), env={"y": _binding(rng, d)})
        return spec
    names = ("x",) if kind in ("inverse", "sqrt") else ("x", "y")
    spec.update(expr=shape, env={name: _binding(rng, d) for name in names})
    if kind == "quotient":
        spec["var"] = "x"
    return spec


# -- canonical ------------------------------------------------------------
#
# Pairs of rational expressions in 2-4 variables shaped like the corpus
# lines.  Strata are shape x variable count x intended verdict.  The
# shapes are: a product of 2-3 linear factors against its expansion; a
# sum of 2-3 fractions c_i/L_i against one fraction over the product of
# the L_i; and a nested quotient (L1*L2/L3)/(L4/L5) against
# L1*L2*L5/(L3*L4).  A linear factor has one or two of the item's
# variables with coefficients in {1, 2, 3, -1, -2}, plus a nonzero
# constant when it has one variable.  The variables are dealt round-robin
# over the factors, so every one of them occurs.  In half the items one
# factor also carries H (eps inside quotients).  A non-identity changes
# one coefficient on the right, which always changes the rational
# function.

CANONICAL_SHAPES = ("product", "fractions", "quotient")
_VARIABLE_POOL = ("a", "b", "c", "u", "v", "w", "x", "y", "z")
CANONICAL_STRATA = tuple(
    (shape, n, identity)
    for shape in CANONICAL_SHAPES
    for n in (2, 3, 4)
    for identity in (True, False)
)


class _Poly:
    """Just enough of a polynomial to write out expansions as text."""

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return _Poly(out)

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                powers = dict(m1)
                for name, k in m2:
                    powers[name] = powers.get(name, 0) + k
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return _Poly(out)

    def render(self) -> str:
        return _signed_sum(
            (coef, [name if k == 1 else f"{name}^{k}" for name, k in mono])
            for mono, coef in sorted(self.terms.items(), key=lambda t: (-sum(k for _, k in t[0]), t[0]))
        ) if self.terms else "0"


def _signed_join(parts) -> str:
    """``a + b - c`` from (negative, text) pairs."""
    out: list[str] = []
    for negative, text in parts:
        if not out:
            out.append(f"-{text}" if negative else text)
        else:
            out.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(out)


def _signed_sum(terms) -> str:
    """``c1*f1 + c2*f2 - ...`` from (coefficient, factor names) pairs."""
    return _signed_join(
        (coef < 0, "*".join(([str(abs(coef))] if abs(coef) != 1 or not factors else []) + list(factors)))
        for coef, factors in terms
    )


def _linear(rng: random.Random, own: list[str], unit: str | None) -> tuple[str, _Poly]:
    """One linear factor over ``own`` names; its poly leaves eps out."""
    terms = [(rng.choice((1, 2, 3, -1, -2)), [name]) for name in own]
    if len(own) == 1:
        terms.append((rng.choice((1, -1, 2, -2, 3, 5)), []))
    if unit is not None:
        terms.append((rng.choice((1, -1, 2)), [unit]))
    poly = _Poly()
    for coef, factors in terms:
        if factors != ["eps"]:
            poly = poly + _Poly({tuple((f, 1) for f in factors): Fraction(coef)})
    return _signed_sum(terms), poly


def _factors(rng: random.Random, names: list[str], count: int, unit: str | None) -> list[tuple[str, _Poly]]:
    """``count`` linear factors that together use every name."""
    dealt: list[list[str]] = [[] for _ in range(count)]
    for i, name in enumerate(rng.sample(names, len(names))):
        if len(dealt[i % count]) < 2:
            dealt[i % count].append(name)
    for own in dealt:
        if not own:
            own.append(rng.choice(names))
    unit_at = rng.randrange(count) if unit is not None and rng.random() < 0.5 else -1
    return [_linear(rng, own, unit if i == unit_at else None) for i, own in enumerate(dealt)]


def _perturb(poly: _Poly, rng: random.Random) -> _Poly:
    mono = rng.choice(sorted(poly.terms))
    return poly + _Poly({mono: Fraction(rng.choice((1, -1, 2)))})


def canonical_item(item: int) -> dict:
    rng = _rng("canonical", item)
    shape, n, identity = CANONICAL_STRATA[item % len(CANONICAL_STRATA)]
    names = sorted(rng.sample(_VARIABLE_POOL, n))
    if shape == "product":
        pieces = _factors(rng, names, rng.choice((2, 3)), "H")
        lhs = "*".join(f"({text})" for text, _ in pieces)
        expanded = _Poly({(): Fraction(1)})
        for _, poly in pieces:
            expanded = expanded * poly
        rhs = (expanded if identity else _perturb(expanded, rng)).render()
    elif shape == "fractions":
        pieces = _factors(rng, names, rng.choice((2, 3)), "H")
        coefs = [rng.choice((1, 2, 3, -1, -2)) for _ in pieces]
        lhs = _signed_join((c < 0, f"{abs(c)}/({text})") for c, (text, _) in zip(coefs, pieces))
        numerator = _Poly()
        for i, c in enumerate(coefs):
            term = _Poly({(): Fraction(c)})
            for j, (_, poly) in enumerate(pieces):
                if j != i:
                    term = term * poly
            numerator = numerator + term
        if not identity:
            numerator = _perturb(numerator, rng)
        rhs = f"({numerator.render()})/(" + "*".join(f"({t})" for t, _ in pieces) + ")"
    else:
        b = [text for text, _ in _factors(rng, names, 5, "eps")]
        lhs = f"(({b[0]})*({b[1]})/({b[2]}))/(({b[3]})/({b[4]}))"
        first = b[0] if identity else f"{b[0]} + 1"
        rhs = f"({first})*({b[1]})*({b[4]})/(({b[2]})*({b[3]}))"
    return {"id": item, "shape": shape, "lhs": lhs, "rhs": rhs}


# -- witness --------------------------------------------------------------
#
# Non-identities R + D == R in k = 3 or 4 variables (the strata).  R is a
# sum of terms c*u*v that pair the variables up (one term is c*u alone
# when k is odd), so all of them occur.  The difference D = p*(s + c)
# vanishes wherever p is 0: p is the variable at sorted position k - 3 and
# s a later one, so the transfer checker's witness grid (candidates 0, 1,
# -1, 2, ...; last variable fastest) scans the 31^2 points with p = 0
# before it finds a witness at p = 1.

WITNESS_STRATA = (3, 4)


def witness_item(item: int) -> dict:
    rng = _rng("witness", item)
    k = WITNESS_STRATA[item % len(WITNESS_STRATA)]
    names = sorted(rng.sample(_VARIABLE_POOL, k))
    p = names[k - 3]
    s = rng.choice(names[k - 2:])
    c = rng.choice((1, 2, 3, -1, -2))
    dealt = rng.sample(names, k)
    base = _signed_sum((rng.choice((1, 2, 3, -1, -2)), dealt[i:i + 2]) for i in range(0, k, 2))
    lhs = f"{base} + {p}*({s} {'+' if c > 0 else '-'} {abs(c)})"
    return {"id": item, "lhs": lhs, "rhs": base, "seed": 2000 + item}


GENERATORS = {"series_t64": series_item, "canonical": canonical_item, "witness": witness_item}
STRATA = {"series_t64": SERIES_STRATA, "canonical": CANONICAL_STRATA, "witness": WITNESS_STRATA}


# -- run plans ------------------------------------------------------------


def corpus_entries(root: Path) -> list[dict]:
    """Every claim line of the shipped corpora, with its raw text."""
    entries = []
    for corpus in CORPORA:
        text = (root / "corpora" / corpus).read_text(encoding="utf-8")
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                lhs, rhs = (side.strip() for side in line.split("=="))
                entries.append(
                    {"corpus": corpus, "line": number, "raw": raw, "lhs": lhs, "rhs": rhs}
                )
    return entries


def pass_rounds(workload: str) -> int:
    """The rounds a run finishes together: it stops only when it has done
    a multiple of them.  A whole pass for a covering workload, else one."""
    if workload in COVERING:
        return UNIVERSE[workload] // len(STRATA[workload])
    return 1


def plan_size(workload: str, seconds: float) -> int:
    """How many rounds the plan of a ``seconds`` run holds."""
    step = pass_rounds(workload)
    return step * max(1, math.ceil(PLAN_ROUNDS_20S[workload] * seconds / 20 / step))


def plan_rounds(workload: str, seed: int, root: Path, seconds: float = 20) -> list[list[dict]]:
    """The seeded sequence of rounds a ``seconds`` run may work through."""
    rng = random.Random(f"plan:{workload}:{seed}")
    size = plan_size(workload, seconds)
    if workload == "transfer_corpus":
        entries = corpus_entries(root)
        rounds = []
        for _ in range(size):
            sampling_seed = rng.choice(SAMPLING_SEEDS)
            order = list(entries)
            rng.shuffle(order)
            rounds.append(
                [
                    dict(e, id=f"{e['corpus']}:{e['line']}", seed=sampling_seed,
                         key=f"{sampling_seed}:{e['corpus']}:{e['line']}")
                    for e in order
                ]
            )
        return rounds
    strata = len(STRATA[workload])
    pools = [list(range(s, UNIVERSE[workload], strata)) for s in range(strata)]
    for pool in pools:
        rng.shuffle(pool)
    generate = GENERATORS[workload]
    per_pass = min(len(pool) for pool in pools)
    rounds = []
    while len(rounds) < size:
        for r in range(min(per_pass, size - len(rounds))):
            ids = [pool[r] for pool in pools]
            rng.shuffle(ids)
            rounds.append([dict(generate(i), key=str(i)) for i in ids])
        if workload not in COVERING:
            break
        for pool in pools:
            rng.shuffle(pool)
    return rounds


def inputs_hash(rounds: list[list[dict]]) -> str:
    """Digest of a run's generated inputs, to show two runs used the same."""
    text = json.dumps(rounds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]

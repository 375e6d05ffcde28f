"""Outside-in tracing of lcfield's layers, from the benchmark's own files.

``Tracer.install`` replaces each public function of a layer with a
wrapper that records a span, in every ``lcfield`` module that holds a
reference to it: ``dsl`` does ``from .core import add, mul, ...``, so
wrapping ``lcfield.core.add`` alone would miss the evaluator's calls.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Spans stay in memory as tuples ``(name, start, end, parent, item,
outer)``: ``parent`` is the index of the enclosing span or -1, ``item``
the benchmark item being run, and ``outer`` a bit set saying whether the
span is the outermost open call of its layer (bit 0) and of its own name
(bit 1).  ``write`` dumps them as CSV when the run ends, and
``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

CORE_FUNCTIONS = (
    "make_real", "make_monomial", "eps", "big_h", "add", "sub", "neg", "mul", "inverse", "power",
    "sqrt", "compare", "classify", "standard_part", "is_infinitely_close", "tlh_reduce",
    "agrees_to_guaranteed_order",
)
# (module, function) -> span name.  A span's layer is the text before its
# first dot.  ``canonicalize`` lives in dsl but is the poly layer's entry.
SPAN_NAMES = {("core", f): f"core.{f}" for f in CORE_FUNCTIONS} | {
    ("poly", "poly_gcd"): "poly.gcd",
    ("dsl", "canonicalize"): "poly.canonicalize",
    ("dsl", "tokenize"): "dsl.parse",
    ("dsl", "parse"): "dsl.parse",
    ("dsl", "parse_text"): "dsl.parse",
    ("dsl", "evaluate"): "dsl.evaluate",
    ("dsl", "free_variables"): "dsl.free_variables",
    ("dsl", "order_variables"): "dsl.order_variables",
    ("dsl", "uses_units"): "dsl.uses_units",
    ("dsl", "identities_transfer_check"): "dsl.transfer",
    ("calculus", "differential_quotient"): "calculus.differential_quotient",
    ("calculus", "derivative_at"): "calculus.derivative_at",
    ("calculus", "symbolic_derivative"): "calculus.symbolic_derivative",
    ("cli", "main"): "cli.main",
    ("cli", "load_corpus"): "cli.load_corpus",
}
LAYERS = ("core", "poly", "dsl", "calculus", "cli")
OUTER_LAYER, OUTER_NAME = 1, 2


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.item = None
        self.transfer_reports: list = []
        self.terms_out: Counter = Counter()
        self._stack: list[int] = []
        self._layer_depth: Counter = Counter()
        self._name_depth: Counter = Counter()
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack
        layer_depth, name_depth = self._layer_depth, self._name_depth
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = (OUTER_LAYER if not layer_depth[layer] else 0) | (
                OUTER_NAME if not name_depth[name] else 0
            )
            stack.append(index)
            layer_depth[layer] += 1
            name_depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layer_depth[layer] -= 1
                name_depth[name] -= 1
                spans[index] = (name, start, end, parent, tracer.item, outer)
            tracer._count(name, layer, outer, result)
            return result

        return traced

    def _count(self, name: str, layer: str, outer: int, result) -> None:
        if name == "dsl.transfer":
            self.transfer_reports.append(result)
        elif name == "poly.canonicalize":
            self.terms_out["poly"] += len(result.numerator.terms) + len(result.denominator.terms)
        elif layer == "core" and outer & OUTER_LAYER and hasattr(result, "terms"):
            self.terms_out["core"] += len(result.terms)

    def install(self) -> None:
        import lcfield  # noqa: F401  (loads every submodule)

        homes = {n: sys.modules[f"lcfield.{n}"] for n in LAYERS}
        targets = [m for n, m in sorted(sys.modules.items()) if n == "lcfield" or n.startswith("lcfield.")]
        for (home, attr), span in SPAN_NAMES.items():
            original = getattr(homes[home], attr)
            wrapped = self._wrap(span, original)
            for module in targets:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
            out = csv.writer(handle)
            out.writerow(("index", "name", "start", "end", "parent", "item", "outer"))
            for index, (name, start, end, parent, item, outer) in enumerate(self.spans):
                out.writerow((index, name, f"{start:.9f}", f"{end:.9f}", parent, item, outer))

    def summarize(self, item_seconds: float) -> dict:
        """Per-layer counts and times; ``item_seconds`` is the traced
        wall time of the items, the base of every share."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _item, _outer in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)  # outermost call of the name
        layer_busy: defaultdict = defaultdict(float)  # outermost call into the layer
        self_time: defaultdict = defaultdict(float)  # per layer and per name
        under: defaultdict = defaultdict(float)  # layer busy time by caller span
        evals_in_transfer = 0
        traced_roots = 0.0
        for index, (name, start, end, parent, _item, outer) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            own = duration - child_time[index]
            calls[name] += 1
            calls[layer] += 1
            self_time[name] += own
            self_time[layer] += own
            if outer & OUTER_NAME:
                busy[name] += duration
            if outer & OUTER_LAYER:
                layer_busy[layer] += duration
                caller = spans[parent][0] if parent >= 0 else "bench"
                under[f"{layer}<{caller}"] += duration
            if parent < 0:
                traced_roots += duration
            elif name == "dsl.evaluate" and spans[parent][0] == "dsl.transfer":
                evals_in_transfer += 1
        reports = self.transfer_reports
        non_identities = [r for r in reports if not r.identity]
        inconclusive = sum(
            1 for r in reports for s in r.finite_samples + r.infinite_samples if s["agree"] is None
        )
        checks = len(reports)
        core_calls = calls["core"]
        m = {
            "trace.item_s": item_seconds,
            "trace.spans": len(spans),
            "core.calls": core_calls,
            "core.busy_s": layer_busy["core"],
            "core.self_s": self_time["core"],
            "core.terms_out": self.terms_out["core"],
            "core.us_per_call": 1e6 * layer_busy["core"] / core_calls if core_calls else 0.0,
            "core.via_evaluate_s": under["core<dsl.evaluate"],
            "dsl.evaluate.calls": calls["dsl.evaluate"],
            "dsl.evaluate.busy_s": busy["dsl.evaluate"],
            "dsl.evaluate.self_s": self_time["dsl.evaluate"],
            "dsl.parse.busy_s": busy["dsl.parse"],
            "dsl.self_s": self_time["dsl"],
            "dsl.transfer.checks": checks,
            "dsl.transfer.self_s": self_time["dsl.transfer"],
            "dsl.transfer.evals_per_check": evals_in_transfer / checks if checks else 0.0,
            "dsl.transfer.inconclusive_samples": inconclusive,
            "dsl.transfer.non_identities": len(non_identities),
            "dsl.transfer.witness_found_ratio": (
                sum(1 for r in non_identities if r.counterexample is not None) / len(non_identities)
                if non_identities
                else 0.0
            ),
            "poly.canonicalize.calls": calls["poly.canonicalize"],
            "poly.canonicalize.busy_s": busy["poly.canonicalize"],
            "poly.gcd.calls": calls["poly.gcd"],
            "poly.gcd.busy_s": busy["poly.gcd"],
            "poly.self_s": self_time["poly"],
            "poly.terms_out": self.terms_out["poly"],
            "calculus.calls": calls["calculus"],
            "calculus.self_s": self_time["calculus"],
            "cli.self_s": self_time["cli"],
            "bench.self_s": max(0.0, item_seconds - traced_roots),
        }
        for op in ("mul", "add", "power", "inverse", "sqrt"):
            m[f"core.{op}.calls"] = calls[f"core.{op}"]
            m[f"core.{op}.busy_s"] = busy[f"core.{op}"]
        for layer in LAYERS + ("bench",):
            m[f"share.{layer}_self"] = m[f"{layer}.self_s"] / item_seconds if item_seconds else 0.0
        m["share.core_via_evaluate"] = m["core.via_evaluate_s"] / item_seconds if item_seconds else 0.0
        m["share.evaluate_busy"] = m["dsl.evaluate.busy_s"] / item_seconds if item_seconds else 0.0
        return m

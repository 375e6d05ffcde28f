"""One workload in a fresh interpreter: set up, then run whole rounds.

    python3 perfbench/child.py PLAN RESULT [--setup-only]

Set-up is ``import lcfield`` plus loading and parsing the plan's inputs;
the child prints ``ready`` on standard output when it is done, which is
where the parent stops the set-up clock, and then ``probe S``, the median
time of ``SETUP_PROBES`` runs of ``probe`` right after set-up, by which
the parent rescales it.  With ``--setup-only`` it exits there.
Otherwise it runs rounds until ``seconds`` have passed, always
finishing the round it is in (the pass, ``pass_rounds`` rounds, for a
workload that covers its universe).  Each item's wall time and rendered
output go to RESULT.items.jsonl round by round, and a summary to RESULT.

With ``trace`` set, set-up runs under the tracer (for the parse time).
The rounds first run untraced for half the time, to warm up; then each
of those rounds runs once more untraced and once under the tracer, one
after the other, so both passes see the same warm process and the same
host.  The tracer's spans go to a CSV file beside RESULT; the traced
items go to RESULT.items.jsonl and the untraced ones' times to RESULT,
from which the parent computes the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


def _prepare(workload: str, item: dict, precision: int):
    """Parse one item's inputs; returns a zero-argument runner."""
    from lcfield import LCNumber, cli, parse_text
    from lcfield import calculus, dsl

    if workload in ("transfer_corpus", "witness"):
        argv = ["transfer", "--format", "json", "--seed", str(item["seed"]),
                "-T", str(precision), item["file"]]

        def run_transfer():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

        return run_transfer

    if workload == "canonical":
        lhs, rhs = parse_text(item["lhs"]), parse_text(item["rhs"])

        def run_canonical():
            names = dsl.free_variables(lhs) | dsl.free_variables(rhs)
            units = dsl.uses_units(lhs) or dsl.uses_units(rhs)
            order = dsl.order_variables(names, include_h=units)
            left, right = dsl.canonicalize(lhs, order), dsl.canonicalize(rhs, order)
            return {"identity": left == right, "lhs": left.render(), "rhs": right.render()}

        return run_canonical

    expr = parse_text(item["expr"])
    env = {
        name: LCNumber.from_terms([(Fraction(e), Fraction(c)) for e, c in terms], precision)
        for name, terms in item.get("env", {}).items()
    }
    kind = item["kind"]
    if kind == "quotient":
        point = env.pop(item["var"])
        return lambda: {"value": calculus.differential_quotient(expr, item["var"], point, env).to_json()}
    if kind == "derivative":
        point = Fraction(item["point"])

        def run_derivative():
            result = calculus.derivative_at(expr, item["var"], point, env, precision=precision)
            return {
                "quotient": result.quotient.to_json(),
                "shadow": str(result.shadow),
                "discarded": result.discarded.to_json(),
            }

        return run_derivative
    return lambda: {"value": dsl.evaluate(expr, env, precision).to_json()}


def probe() -> None:
    """A fixed slice of pure-Python work (Fraction arithmetic and dict
    updates, like lcfield's inner loops) that shares no code with lcfield.
    Its wall time tracks how fast the host runs Python at that moment."""
    acc: dict[int, int] = {}
    q = Fraction(1, 3)
    for i in range(1, 300):
        q = q * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        acc[i % 97] = acc.get(i % 97, 0) + q.numerator % 1000


SETUP_PROBES = 40


def probe_median(count: int) -> float:
    """Median wall time of ``count`` runs of ``probe``."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_rounds(rounds, runners, seconds: float, tracer=None, sink=None,
                probing: bool = False, pass_rounds: int = 1) -> tuple[list[float], int]:
    """Whole passes of ``pass_rounds`` rounds until ``seconds`` pass
    (always at least one).

    With ``probing``, each item is followed by a timed ``probe``.  Each
    round's records go to ``sink`` when it ends, so outputs do not pile up
    in memory.  Returns the item times and the number of rounds.
    """
    times: list[float] = []
    clock = time.perf_counter
    began = clock()
    done = 0
    for items, round_runners in zip(rounds, runners):
        if done and done % pass_rounds == 0 and clock() - began >= seconds:
            break
        records = []
        for item, runner in zip(items, round_runners):
            if tracer is not None:
                tracer.item = item["key"]
            start = clock()
            try:
                output, error = runner(), None
            except Exception as exc:  # a failed item is reported, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = clock() - start
            times.append(elapsed)
            record = {"key": item["key"], "s": elapsed, "output": output, "error": error}
            if probing:
                start = clock()
                probe()
                record["probe_s"] = clock() - start
            records.append(record)
        if sink is not None:
            sink(records)
        done += 1
    return times, done


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.  ``ru_maxrss`` would
    also count the parent's memory at fork time, so prefer VmHWM."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    setup_only = "--setup-only" in argv[2:]
    import lcfield  # noqa: F401
    import lcfield.cli  # noqa: F401

    plan = json.loads(plan_path.read_text())
    workload, precision = plan["workload"], plan["precision"]
    trace = plan["trace"] and not setup_only
    if trace:
        from tracer import Tracer

        setup_tracer = Tracer()
        setup_tracer.install()
    try:
        runners = [[_prepare(workload, item, precision) for item in items] for items in plan["rounds"]]
    finally:
        if trace:
            setup_tracer.uninstall()
    print("ready", flush=True)
    print(f"probe {probe_median(SETUP_PROBES)!r}", flush=True)
    if setup_only:
        return 0

    seconds, pass_rounds = plan["seconds"], plan["pass_rounds"]
    result: dict = {"workload": workload}
    with open(result_path.with_suffix(".items.jsonl"), "w") as items_file:

        def sink(records):
            items_file.write("".join(json.dumps(r) + "\n" for r in records))

        if not trace:
            _, done = _run_rounds(plan["rounds"], runners, seconds, sink=sink, probing=True,
                                  pass_rounds=pass_rounds)
            result["rounds"] = done
        else:
            _, done = _run_rounds(plan["rounds"], runners, seconds / 2, pass_rounds=pass_rounds)
            tracer = Tracer()
            untraced: list[dict] = []
            times: list[float] = []
            for r in range(done):
                pair = (plan["rounds"][r:r + 1], runners[r:r + 1])
                _run_rounds(*pair, 0, sink=untraced.extend, probing=True)
                tracer.install()
                try:
                    round_times, _ = _run_rounds(*pair, 0, tracer=tracer, sink=sink, probing=True)
                finally:
                    tracer.uninstall()
                times += round_times
            layers = tracer.summarize(sum(times))
            layers["dsl.parse.busy_s"] += setup_tracer.summarize(0.0)["dsl.parse.busy_s"]
            tracer.write(result_path.with_name("spans.csv.gz"))
            result.update(rounds=done, layers=layers,
                          untraced=[{k: u[k] for k in ("key", "s", "probe_s", "error")} for u in untraced])
    result["peak_rss_mb"] = _peak_rss_mb()
    result["exhausted"] = result["rounds"] == len(plan["rounds"])
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""lcfield's layered benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

The program is imported from the ``src/`` of the checkout that holds
this directory.  Each workload runs in a fresh single-threaded child
interpreter (see ``child.py``); set-up is timed over several fresh
children and reported as a median.  Item and set-up times are rescaled
by the host's speed at the time (see ``host_normalized``).  Every output
is checked by the gate in ``reference.py``.  With ``--trace 0`` the last
line of standard output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.
``--all`` runs every workload, one after another, and prints all
end-to-end metrics in one table.  Scratch files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh children timed for set-up, the measured one included: at least
# SETUP_SAMPLES, and more while they take under SETUP_BUDGET_S in all, so a
# short set-up gets more samples; at most SETUP_SAMPLES_MAX.
SETUP_SAMPLES, SETUP_SAMPLES_MAX, SETUP_BUDGET_S = 9, 31, 4.0
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The tail percentile of each workload is fixed, so runs of different
# lengths report the same statistic: the highest ladder percentile with at
# least ten items beyond it in a --seconds 20 run at the baseline commit,
# with room for a slower host.  A run with fewer items falls back to the
# ladder rule; every run prints the percentile it used.
TAIL_PERCENTILE = {"transfer_corpus": 90.0, "series_t64": 95.0, "canonical": 95.0, "witness": 75.0}
# Probe time of ``child.probe`` on the reference host (the quiet-time tenth
# percentile on the machine in baseline.json); see ``host_normalized``.
REFERENCE_PROBE_S = 0.0017

# Metric names and units come from BENCHMARK.json, beside this directory.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Printed with the others, but not in BENCHMARK.json: it is 0 when the
# program is right, and a bound relative to 0 means nothing.
FAILED_RATIO_UNIT = "ratio"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _check_checkout() -> None:
    for needed in (ROOT / "src" / "lcfield" / "__init__.py", ROOT / "corpora" / workloads.CORPORA[0]):
        if not needed.is_file():
            raise BenchError(f"not a full lcfield checkout: {needed.relative_to(ROOT)} is missing")


# -- plans ------------------------------------------------------------------


def write_plan(workload: str, rounds: list, seconds: float, trace: bool, work: Path) -> Path:
    """Write the child's inputs; corpus items each get a one-line file."""
    work.mkdir(parents=True, exist_ok=True)
    if workload in ("transfer_corpus", "witness"):
        lines = work / "lines"
        lines.mkdir(exist_ok=True)
        for items in rounds:
            for item in items:
                if workload == "transfer_corpus":
                    # Blank lines keep the line number the shipped file gives it.
                    name = f"{item['corpus']}-{item['line']}.txt"
                    text = "\n" * (item["line"] - 1) + item["raw"] + "\n"
                else:
                    name = f"witness-{item['id']}.txt"
                    text = f"{item['lhs']} == {item['rhs']}\n"
                path = lines / name
                if not path.exists() or path.read_text() != text:
                    path.write_text(text)
                item["file"] = str(path)
    plan = work / "plan.json"
    plan.write_text(json.dumps({"workload": workload, "precision": workloads.precision(workload), "seconds": seconds,
                                "pass_rounds": workloads.pass_rounds(workload), "trace": trace, "rounds": rounds}))
    return plan


def _spawn(plan: Path, result: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    argv = [sys.executable, str(HERE / "child.py"), str(plan), str(result)]
    if setup_only:
        argv.append("--setup-only")
    began = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=_child_env(), cwd=str(ROOT))
    return child, began


def _await_ready(child: subprocess.Popen, began: float) -> float:
    """The child's set-up wall time, rescaled by the host's speed just
    after it: the child times ``probe`` right after it is ready and
    reports the median (see ``host_normalized``)."""
    line = child.stdout.readline()
    ready = time.perf_counter()
    probe_line = child.stdout.readline().split() if line.strip() == "ready" else []
    if len(probe_line) != 2 or probe_line[0] != "probe":
        child.kill()
        _, err = child.communicate()
        raise BenchError(f"child failed during set-up:\n{err.strip()}")
    return (ready - began) * REFERENCE_PROBE_S / float(probe_line[1])


def _finish(child: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> None:
    try:
        _, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise BenchError("child timed out") from None
    if child.returncode != 0:
        raise BenchError(f"child exited with {child.returncode}:\n{err.strip()}")


def run_child(plan: Path, work: Path, setup_samples: int, budget_s: float = 0.0,
              timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, list[float]]:
    """Set-up-only children, then the measured one; returns its result and
    every rescaled set-up time.  Takes ``setup_samples`` set-ups, or more
    while they have taken under ``budget_s``, up to ``SETUP_SAMPLES_MAX``."""
    setups = []
    began_all = time.perf_counter()
    while len(setups) < setup_samples - 1 or (
        len(setups) < SETUP_SAMPLES_MAX - 1 and time.perf_counter() - began_all < budget_s
    ):
        child, began = _spawn(plan, work / "unused.json", setup_only=True)
        try:
            setups.append(_await_ready(child, began))
        finally:
            _finish(child)
    result_path = work / "result.json"
    items_path = result_path.with_suffix(".items.jsonl")
    result_path.unlink(missing_ok=True)
    items_path.unlink(missing_ok=True)
    child, began = _spawn(plan, result_path, setup_only=False)
    try:
        setups.append(_await_ready(child, began))
    finally:
        _finish(child, timeout)
    result = json.loads(result_path.read_text())
    with open(items_path) as lines:
        result["items"] = [json.loads(line) for line in lines]
    return result, setups


# -- correctness gate --------------------------------------------------------


class Gate:
    """Checks every output against the references and pinned digests."""

    def __init__(self, workload: str, digests: dict):
        self.workload = workload
        self.digests = digests.get(workload, {})
        self._transfer_checks: dict = {}  # shipped lines repeat across rounds

    def check(self, item: dict, record: dict) -> str | None:
        if record["error"] is not None:
            return record["error"]
        output = record["output"]
        rendered = json.dumps(output, sort_keys=True, separators=(",", ":"))
        pinned = self.digests.get(item["key"])
        if pinned is None:
            return f"no pinned digest for {item['key']}"
        if reference.digest(rendered) != pinned:
            return "rendered output differs from the pinned digest"
        return self.reference_check(item, output)

    def reference_check(self, item: dict, output: dict) -> str | None:
        if self.workload in ("transfer_corpus", "witness"):
            if output["stderr"]:
                return f"unexpected stderr: {output['stderr'].strip()}"
            key = (item["lhs"], item["rhs"], output["stdout"], output["code"])
            if key not in self._transfer_checks:
                payload = json.loads(output["stdout"])
                self._transfer_checks[key] = reference.check_transfer(
                    item["lhs"], item["rhs"], payload, output["code"]
                )
            return self._transfer_checks[key]
        if self.workload == "canonical":
            return reference.check_canonical(item["lhs"], item["rhs"], output)
        if item["kind"] in ("inverse", "sqrt"):
            return reference.check_series(item["kind"], item["env"]["x"], output["value"],
                                          workloads.precision(self.workload))
        if item["kind"] == "derivative":
            return reference.check_derivative(item["expr"], item["point"], output["shadow"], item["env"])
        return None


def gate_records(workload: str, rounds: list, records: list, digests: dict) -> list[tuple[str, str, bool]]:
    """(key, reason, raised) for every record that fails the gate;
    ``raised`` says the program raised instead of giving an output."""
    gate = Gate(workload, digests)
    items = iter(item for items in rounds for item in items)
    failures = []
    for record in records:
        item = next(items)
        if item["key"] != record["key"]:
            raise BenchError("result records are out of step with the plan")
        reason = gate.check(item, record)
        if reason is not None:
            failures.append((record["key"], reason, record["error"] is not None))
    return failures


def tally(records: list[dict], failures: list[tuple[str, str, bool]]) -> tuple[int, dict]:
    """Distinct items attempted, and each failed item's first (reason,
    raised).  An item a run repeats (a covering workload's later passes)
    counts once: it gives the same output every time."""
    first_failure: dict = {}
    for key, reason, raised in failures:
        first_failure.setdefault(key, (reason, raised))
    return len({record["key"] for record in records}), first_failure


# -- metrics -----------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(n: int, preferred: float = 100.0) -> float:
    """The highest ladder percentile up to ``preferred`` with at least ten
    samples beyond it."""
    for p in (p for p in TAIL_LADDER if p <= preferred):
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def host_normalized(items: list[dict]) -> list[float]:
    """Item wall times rescaled by how fast the host ran at the time.

    Other tenants of a shared host slow it by up to 1.6x for stretches of
    seconds to minutes, which moves raw wall times between runs far more
    than the bounds allow.  After every item the child times ``probe``, a
    fixed slice of pure-Python work that shares no code with lcfield; an
    item's time is scaled by ``REFERENCE_PROBE_S`` over the median of the
    nine probes around it.  A slower program still reads slower in full;
    a slower host does not.
    """
    probes = [item["probe_s"] for item in items]
    return [
        item["s"] * REFERENCE_PROBE_S / statistics.median(probes[max(0, i - 4):i + 5])
        for i, item in enumerate(items)
    ]


def end_to_end(result: dict, setups: list[float], failed_ratio: float) -> tuple[dict, dict]:
    times = host_normalized(result["items"])
    tail_p = tail_percentile(len(times), TAIL_PERCENTILE[result["workload"]])
    probes = [item["probe_s"] for item in result["items"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": 1000 * statistics.median(times),
        "item_ms_tail": 1000 * percentile(times, tail_p),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "tail_percentile": tail_p,
        "samples": len(times),
        "samples_beyond_tail": sum(1 for t in times if 1000 * t > metrics["item_ms_tail"]),
        "rounds": result["rounds"],
        "setup_samples": len(setups),
        "failed_ratio": failed_ratio,
        "host_slowdown_median": statistics.median(probes) / REFERENCE_PROBE_S,
        "raw_items_per_s": len(times) / sum(item["s"] for item in result["items"]),
    }
    return metrics, notes


def _median_spawn_s(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       env=_child_env(), cwd=str(ROOT), timeout=60)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def cli_startup_s(repeats: int = 5) -> float:
    """A fresh ``python -m lcfield.cli`` doing trivial work, minus a bare
    ``python -c pass``."""
    cli = _median_spawn_s([sys.executable, "-m", "lcfield.cli", "eval", "1"], repeats)
    bare = _median_spawn_s([sys.executable, "-c", "pass"], repeats)
    return cli - bare


# -- one workload ------------------------------------------------------------

# Each ratio and share, with the metric that is its base.
RATIO_BASES = {
    "core.us_per_call": "core.calls",
    "dsl.transfer.evals_per_check": "dsl.transfer.checks",
    "dsl.transfer.witness_found_ratio": "dsl.transfer.non_identities",
    "trace.overhead_ratio": "trace.untraced_s",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    work = ROOT / ".perfbench_work" / workload
    rounds = workloads.plan_rounds(workload, seed, ROOT, seconds)
    inputs = workloads.inputs_hash(rounds)
    plan = write_plan(workload, rounds, seconds, trace, work)
    if trace:
        result, setups = run_child(plan, work, 1)
    else:
        result, setups = run_child(plan, work, SETUP_SAMPLES, SETUP_BUDGET_S)
    gate_began = time.perf_counter()
    failures = gate_records(workload, rounds, result["items"], reference.load_digests())
    gate_s = time.perf_counter() - gate_began
    if trace:
        # The untraced pass ran the same items; count only what it adds.
        raised = {key for key, _, _ in failures}
        failures += [(u["key"], f"untraced: {u['error']}", True) for u in result["untraced"]
                     if u["error"] is not None and u["key"] not in raised]
    attempted, first_failure = tally(result["items"], failures)
    failed = len(first_failure)
    wrong = sum(1 for _, raised in first_failure.values() if not raised)
    print(f"workload {workload}: seed {seed}, inputs sha256 {inputs}, {result['rounds']} rounds, "
          f"{len(result['items'])} items ({attempted} distinct){' (plan used up)' if result['exhausted'] else ''}, "
          f"gate {gate_s:.1f} s; {failed} failed: {failed - wrong} raised, {wrong} wrong", file=out)
    for key, (reason, _) in list(first_failure.items())[:20]:
        print(f"  FAILED {key}: {reason}", file=out)
    summary = {"workload": workload, "seed": seed, "inputs_sha256": inputs, "attempted": attempted,
               "failed": failed, "exhausted": result["exhausted"]}
    if trace:
        layers = dict(result["layers"])
        layers["cli.startup_s"] = cli_startup_s()
        # Both passes rescaled like the end-to-end item times.
        layers["trace.untraced_s"] = sum(host_normalized(result["untraced"]))
        layers["trace.traced_s"] = sum(host_normalized(result["items"]))
        layers["trace.overhead_ratio"] = layers["trace.traced_s"] / layers["trace.untraced_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        for name, entry in metrics.items():
            base = RATIO_BASES.get(name) or ("trace.item_s" if name.startswith("share.") else None)
            note = f"   (base {base} = {layers[base]:.6g})" if base else ""
            print(f"  {name:38s} {entry['value']:>14.6g} {entry['unit']:<12s}{note}", file=out)
        summary["spans_file"] = str(work / "spans.csv.gz")
    else:
        values, notes = end_to_end(result, setups, failed / attempted)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        for name, entry in metrics.items():
            print(f"  {name:14s} {entry['value']:>12.6g} {entry['unit']}", file=out)
        print(f"  {'failed_ratio':14s} {notes['failed_ratio']:>12.6g} {FAILED_RATIO_UNIT}", file=out)
        print(f"  {notes['samples']} items in {notes['rounds']} rounds; tail is p{notes['tail_percentile']:g} "
              f"({notes['samples_beyond_tail']} beyond it); set-up median of {notes['setup_samples']}", file=out)
        print(f"  host ran {notes['host_slowdown_median']:.3f}x the reference probe time (median); "
              f"raw items_per_s {notes['raw_items_per_s']:.6g}", file=out)
        summary.update(notes)
    summary["metrics"] = metrics
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    # An item that raised is a failed operation; ``correct`` says that no
    # output the program did give is wrong.
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float) -> int:
    rows = []
    for workload in WORKLOADS:
        outcome = run_workload(workload, seed, seconds, trace=False, out=sys.stderr)
        rows.append((workload, outcome))
    names = list(END_TO_END_UNITS) + ["failed_ratio"]
    header = f"{'workload':16s}" + "".join(f"{n:>16s}" for n in names)
    units = f"{'':16s}" + "".join(f"{'[' + (END_TO_END_UNITS.get(n) or FAILED_RATIO_UNIT) + ']':>16s}" for n in names)
    print(header)
    print(units)
    for workload, outcome in rows:
        values = [outcome["metrics"][n]["value"] for n in END_TO_END_UNITS]
        values.append(outcome["failed"] / outcome["attempted"])
        print(f"{workload:16s}" + "".join(f"{v:>16.6g}" for v in values))
    print(json.dumps({w: o for w, o in rows}))
    return 0 if all(o["correct"] for _, o in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOADS)
    target.add_argument("--all", action="store_true", help="run every workload, untraced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        if args.all:
            return run_all(args.seed, args.seconds)
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

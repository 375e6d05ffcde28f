"""The benchmark's own tests.

    python3 -m pytest perfbench

They cover the generators' determinism, the printed metrics and their
units, and the correctness gate's power to reject wrong outputs.  The
two short real runs spawn child interpreters and take a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.plan_rounds(workload, 7, run.ROOT)
    again = workloads.plan_rounds(workload, 7, run.ROOT)
    other = workloads.plan_rounds(workload, 8, run.ROOT)
    assert first == again
    assert workloads.inputs_hash(first) == workloads.inputs_hash(again)
    assert workloads.inputs_hash(first) != workloads.inputs_hash(other)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_items_depend_only_on_their_index(workload):
    generate = workloads.GENERATORS[workload]
    assert [generate(i) for i in range(40)] == [generate(i) for i in range(40)]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_every_round_holds_one_item_of_each_stratum(workload):
    strata = len(workloads.STRATA[workload])
    for items in workloads.plan_rounds(workload, 3, run.ROOT)[:5]:
        assert sorted(int(item["key"]) % strata for item in items) == list(range(strata))


def test_a_covering_plan_is_whole_passes_over_its_universe():
    per_pass = workloads.pass_rounds("series_t64")
    universe = list(range(workloads.UNIVERSE["series_t64"]))
    for seed in (1, 2):
        rounds = workloads.plan_rounds("series_t64", seed, run.ROOT)
        assert len(rounds) % per_pass == 0
        for start in range(0, len(rounds), per_pass):
            one_pass = rounds[start:start + per_pass]
            assert sorted(int(item["key"]) for items in one_pass for item in items) == universe


def test_canonical_pairs_are_half_identities_by_sympy():
    verdicts = [
        reference.is_identity(item["lhs"], item["rhs"])
        for item in map(workloads.canonical_item, range(len(workloads.CANONICAL_STRATA) * 2))
    ]
    assert sum(verdicts) * 2 == len(verdicts)


# -- printed metrics ----------------------------------------------------------


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _bench(trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "canonical", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    outcome, text = _bench(trace)
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 1
    for metric in BENCHMARK[section]:
        entry = outcome["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert metric["name"] in text
    assert set(outcome["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    if trace == 0:
        assert "failed_ratio" in text and "inputs sha256" in text


def test_host_normalized_cancels_a_slow_host_but_not_a_slow_item():
    ref = run.REFERENCE_PROBE_S
    steady = [{"s": 0.1, "probe_s": ref}] * 5
    slowed = [{"s": 0.16, "probe_s": 1.6 * ref}] * 5
    assert run.host_normalized(slowed) == pytest.approx(run.host_normalized(steady))
    one_slow_item = [dict(item) for item in steady]
    one_slow_item[2]["s"] = 0.3
    assert run.host_normalized(one_slow_item)[2] == pytest.approx(0.3)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(199) == 90.0
    assert run.tail_percentile(12) == 50.0


# -- the gate rejects wrong outputs -------------------------------------------


def _transfer_payload(identity, point=None, lhs="(x + 1)^2", rhs="x^2 + 1"):
    counterexample = None if point is None else {"point": point, "lhs": "", "rhs": ""}
    report = {"identity": identity, "finite_samples": [], "infinite_samples": [],
              "counterexample": counterexample, "seed": 0}
    return [{"line": 1, "lhs": lhs, "rhs": rhs, "report": report}]


def test_gate_accepts_a_right_transfer_report():
    assert reference.check_transfer("(x + 1)^2", "x^2 + 1", _transfer_payload(False, {"x": "1"}), 4) is None
    assert reference.check_transfer("x^2 - 1", "(x - 1)*(x + 1)", _transfer_payload(True), 0) is None


def test_gate_rejects_a_flipped_verdict():
    assert reference.check_transfer("(x + 1)^2", "x^2 + 1", _transfer_payload(True), 0) is not None
    assert reference.check_transfer("x^2 - 1", "(x - 1)*(x + 1)", _transfer_payload(False, {"x": "1"}), 4)
    assert reference.check_canonical("x^2 - 1", "(x - 1)*(x + 1)", {"identity": False}) is not None


def test_gate_rejects_a_wrong_witness():
    # (x + 1)^2 and x^2 + 1 agree at x = 0.
    assert reference.check_transfer("(x + 1)^2", "x^2 + 1", _transfer_payload(False, {"x": "0"}), 4)
    # A pole is no witness either.
    assert reference.witness_problem("1/x", "2/x", {"x": "0"}) is not None


def _series_json(terms, precision=16):
    return {"terms": [{"exp": e, "coef": c} for e, c in terms], "precision": precision}


def test_gate_rejects_an_altered_series_term():
    argument = [["0", "1"], ["1", "-1"]]  # 1 - eps; its inverse is 1 + eps + eps^2 + ...
    right = [(str(k), "1") for k in range(16)]
    assert reference.check_series("inverse", argument, _series_json(right), 16) is None
    altered = list(right)
    altered[5] = ("5", "2")
    assert reference.check_series("inverse", argument, _series_json(altered), 16) is not None
    square = [["0", "4"], ["1", "4"], ["2", "1"]]  # (2 + eps)^2
    assert reference.check_series("sqrt", square, _series_json([("0", "2"), ("1", "1")]), 16) is None
    assert reference.check_series("sqrt", square, _series_json([("0", "2"), ("1", "1"), ("3", "1/7")]), 16)


def test_gate_rejects_output_that_differs_from_its_digest():
    item = {"key": "0", "lhs": "x", "rhs": "x"}
    record = {"error": None, "output": {"identity": True, "lhs": "x", "rhs": "x"}}
    pinned = reference.digest(json.dumps(record["output"], sort_keys=True, separators=(",", ":")))
    assert run.Gate("canonical", {"canonical": {"0": pinned}}).check(item, record) is None
    record["output"]["rhs"] = "x + 0"
    assert run.Gate("canonical", {"canonical": {"0": pinned}}).check(item, record) is not None


def test_gate_checks_a_derivative_against_the_bound_series_shadow():
    y = [["0", "3"], ["1/3", "1"]]  # 3 + eps^(1/3): its standard part is 3
    assert reference.check_derivative("1/(x^2 + 1) + y*x", "2", "71/25", {"y": y}) is None
    assert reference.check_derivative("1/(x^2 + 1) + y*x", "2", "-4/25", {"y": y}) is not None


def test_a_raised_item_is_failed_but_not_wrong():
    rounds = [[{"key": "0", "lhs": "x", "rhs": "x"}, {"key": "1", "lhs": "x", "rhs": "x"}]]
    records = [{"key": "0", "error": "AssertionError: boom", "output": None},
               {"key": "1", "error": None, "output": {"identity": False, "lhs": "x", "rhs": "x"}}]
    failures = run.gate_records("canonical", rounds, records, {"canonical": {}})
    assert [(key, raised) for key, _, raised in failures] == [("0", True), ("1", False)]


def test_a_repeated_item_is_attempted_and_failed_once():
    records = [{"key": key} for key in ("0", "1", "0", "1", "2")]
    failures = [("0", "AssertionError: boom", True), ("0", "AssertionError: boom", True)]
    attempted, first_failure = run.tally(records, failures)
    assert attempted == 3
    assert first_failure == {"0": ("AssertionError: boom", True)}

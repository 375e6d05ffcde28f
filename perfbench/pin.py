"""Pin the rendered output of every universe item as a digest.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload's whole universe once (for ``transfer_corpus``, the
shipped corpora under every sampling seed), checks each output with the
references in ``reference.py``, and writes the digests of those that
pass to ``digests.json``.  An output that fails a reference is not
pinned and is listed instead; the benchmark then counts it as failed.
Run this only at a commit whose outputs are the ones to keep.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from reference import DIGESTS_PATH, digest


def universe_rounds(workload: str) -> list[list[dict]]:
    if workload == "transfer_corpus":
        entries = workloads.corpus_entries(run.ROOT)
        return [
            [dict(e, id=f"{e['corpus']}:{e['line']}", seed=s, key=f"{s}:{e['corpus']}:{e['line']}")
             for e in entries]
            for s in workloads.SAMPLING_SEEDS
        ]
    generate = workloads.GENERATORS[workload]
    return [[dict(generate(i), key=str(i)) for i in range(workloads.UNIVERSE[workload])]]


def pin(workload: str) -> tuple[dict, list]:
    rounds = universe_rounds(workload)
    work = run.ROOT / ".perfbench_work" / f"pin-{workload}"
    plan = run.write_plan(workload, rounds, 1e9, False, work)
    result, _ = run.run_child(plan, work, 1, timeout=3600)
    gate = run.Gate(workload, {})
    items = [item for items in rounds for item in items]
    pinned, refused = {}, []
    for item, record in zip(items, result["items"]):
        reason = record["error"] or gate.reference_check(item, record["output"])
        if reason is None:
            pinned[item["key"]] = digest(json.dumps(record["output"], sort_keys=True, separators=(",", ":")))
        else:
            refused.append((item["key"], reason))
    return pinned, refused


def main(argv: list[str]) -> int:
    chosen = argv or list(workloads.WORKLOADS)
    digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    status = 0
    for workload in chosen:
        pinned, refused = pin(workload)
        digests[workload] = pinned
        print(f"{workload}: pinned {len(pinned)}, refused {len(refused)}")
        for key, reason in refused:
            print(f"  {key}: {reason}")
            status = 1
    DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

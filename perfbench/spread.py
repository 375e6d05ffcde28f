"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds 20] [--first-seed 1]
                                [--out FILE] [--against FILE] [WORKLOAD ...]

Runs each workload ``--runs`` times, each with another seed, and prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median.  ``--out`` also writes the values and
each run's failed share.  ``--against`` compares every median with the
one in an earlier ``--out`` file and flags a change beyond the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {}
    status = 0
    for workload in args.workloads:
        runs = [one_run(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        if not all(r["correct"] for r in runs):
            status = 1
        report[workload] = {"failed_ratio": [r["failed"] / r["attempted"] for r in runs]}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            report[workload][name] = {"median": median, "spread": share, "values": values}
            flag = "" if share < bound / 3 else ("  <- above bound/3" if share <= bound else "  <- ABOVE BOUND")
            if name in earlier.get(workload, {}):
                change = median / earlier[workload][name]["median"] - 1
                flag += f"  change {change:+.4f}" + ("  <- CHANGE ABOVE BOUND" if abs(change) > bound else "")
            print(f"{workload:16s} {name:14s} median {median:12.6g}  spread {share:7.4f}  "
                  f"(bound {bound}){flag}", flush=True)
        print(f"{workload:16s} failed_ratio   median {statistics.median(report[workload]['failed_ratio']):12.6g}",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())

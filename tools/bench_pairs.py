"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload zeroshot-eval --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` from the root of each checkout, the parent first in even pairs and
the change first in odd ones; T is the `run_seconds` of the change's
BENCHMARK.json. For each end-to-end metric that file lists, the tool prints
both sides' medians and quartiles, the pairs the change won (a tie counts for
neither side) and whether a gain holds: at least ten pairs ran, the change won
at least nine tenths of them, the medians are further apart, in the metric's
better direction, than the parent's quartiles, and every run of the change
was `correct` (run.py's flag: no failed operation and every metric finite).
A run that exits non-zero counts as a run of its side that is not `correct`:
the tool prints its exit code and the tail of its stderr, leaves its pair
out of the medians and the wins, and goes on. It also prints each side's
failed operations and runs that exited non-zero. It uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10
WIN_SHARE = 0.9
STDERR_TAIL = 5  # lines of a failing run's stderr printed


def result_of(stdout: str) -> dict:
    """The result object `perfbench/run.py` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_result(done: subprocess.CompletedProcess, side: str) -> dict:
    """A side's result from its finished `perfbench/run.py`, printed as a
    comment line. A run that exited non-zero is not `correct` and has no
    metrics; its exit code and the tail of its stderr are printed instead."""
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-STDERR_TAIL:]
        print(f"# {side}: exited {done.returncode}", *(f"#   {line}" for line in tail), sep="\n", flush=True)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": None}
    result = result_of(done.stdout)
    print(f"# {side}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}), flush=True)
    return result


def run_pairs(run, pairs: int) -> dict[str, list[dict]]:
    """Each side's results from `run(side)`, pair by pair, alternating which side runs first."""
    results = {side: [] for side in SIDES}
    for pair in range(pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            results[side].append(run(side))
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric (`name`, `unit`, `better` as in
    BENCHMARK.json) over the pairs of result objects in which both runs
    finished, then each side's failures."""
    lines = []
    sound = all(r["correct"] for r in change)
    finished = [(x, y) for x, y in zip(parent, change, strict=True) if x["metrics"] and y["metrics"]]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        if not finished:
            lines.append(f"{name}: no pair of runs finished, gain not shown")
            continue
        a = [x["metrics"][name]["value"] for x, _ in finished]
        b = [y["metrics"][name]["value"] for _, y in finished]
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(a), quartiles(b)
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b, strict=True))
        holds = sound and len(a) >= MIN_PAIRS and wins >= WIN_SHARE * len(a) and sign * (cm - pm) > pq3 - pq1
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {pm:.6g} [{pq1:.6g}, {pq3:.6g}], change {cm:.6g} [{cq1:.6g}, {cq3:.6g}], "
            f"change/parent {cm / pm:.4f}, change won {wins} of {len(a)}, gain {'holds' if holds else 'not shown'}"
        )
    for side, runs in zip(SIDES, (parent, change)):
        line = f"{side}: {sum(r['failed'] for r in runs)} failed of {sum(r['attempted'] for r in runs)} attempted"
        exits = sum(r["metrics"] is None for r in runs)
        lines.append(line + (f", {exits} of {len(runs)} runs exited non-zero" if exits else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", default=".", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    def run(side: str) -> dict:
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed)]
        command += ["--seconds", str(seconds), "--trace", "0"]
        return run_result(subprocess.run(command, cwd=roots[side], capture_output=True, text=True), side)

    results = run_pairs(run, args.pairs)
    print(f"{args.workload}, seed {args.seed}, {seconds:g} s runs, {args.pairs} pairs")
    for line in summary(bench["end_to_end"], results["parent"], results["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

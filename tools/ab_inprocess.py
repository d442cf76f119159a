"""Compare two checkouts' training and evaluation time in one process, method by method.

    python3 tools/ab_inprocess.py --parent ../parent --change . --methods fedjets fedmix --rounds 20 --reps 10

Separate benchmark runs spread more widely than a per-method effect of a few
percent; two sides stepped in turn in one process see the same machine. The
tool copies each checkout's `src/fedjets` into a temporary directory under
the package names `fedjets_parent` and `fedjets_change` (the package imports
itself by relative imports only, so the copy runs the same code) and pins
BLAS to one thread before numpy is imported. Each side builds its own
synth-10 context. Per method, each side starts from its initial server
state, and each of `--reps` blocks steps it `--rounds` rounds and then runs
one `evaluate_round`, the parent first in even blocks and the change first
in odd ones. The tool prints, per method, each side's median block time,
the median of the per-block change/parent ratios, the blocks the change
won, and whether the two sides' final expert rows and last record line are
identical.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

SIDES = ("parent", "change")
METHODS = ("fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix")


@contextmanager
def sides(roots: dict[str, Path]):
    """Each side's copy of its checkout's `src/fedjets`, imported as `fedjets_<side>`."""
    names = {side: f"fedjets_{side}" for side in roots}
    with tempfile.TemporaryDirectory() as tmp:
        for side, root in roots.items():
            shutil.copytree(root / "src" / "fedjets", Path(tmp) / names[side])
        sys.path.insert(0, tmp)
        try:
            yield {side: importlib.import_module(name) for side, name in names.items()}
        finally:
            sys.path.remove(tmp)
            for name in [n for n in sys.modules if n.split(".")[0] in names.values()]:
                del sys.modules[name]


def compare(packages: dict, method: str, rounds: int, reps: int) -> str:
    """One method's line: both sides stepped in alternating blocks of `rounds` rounds and one evaluation."""
    runs = {}
    for side, pkg in packages.items():
        ctx = pkg.experiment.build_context(pkg.benchmarks.synth10_config(federation={"method": method}))
        state, step = pkg.baselines.make_stepper(ctx, method)
        runs[side] = {"pkg": pkg, "ctx": ctx, "state": state, "step": step, "t": 0, "ms": [], "record": None}

    def block(run):
        start = time.perf_counter()
        for _ in range(rounds):
            run["state"], _ = run["step"](run["state"], run["t"])
            run["t"] += 1
        record = run["pkg"].evaluation.evaluate_round(run["ctx"], run["state"], method, run["t"], 0.0, 0.0)
        run["ms"].append(1e3 * (time.perf_counter() - start))
        run["record"] = record.to_json_line()

    for rep in range(reps):
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            block(runs[side])
    parent, change = runs["parent"], runs["change"]
    ratios = [c / p for p, c in zip(parent["ms"], change["ms"])]
    wins = sum(c < p for p, c in zip(parent["ms"], change["ms"]))
    rows = [[p.values for p in run["state"].expert_params] for run in (parent, change)]
    same_rows = len(rows[0]) == len(rows[1]) and all(a.tobytes() == b.tobytes() for a, b in zip(*rows))
    return (
        f"{method}: parent {statistics.median(parent['ms']):.3f} ms, change {statistics.median(change['ms']):.3f} ms "
        f"per {rounds} rounds + 1 evaluation, change/parent {statistics.median(ratios):.4f} (median of {reps} "
        f"paired ratios), change won {wins} of {reps}, expert rows {'identical' if same_rows else 'DIFFER'}, "
        f"record line {'identical' if parent['record'] == change['record'] else 'DIFFERS'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", default=".", help="root of the changed checkout")
    parser.add_argument("--methods", nargs="+", choices=METHODS, default=list(METHODS))
    parser.add_argument("--rounds", type=int, default=20, help="training rounds per block")
    parser.add_argument("--reps", type=int, default=10, help="blocks per side and method")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # takes effect only if numpy is not yet imported
    with sides({"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}) as packages:
        for method in args.methods:
            print(compare(packages, method, args.rounds, args.reps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

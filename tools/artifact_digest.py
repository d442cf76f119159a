"""Digest of the synth-10 run artifacts of every method.

    python3 tools/artifact_digest.py --rounds 30 --out /tmp/digest

Run from the root of a checkout; fedjets is imported from that checkout's
`src/`. Each of the five methods trains `--rounds` rounds on synth-10 with
BLAS pinned to one thread and writes its artifacts under `--out/<method>/`.
Then each method trains again under a scenario schedule, one range over all
rounds whose active set is anchors 0 and 1 plus normal clients 5..29 with
two anchors a round, and writes under `--out/<method>-scheduled/`. The
schedule restricts the FedJETs anchors and normal clients and the
baselines' pool. Last, each method trains on a Dirichlet partition with
`local_iterations` unset, so shard sizes, rows per step and step counts
differ from client to client, and writes under `--out/<method>-dirichlet/`.
After each run, `fedjets eval` scores the run's `state.ckpt` under its
`config.echo.json` and writes `eval.json` (plus `eval.routing.csv` when it
reports routing) next to them. The tool prints one `sha256  run/file` line
per file, the run's artifacts first, so two checkouts produce byte-identical
files exactly when their outputs are identical:
`diff <(python3 tools/artifact_digest.py ...) <(...)`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("metrics.jsonl", "metrics.csv", "comm.csv", "state.ckpt", "config.echo.json")
EVAL_REPORT, EVAL_ROUTING = "eval.json", "eval.routing.csv"
METHODS = ("fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, required=True, help="training rounds per method")
    parser.add_argument("--out", required=True, help="directory for the per-method artifacts")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path.insert(0, str(ROOT / "src"))
    from fedjets import benchmarks, cli, experiment

    out = Path(args.out)
    schedule = {"ranges": [{"start": 0, "end": args.rounds, "active_clients": [0, 1, *range(5, 30)]}]}
    runs = [(method, {"method": method}, None) for method in METHODS]
    runs += [(f"{method}-scheduled", {"method": method, "anchors_per_round": 2}, schedule) for method in METHODS]
    runs += [(f"{method}-dirichlet", {"method": method}, None) for method in METHODS]
    for run, federation, scenario in runs:
        extra = {}
        if run.endswith("-dirichlet"):
            extra = {"data": {"partition_strategy": "dirichlet"}, "training": {"local_iterations": None}}
        cfg = benchmarks.synth10_config(federation={**federation, "rounds": args.rounds}, scenario=scenario, **extra)
        experiment.run_to_directory(cfg, out / run)
        (out / run / EVAL_ROUTING).unlink(missing_ok=True)  # written only when routing is reported
        files = [str(out / run / name) for name in ("config.echo.json", "state.ckpt", EVAL_REPORT)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["eval", "--config", files[0], "--state", files[1], "--report", files[2]])
        if code != 0:
            raise SystemExit(f"{run}: fedjets eval exited {code}")
        routing = [EVAL_ROUTING] if (out / run / EVAL_ROUTING).exists() else []
        for name in [*ARTIFACTS, EVAL_REPORT, *routing]:
            digest = hashlib.sha256((out / run / name).read_bytes()).hexdigest()
            print(f"{digest}  {run}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test: tools/artifact_digest.py prints the same digests on a rerun, for every run and its eval."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METHODS = ("fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix")
ARTIFACTS = ("metrics.jsonl", "metrics.csv", "comm.csv", "state.ckpt", "config.echo.json")


def test_artifact_digest_reruns_identically(tmp_path):
    outputs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "artifact_digest.py"), "--rounds", "1", "--out", str(tmp_path / name)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = [line.split("  ") for line in outputs[0].splitlines()]
    runs = [*METHODS, *(f"{m}-scheduled" for m in METHODS), *(f"{m}-dirichlet" for m in METHODS)]
    # each run's artifacts, then its eval report, and the routing CSV where fedjets reports routing
    files = {r: [*ARTIFACTS, "eval.json", *(["eval.routing.csv"] if r.startswith("fedjets") else [])] for r in runs}
    assert [path for _, path in lines] == [f"{r}/{f}" for r in runs for f in files[r]]
    assert all(len(digest) == 64 for digest, _ in lines)

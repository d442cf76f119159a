"""Smoke tests of the tools around the library: tools/artifact_digest.py
prints the same digests on a rerun, for every run and its eval; the
benchmark's tracer (perfbench/tracer.py) wraps a run without changing it;
every benchmark workload (perfbench/workloads.py) runs without a failure."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedjets
from fedjets import benchmarks, experiment

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


def test_traced_run_equals_untraced_run():
    """The benchmark's traced run goes through the same code: with the tracer
    installed around `run_training` (rounds and the closing evaluation), the
    metrics and the state are unchanged, and the engine's FLOPs are counted."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ctx = experiment.build_context(benchmarks.synth10_config(federation={"rounds": 2}))
    state, history, ledger = experiment.run_training(ctx)
    tracer = tracing.Tracer(fedjets)
    with tracer:
        traced_state, traced_history, traced_ledger = experiment.run_training(ctx)
    assert traced_history == history and traced_ledger.rows == ledger.rows
    nets = [p.values for p in (*state.expert_params, state.gate_params)]
    traced_nets = [p.values for p in (*traced_state.expert_params, traced_state.gate_params)]
    assert all(map(np.array_equal, traced_nets, nets))
    profile = tracer.profile()
    assert profile.calls["evaluation.evaluate_round"] == 1
    assert profile.counters["nn.flop"] > 0


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workload_runs_without_failures(tmp_path, name):
    """The benchmark's set-up, its untimed preparation and two operations
    (two episodes of a training workload) of each workload, at 2 rounds,
    count no failed operation: the library still serves what it calls."""
    workload = WORKLOADS.WORKLOADS[name](1, tmp_path, rounds=2)
    workload.setup()
    phase = WORKLOADS.Phase()
    workload.prepare(phase)
    for _ in range(2):
        if hasattr(workload, "episode"):
            workload.episode(phase)
        else:
            workload.operation(phase)
    assert phase.attempted > 0
    assert phase.failed == 0, "\n".join(phase.errors)

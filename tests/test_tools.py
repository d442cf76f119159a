"""Smoke tests of the tools around the library: tools/artifact_digest.py
prints the same digests on a rerun, for every run and its eval; the
benchmark's tracer (perfbench/tracer.py) wraps a run without changing it;
every benchmark workload (perfbench/workloads.py) runs without a failure;
tools/bench_pairs.py alternates its runs and summarizes canned results by
the gain rule (it never runs the benchmark here); tools/ab_inprocess.py
compares this checkout with itself in this process."""

from __future__ import annotations

import importlib.util
import json
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


def load_module(directory: str, name: str):
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_module("perfbench", "workloads")


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


BENCH_PAIRS = load_module("tools", "bench_pairs")
END_TO_END = [
    {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]
PARENT_MS = [7.0, 7.2, 6.8, 7.1, 6.9, 7.0, 7.3, 6.7, 7.0, 7.1]  # median 7.0, quartiles 6.925 and 7.1


def canned(op_ms: float, failed: int = 0) -> dict:
    """The result `perfbench/run.py` prints, read back from its stdout."""
    metrics = {"op_ms": {"value": op_ms, "unit": "ms"}, "samples_per_s": {"value": 1000.0 / op_ms, "unit": "1/s"}}
    line = json.dumps({"correct": failed == 0, "attempted": 50, "failed": failed, "metrics": metrics})
    return BENCH_PAIRS.result_of(f'# environment {{"python": "3"}}\n# op_ms = {op_ms:.6g} ms\n{line}\n')


def test_bench_pairs_alternates_which_side_runs_first():
    order = []
    results = BENCH_PAIRS.run_pairs(lambda side: order.append(side) or canned(len(order)), 3)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["metrics"]["op_ms"]["value"] for r in results["change"]] == [2, 3, 6]


@pytest.mark.parametrize(
    "change_ms, wins, holds",
    [
        ([ms - 0.5 for ms in PARENT_MS[:9]] + [PARENT_MS[9] + 0.1], 9, True),  # 9 of 10 won, gap 0.5 > 0.175
        ([ms - 0.5 for ms in PARENT_MS[:8]] + PARENT_MS[8:], 8, False),  # two ties win for neither side
        ([ms - 0.1 for ms in PARENT_MS], 10, False),  # every pair won, but within the parent's quartiles
        ([ms - 0.5 for ms in PARENT_MS[:9]], 9, False),  # every pair won, but only nine pairs ran
    ],
    ids=["gain", "eight-of-ten", "inside-the-spread", "nine-pairs"],
)
def test_bench_pairs_summary_applies_the_gain_rule(change_ms, wins, holds):
    parent, change = [canned(ms) for ms in PARENT_MS[: len(change_ms)]], [canned(ms) for ms in change_ms]
    lines = BENCH_PAIRS.summary(END_TO_END, parent, change)
    verdict = f"change won {wins} of {len(change_ms)}, gain {'holds' if holds else 'not shown'}"
    assert lines[0].startswith("op_ms (ms, lower is better): parent ")
    assert lines[0].endswith(verdict) and lines[1].endswith(verdict)  # samples_per_s, higher is better, moves with it
    attempted = 50 * len(change_ms)
    assert lines[2:] == [f"parent: 0 failed of {attempted} attempted", f"change: 0 failed of {attempted} attempted"]


@pytest.mark.parametrize(
    "side, failed, holds",
    [("change", 1, False), ("change", 0, False), ("parent", 1, True)],
    ids=["change-failed", "change-not-finite", "parent-failed"],
)
def test_bench_pairs_gain_needs_every_change_run_correct(side, failed, holds):
    """Ten pairs that show a gain (each change run 0.5 ms faster) lose it
    when one run of the change is not correct: it failed an operation, or a
    metric read non-finite. A failing parent run does not count against it."""
    runs = {"parent": [canned(ms) for ms in PARENT_MS], "change": [canned(ms - 0.5) for ms in PARENT_MS]}
    spoiled = canned(runs[side][3]["metrics"]["op_ms"]["value"], failed=failed)
    runs[side][3] = {**spoiled, "correct": False}
    lines = BENCH_PAIRS.summary(END_TO_END, runs["parent"], runs["change"])
    verdict = f"change won 10 of 10, gain {'holds' if holds else 'not shown'}"
    assert lines[0].endswith(verdict) and lines[1].endswith(verdict)
    assert lines[2 + BENCH_PAIRS.SIDES.index(side)] == f"{side}: {failed} failed of 500 attempted"


def test_bench_pairs_quartiles_interpolate():
    assert BENCH_PAIRS.quartiles(PARENT_MS) == pytest.approx((6.925, 7.0, 7.1))
    assert BENCH_PAIRS.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_bench_pairs_summary_line_and_failures():
    parent, change = [canned(8.0), canned(6.0)], [canned(5.0, failed=2), canned(7.0)]
    assert BENCH_PAIRS.summary(END_TO_END[:1], parent, change) == [
        "op_ms (ms, lower is better): parent 7 [6.5, 7.5], change 6 [5.5, 6.5], change/parent 0.8571, "
        "change won 1 of 2, gain not shown",
        "parent: 0 failed of 100 attempted",
        "change: 2 failed of 100 attempted",
    ]


def test_bench_pairs_a_run_that_exits_non_zero_is_not_correct(capsys):
    """A side's run that exits non-zero loses no finished pair: it prints its
    exit code and stderr tail, counts as a run of its side that is not
    correct, and the summary reads the pairs that finished."""
    stderr = "".join(f"line {i}\n" for i in range(8)) + "ImportError: cannot import name 'top_experts'\n"
    done = subprocess.CompletedProcess(["perfbench/run.py"], 1, stdout="", stderr=stderr)
    failed = BENCH_PAIRS.run_result(done, "change")
    assert failed["correct"] is False and failed["metrics"] is None
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "# change: exited 1"
    assert printed[1:] == [f"#   line {i}" for i in range(4, 8)] + ["#   ImportError: cannot import name 'top_experts'"]
    ok = subprocess.CompletedProcess(["perfbench/run.py"], 0, stdout=json.dumps(canned(7.0)) + "\n", stderr="")
    assert BENCH_PAIRS.run_result(ok, "parent") == canned(7.0)
    assert capsys.readouterr().out.startswith("# parent: {")
    feeds = {"parent": iter([canned(ms) for ms in PARENT_MS[:3]]), "change": iter([canned(6.5), failed, canned(6.3)])}
    results = BENCH_PAIRS.run_pairs(lambda side: next(feeds[side]), 3)
    lines = BENCH_PAIRS.summary(END_TO_END, results["parent"], results["change"])
    assert lines[0].endswith("change won 2 of 2, gain not shown")
    assert lines[2:] == ["parent: 0 failed of 150 attempted", "change: 0 failed of 100 attempted, 1 of 3 runs exited non-zero"]
    parent_only = BENCH_PAIRS.summary(END_TO_END, [canned(7.0)], [failed])
    assert parent_only[:2] == [f"{m['name']}: no pair of runs finished, gain not shown" for m in END_TO_END]


AB_INPROCESS = load_module("tools", "ab_inprocess")


def test_ab_inprocess_finds_this_checkout_identical_to_itself(capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--methods", "fedjets", "--rounds", "2", "--reps", "2"]
    assert AB_INPROCESS.main(argv) == 0
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith("fedjets: parent ") and " ms per 2 rounds + 1 evaluation, change/parent " in line
    assert "(median of 2 paired ratios), change won " in line
    assert line.endswith(" of 2, expert rows identical, record line identical")
    assert not any(name.split(".")[0] in ("fedjets_parent", "fedjets_change") for name in sys.modules)

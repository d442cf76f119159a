"""Tests of the benchmark's tracer and workloads. They are kept out of the
repository's default test run; run them with

    python3 -m pytest -q perfbench/check_tracer.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

fedjets = run.import_fedjets()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fedjets import benchmarks, checkpoint, evaluation, experiment, gating, metrics  # noqa: E402

ROUNDS = 2
SEED = 1


def run_episode(workload, traced: bool):
    """Set up and prepare untraced, then run one episode (training) or one
    operation (evaluation), traced or not; returns (phase, profile)."""
    workload.setup()
    prep = workloads.Phase()
    workload.prepare(prep)
    assert prep.errors == []
    phase = workloads.Phase()
    tracer = tracing.Tracer(fedjets)
    if traced:
        tracer.install()
    try:
        if isinstance(workload, workloads.TrainWorkload):
            assert workload.episode(phase)
        else:
            workload.operation(phase)
    finally:
        tracer.uninstall()
    assert not [e for e in phase.errors if "Traceback" in e]
    return phase, tracer.profile()


def test_install_rebinds_every_binding_site():
    originals = tracing.public_functions(fedjets)
    before = tracing.binding_sites(fedjets, originals)
    # names other modules import directly, which patching `gating`/`nn` alone would miss
    for module, name in [
        (evaluation, "select_topk"),
        (evaluation, "gate_scores"),
        (evaluation, "embed_inputs"),
        (evaluation, "model_accuracy"),
        (checkpoint, "spec_hash"),
    ]:
        assert getattr(module, name) in originals
    with tracing.Tracer(fedjets):
        assert tracing.binding_sites(fedjets, originals) == []
        assert evaluation.select_topk is gating.select_topk
        assert gating.select_topk not in originals
    assert tracing.binding_sites(fedjets, originals) == before


def test_fedjets_call_counts_match_closed_forms(tmp_path):
    phase, profile = run_episode(workloads.FedjetsTrain(SEED, tmp_path, ROUNDS), traced=True)
    test_clients = benchmarks.synth10_config().data.num_test_clients
    r = ROUNDS
    assert profile.calls["runtime.anchor_client_update"] == 5 * r
    assert profile.calls["runtime.normal_client_update"] == 5 * r
    assert profile.calls["runtime.mixture_loss_and_grads"] == 100 * r
    assert profile.calls["runtime.aggregate"] == r
    assert profile.calls["runtime.plan_round"] == r
    # planning picks 5 normals per round; the one evaluation scores each test
    # client twice (zero-shot and routing)
    assert profile.calls["gating.select_topk"] == 5 * r + 2 * test_clients
    assert profile.calls["evaluation.evaluate_round"] == 1
    assert profile.calls["checkpoint.save_state"] == 1
    # k=2 experts plus the gate, each with its own forward and backward
    assert profile.per_call_in_mixture("nn.forward") == 3
    assert profile.per_call_in_mixture("nn.backward_from_output_grad") == 3
    assert profile.counters["runtime.aggregate.packets"] == 10 * r
    assert len(phase.op_s) == r


def test_baseline_call_counts_match_closed_forms(tmp_path):
    phase, profile = run_episode(workloads.BaselinesTrain(SEED, tmp_path, ROUNDS), traced=True)
    r = ROUNDS
    assert profile.calls["baselines.fedavg_like_round"] == 2 * r  # fedavg and fedprox
    assert profile.calls["baselines.ensemble_round"] == r
    assert profile.calls["baselines.fedmix_round"] == r
    assert profile.calls["baselines.fedmix_client_update"] == 10 * r
    # fedavg, fedprox and fedmix aggregate once a round; each of 2 ensemble members once
    assert profile.calls["runtime.aggregate"] == 5 * r
    assert profile.calls["runtime.mixture_loss_and_grads"] == 10 * 20 * r
    # fedmix mixes all M=5 experts plus its local gate
    assert profile.per_call_in_mixture("nn.forward") == 6
    assert profile.calls["evaluation.evaluate_round"] == 4
    assert len(phase.op_s) == r


def test_zeroshot_call_counts_match_closed_forms(tmp_path):
    _, profile = run_episode(workloads.ZeroShotEval(SEED, tmp_path, ROUNDS), traced=True)
    methods = len(workloads.METHODS)
    assert profile.calls["checkpoint.load_state"] == methods
    assert profile.calls["evaluation.evaluate_round"] == methods
    assert profile.calls["gating.select_topk"] == 2 * workloads.EVAL_TEST_CLIENTS
    assert profile.calls["runtime.mixture_loss_and_grads"] == 0


@pytest.mark.parametrize("workload_cls", [workloads.FedjetsTrain, workloads.BaselinesTrain])
def test_traced_episode_equals_untraced(workload_cls, tmp_path):
    outcomes = []
    for traced in (False, True):
        work_dir = tmp_path / str(traced)
        work_dir.mkdir()
        workload = workload_cls(SEED, work_dir, ROUNDS)
        run_episode(workload, traced)
        outcomes.append(workload.reference)
    plain, traced = outcomes
    assert plain.keys() == traced.keys()
    for method in plain:
        assert plain[method][0] == traced[method][0]  # the metrics record
        assert len(plain[method][1]) == len(traced[method][1])
        for a, b in zip(plain[method][1], traced[method][1]):
            assert np.array_equal(a, b)  # final server parameters


def test_quality_floors():
    def fedjets(global_acc, routing_acc):
        return metrics.MetricsRecord(20, "fedjets", global_acc, [global_acc] * 5, routing_acc, 0.0, 0.0)

    assert workloads.quality_problems(fedjets(0.97, 0.99), fedavg_acc=0.80) == []
    assert len(workloads.quality_problems(fedjets(0.97, 0.20), fedavg_acc=0.80)) == 1  # criterion 2
    assert len(workloads.quality_problems(fedjets(0.97, 0.99), fedavg_acc=0.91)) == 1  # criterion 3


def test_fedjets_ledger_closed_form():
    cfg = benchmarks.synth10_config()
    ctx = experiment.build_context(cfg)
    assert workloads.per_round_floats(cfg, ctx.sizes, "fedjets") == 36_600


@pytest.mark.parametrize("trace", [0, 1])
def test_output_lists_the_declared_metrics(trace, capsys):
    assert run.main(["--workload", "fedjets-train", "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] and result["failed"] == 0

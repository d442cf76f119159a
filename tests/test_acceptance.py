"""Acceptance criteria on the synth-10 benchmark.

Each criterion prints one pass/fail line (run with -s to see them live).
The heavy federated runs are memoized at module scope, so the whole file
costs a handful of 300-round synth-10 runs.
"""

from __future__ import annotations

import numpy as np

from conftest import (
    ce_grad,
    central_diff,
    ensemble_labels,
    kink_safe_net,
    loss_value,
    reference_common_expert_accuracy,
    rel_error,
)
from fedjets import benchmarks, data, evaluation, experiment, gating, nn, runtime
from fedjets.seeding import rng_stream

_CACHE: dict = {}


def cached_run(tag, **overrides):
    """Build context + run training once per (tag) and memoize."""
    if tag not in _CACHE:
        cfg = benchmarks.synth10_config(**overrides)
        ctx = experiment.build_context(cfg)
        state, history, ledger = experiment.run_training(ctx)
        _CACHE[tag] = (cfg, ctx, state, history, ledger)
    return _CACHE[tag]


def criterion(n: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {n}] {detail}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_gradient_correctness():
    """20 random seeded nets (<= 500 params), both loss kinds, max relative
    error vs central finite differences (h=1e-4) below 1e-4."""
    worst = 0.0
    for seed in range(10):
        for kind, head in [("ce_on_logits", "logits"), ("ce_on_mixture", "softmax")]:
            spec, params, x, y = kink_safe_net(seed, [6, 10, 5], head=head, n=5)
            assert spec.param_count() <= 500
            grad = ce_grad(spec, params, x, y, kind)
            fd = central_diff(
                lambda v: loss_value(spec, nn.ParamVector(v, spec), x, y),
                params.values,
                h=1e-4,
            )
            worst = max(worst, rel_error(grad, fd))
    ok = worst < 1e-4
    assert criterion(1, ok, f"gradient check worst relative error {worst:.2e} (need < 1e-4)")


def test_criterion_2_routing_specialization():
    """Final per-sample routing error on synth-10 below 5% (chance is 80%)."""
    _, ctx, state, history, _ = cached_run("fedjets-s1")
    err = evaluation.score_test_clients(ctx, state, "fedjets").average_error_rate
    ok = err < 0.05
    assert criterion(
        2, ok, f"routing error {err:.3%} (need < 5%; chance level is 80.0%)"
    )


def test_criterion_3_zero_shot_superiority():
    """FedJETs zero-shot beats FedAvg (same budget, same common expert init)
    by at least 10 points on the 10 unseen test clients."""
    _, _, _, hist_fj, _ = cached_run("fedjets-s1")
    _, _, _, hist_fa, _ = cached_run(
        "fedavg-s1", federation={"method": "fedavg", "expert_init": "from_common"}
    )
    fj, fa = hist_fj[-1].global_acc, hist_fa[-1].global_acc
    gap = fj - fa
    ok = gap >= 0.10
    assert criterion(
        3, ok, f"zero-shot fedjets {fj:.3f} vs fedavg {fa:.3f}, gap {gap:+.3f} (need >= +0.100)"
    )


def test_criterion_4_communication_accounting():
    """K/M payload ratio exact, plus a 3-round toy ledger against hand sums."""
    cfg = benchmarks.synth10_config(federation={"anchors_per_round": 0, "normals_per_round": 1})
    plan = runtime.RoundPlan(0, [], [40])
    sizes = runtime.ModelSizes(expert=1000, gate=0, common=777)
    costs = runtime.comm_cost(plan, cfg, sizes)
    ratio = costs["fedjets"][0] / costs["fedmix"][0]
    ratio_ok = ratio == 0.4

    toy = benchmarks.synth10_config(
        data={"train_per_class": 40, "test_per_class": 20, "num_clients": 12, "num_test_clients": 2},
        model={"pretrain_max_epochs": 4},
        federation={"rounds": 3, "anchors_per_round": 2, "normals_per_round": 3},
        training={"local_iterations": 2},
        eval={"interval": 3},
    )
    ctx = experiment.build_context(toy)
    _, _, ledger = experiment.run_training(ctx)
    s = ctx.sizes
    setup = toy.data.num_clients * s.common
    per_round = {
        "fedjets": 2 * (s.gate + s.expert) + 3 * (s.gate + 2 * s.expert),
        "fedmix": 5 * 5 * s.expert,
        "fedavg": 5 * s.expert,
        "fedprox": 5 * s.expert,
        "avg_ensemble": 5 * 2 * s.expert,
    }
    sums_ok = all(
        ledger.cumulative(m) == (setup + 3 * v, 3 * v) for m, v in per_round.items()
    )
    ok = ratio_ok and sums_ok
    assert criterion(
        4,
        ok,
        f"payload ratio {ratio} (need exactly 0.4); 3-round ledger hand-sum match: {sums_ok}",
    )


def test_criterion_5_baseline_identities():
    """fedprox(mu=0) bit-equals fedavg; fedmix(M=1) trajectory-equals fedavg;
    an ensemble of identical models equals the single model. Exact."""
    short = dict(
        data={"train_per_class": 60, "test_per_class": 30, "num_clients": 16, "num_test_clients": 3},
        model={"pretrain_max_epochs": 6},
        training={"local_iterations": 4, "lr": 0.05},
        eval={"interval": 3},
    )
    base_fed = {"rounds": 9, "anchors_per_round": 2, "normals_per_round": 3}
    _, ctx_avg, st_avg, h_avg, _ = cached_run("id-fedavg", **short, federation={"method": "fedavg", **base_fed})
    _, _, st_prox, h_prox, _ = cached_run(
        "id-fedprox", **short, federation={"method": "fedprox", "fedprox_mu": 0.0, **base_fed}
    )
    prox_ok = all(
        a.to_json_line().replace('"fedavg"', "@") == p.to_json_line().replace('"fedprox"', "@")
        for a, p in zip(h_avg, h_prox)
    ) and np.array_equal(st_avg.expert_params[0].values, st_prox.expert_params[0].values)

    m1 = {"rounds": 9, "num_experts": 1, "top_k": 1, "anchors_per_round": 0, "normals_per_round": 4}
    m1_data = dict(short)
    m1_data["data"] = {**short["data"]}
    _, _, st_avg1, h_avg1, _ = cached_run("id-fedavg-m1", **m1_data, federation={"method": "fedavg", **m1})
    _, _, st_mix1, h_mix1, _ = cached_run("id-fedmix-m1", **m1_data, federation={"method": "fedmix", **m1})
    mix_ok = all(
        a.to_json_line().replace('"fedavg"', "@") == m.to_json_line().replace('"fedmix"', "@")
        for a, m in zip(h_avg1, h_mix1)
    ) and np.array_equal(st_avg1.expert_params[0].values, st_mix1.expert_params[0].values)

    params = st_avg.expert_params[0]
    spec = params.spec
    x = rng_stream(123, "ens").normal(size=(64, spec.input_dim))
    single = nn.forward(spec, params.values, x).argmax(axis=1)
    ens_ok = np.array_equal(ensemble_labels(ctx_avg, [params, params], x), single)

    ok = prox_ok and mix_ok and ens_ok
    assert criterion(
        5,
        ok,
        f"fedprox(mu=0)==fedavg: {prox_ok}; fedmix(M=1)==fedavg: {mix_ok}; "
        f"identical-ensemble==single: {ens_ok}",
    )


def test_criterion_6_anchor_ablation_direction():
    """Removing anchors (N_a=0, pure random sampling) cannot beat the
    anchored run's routing accuracy, averaged over 3 seeds."""
    with_anchor, without_anchor = [], []
    for seed in (1, 2, 3):
        tag = "fedjets-s1" if seed == 1 else f"fedjets-s{seed}"
        _, _, _, hist, _ = cached_run(tag, seed=seed)
        with_anchor.append(hist[-1].routing_acc)
        _, _, _, hist0, _ = cached_run(
            f"fedjets-noanchor-s{seed}",
            seed=seed,
            federation={"anchors_per_round": 0, "normals_per_round": 10},
        )
        without_anchor.append(hist0[-1].routing_acc)
    mean_with = float(np.mean(with_anchor))
    mean_without = float(np.mean(without_anchor))
    ok = mean_without <= mean_with
    assert criterion(
        6,
        ok,
        f"routing accuracy without anchors {mean_without:.3f} vs with anchors {mean_with:.3f} "
        f"(need <=, 3 seeds)",
    )


def test_criterion_7_common_expert_breakpoint():
    """Common-expert breakpoint, >=90% half: with a common expert of at least
    90% accuracy, FedJETs must exceed it. Both halves score the common
    expert's own head like FedJETs' zero-shot accuracy: mean per-client
    accuracy on the same unseen test clients.

    The chance-level half is `test_criterion_7_chance_common_expert_breakpoint`.
    """
    _, ctx, _, hist, _ = cached_run("fedjets-s1")
    common = evaluation.common_expert_accuracy(ctx)
    final = hist[-1].global_acc
    ok = common >= 0.90 and final > common
    assert criterion(
        7, ok, f"good common {common:.3f} -> fedjets {final:.3f} (need common >= 0.90 and fedjets above it)"
    )


def test_criterion_7_chance_common_expert_breakpoint():
    """Common-expert breakpoint, chance-level half: with a common expert
    pretrained only to target 0.1, FedJETs' final zero-shot accuracy must
    stay within 5 points of the common expert on the same test clients.

    This fails on synth-10, and no common expert makes it hold there.
    Measured on seed 1:
    - the chance-level common expert is the untrained network; only its
      head is at chance (0.050 on the test clients). Its embeddings still
      carry the classes (a nearest-centroid classifier on them scores
      0.666), the gate routes 0.912 of the test samples correctly, and
      FedJETs reaches 0.958;
    - a common expert whose first layer is zeroed embeds every input alike
      (0.100 through head and embeddings, routing 0.10), yet FedJETs still
      reaches 0.911: every normal client picks the same top-2 experts and
      trains them on all its labels, so one expert becomes a 10-class
      classifier.
    The collapse needs data on which an untrained extractor cannot see the
    classes and federated training without routing cannot separate them
    (the paper's image setting). The test stays on synth-10 until such data
    is committed as feature files for `train_features`/`test_features`.
    """
    _, ctx, _, hist, _ = cached_run("fedjets-chance-common", model={"pretrain_target_accuracy": 0.1})
    common = evaluation.common_expert_accuracy(ctx)
    final = hist[-1].global_acc
    ok = final <= common + 0.05
    assert criterion(
        7, ok, f"chance common {common:.3f} -> fedjets {final:.3f} (need <= common + 0.050)"
    ), "synth-10 keeps an untrained extractor's embeddings class-informative; see the docstring"


def test_common_expert_baseline_matches_per_client_forward():
    """Criterion 7's common-expert baseline, scored from one forward on the
    test set, equals the per-client-forward score on synth-10 and on the
    chance half's config."""
    chance = {"model": {"pretrain_target_accuracy": 0.1}}
    for tag, overrides in (("fedjets-s1", {}), ("fedjets-chance-common", chance)):
        _, ctx, _, _, _ = cached_run(tag, **overrides)
        got = evaluation.common_expert_accuracy(ctx)
        assert got == reference_common_expert_accuracy(ctx.common, ctx.test_shards, ctx.test_ds), tag


def test_criterion_8_determinism():
    """Two runs with identical config produce byte-identical metrics.jsonl."""
    cfg_over = dict(
        federation={"rounds": 40},
        eval={"interval": 10},
    )
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = Path(tmp) / "a", Path(tmp) / "b"
        experiment.run_to_directory(benchmarks.synth10_config(**cfg_over), out1)
        experiment.run_to_directory(benchmarks.synth10_config(**cfg_over), out2)
        b1 = (out1 / "metrics.jsonl").read_bytes()
        b2 = (out2 / "metrics.jsonl").read_bytes()
    ok = b1 == b2
    assert criterion(8, ok, f"metrics.jsonl byte-identical across runs: {ok}")


def _group_shards(ds, group_labels, client_ids, labels_each, samples_each, seed):
    """Clients holding labels from one label group only."""
    rng = rng_stream(seed, "group-shards")
    shards = []
    for cid in client_ids:
        labels = rng.choice(group_labels, size=labels_each, replace=False)
        idx = np.concatenate(
            [rng.choice(ds.class_index[c], size=samples_each // labels_each, replace=False) for c in labels]
        )
        hist = np.bincount(ds.labels[idx], minlength=ds.num_classes)
        shards.append(data.ClientShard(cid, idx, hist, data.KIND_NORMAL))
    return shards


def test_criterion_9_incremental_scenario_sanity():
    """Growing pool: group-1 labels train alone for 150 rounds, then group 2
    joins. Group-1 test accuracy at the end must stay >= 2x chance."""
    group1_ids = list(range(5, 19))
    group2_ids = list(range(19, 33))
    cfg = benchmarks.synth10_config(
        data={"num_clients": 33},
        scenario={
            "ranges": [
                {"start": 0, "end": 150, "active_clients": group1_ids},
                {"start": 150, "end": 300, "active_clients": group1_ids + group2_ids},
            ]
        },
    )
    train_ds, test_ds = experiment.build_datasets(cfg)
    anchors = data.make_anchor_shards(
        train_ds, cfg.federation.num_experts, cfg.data.labels_per_anchor,
        experiment.derive_seed(cfg.seed, "anchors"), disjoint=True,
    )
    normals = _group_shards(train_ds, list(range(0, 5)), group1_ids, 2, 36, 71) + _group_shards(
        train_ds, list(range(5, 10)), group2_ids, 2, 36, 72
    )
    g1_tests = _group_shards(test_ds, list(range(0, 5)), [200, 201, 202, 203], 2, 36, 73)
    for s in g1_tests:
        s.kind = data.KIND_TEST
    common, _ = experiment.build_common(cfg, train_ds)
    ctx = runtime.RunContext(
        cfg=cfg,
        train_ds=train_ds,
        test_ds=test_ds,
        anchor_shards=anchors,
        normal_shards=normals,
        test_shards=g1_tests,
        common=common,
        train_embeddings=gating.embed_inputs(common, train_ds.inputs),
        test_embeddings=gating.embed_inputs(common, test_ds.inputs),
        expert_spec=nn.NetSpec.mlp(cfg.model.expert_dims),
        gate_spec=gating.gate_spec(common.embed_dim, cfg.federation.num_experts, cfg.model.gate_hidden),
    )
    state, history, _ = experiment.run_training(ctx)
    acc = evaluation.score_test_clients(ctx, state, "fedjets").global_acc  # ctx's test clients are g1_tests
    chance = 1.0 / cfg.data.num_classes
    ok = acc >= 2 * chance
    assert criterion(
        9, ok, f"group-1 accuracy after group-2 introduction {acc:.3f} (need >= {2 * chance:.2f})"
    )

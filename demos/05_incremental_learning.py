"""Incremental-learning scenarios: growing and cyclic client pools.

Labels are split into two groups with group-restricted clients. In the
growing schedule group 2 joins halfway; in the cyclic schedule the pools
alternate. Anchors stay active throughout and keep the experts from
forgetting the absent group.
"""

import numpy as np

from fedjets import benchmarks, data, evaluation, experiment, gating, nn, runtime
from fedjets.seeding import rng_stream


def group_shards(ds, labels, ids, samples_each, seed):
    rng = rng_stream(seed, "demo-groups")
    shards = []
    for cid in ids:
        chosen = rng.choice(labels, size=2, replace=False)
        idx = np.concatenate(
            [rng.choice(ds.class_index[c], size=samples_each // 2, replace=False) for c in chosen]
        )
        hist = np.bincount(ds.labels[idx], minlength=ds.num_classes)
        shards.append(data.ClientShard(cid, idx, hist, data.KIND_NORMAL))
    return shards


def build_ctx(cfg):
    train_ds, test_ds = experiment.build_datasets(cfg)
    anchors = data.make_anchor_shards(
        train_ds, cfg.federation.num_experts, 2, experiment.derive_seed(cfg.seed, "anchors"), disjoint=True
    )
    g1 = group_shards(train_ds, range(0, 5), range(5, 19), 36, 1)
    g2 = group_shards(train_ds, range(5, 10), range(19, 33), 36, 2)
    tests = group_shards(test_ds, range(0, 5), [200, 201, 202], 36, 3)
    for t in tests:
        t.kind = data.KIND_TEST
    common, _ = experiment.build_common(cfg, train_ds)
    return runtime.RunContext(
        cfg=cfg,
        train_ds=train_ds,
        test_ds=test_ds,
        anchor_shards=anchors,
        normal_shards=g1 + g2,
        test_shards=tests,
        common=common,
        train_embeddings=gating.embed_inputs(common, train_ds.inputs),
        test_embeddings=gating.embed_inputs(common, test_ds.inputs),
        expert_spec=nn.NetSpec.mlp(cfg.model.expert_dims),
        gate_spec=gating.gate_spec(common.embed_dim, cfg.federation.num_experts, cfg.model.gate_hidden),
    )


G1 = list(range(5, 19))
G2 = list(range(19, 33))

schedules = {
    "growing pool": [
        {"start": 0, "end": 100, "active_clients": G1},
        {"start": 100, "end": 200, "active_clients": G1 + G2},
    ],
    "cyclic pool": [
        {"start": 0, "end": 100, "active_clients": G1},
        {"start": 100, "end": 200, "active_clients": G2},
    ],
}

for name, ranges in schedules.items():
    cfg = benchmarks.synth10_config(
        data={"num_clients": 33},
        federation={"rounds": 200},
        scenario={"ranges": ranges},
    )
    ctx = build_ctx(cfg)
    state, history, _ = experiment.run_training(ctx)
    scores = evaluation.score_test_clients(ctx, state, "fedjets")
    print(f"{name}: group-1 test accuracy after the schedule ran out: "
          f"{scores.global_acc:.3f} (chance 0.10)")

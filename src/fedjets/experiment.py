"""Experiment assembly: datasets, shards, common expert, embeddings.

Turns a validated RunConfig into a ready RunContext and handles the run
output directory (config echo, metrics, state checkpoint, comm ledger).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import central, checkpoint, config as config_mod, data, gating, metrics, nn, runtime
from .errors import ConfigError
from .gating import CommonExpert
from .seeding import rng_stream


def derive_seed(*keys) -> int:
    """Stable 32-bit sub-seed for a purpose-keyed stream."""
    return int(rng_stream(*keys).integers(0, 2**31 - 1))


def build_datasets(cfg: config_mod.RunConfig):
    d = cfg.data
    if d.train_features or d.test_features:
        if not (d.train_features and d.test_features):
            raise ConfigError("feature ingestion needs both train_features and test_features")
        train_ds = data.load_feature_dataset(d.train_features)
        test_ds = data.load_feature_dataset(d.test_features)
        if train_ds.num_classes != d.num_classes or train_ds.dim != d.dim:
            raise ConfigError("feature files do not match the configured num_classes/dim")
        return train_ds, test_ds
    means_seed = derive_seed(cfg.seed, "data-means")
    train_ds = data.synth_dataset(
        d.num_classes, d.dim, d.train_per_class, d.separation,
        derive_seed(cfg.seed, "data-train"), means_seed=means_seed,
    )
    test_ds = data.synth_dataset(
        d.num_classes, d.dim, d.test_per_class, d.separation,
        derive_seed(cfg.seed, "data-test"), means_seed=means_seed,
    )
    return train_ds, test_ds


def pretrain_split(
    cfg: config_mod.RunConfig, train_ds: data.LabeledDataset
) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """(fit, held-out) datasets for pretraining the common expert, whose
    early stop reads the held-out accuracy; the test set is never used.

    Synthetic data: fit on all of `train_ds`; the held-out split is fresh
    noise around the same class means (`test_per_class` samples a class).
    Ingested features: the held-out split comes from the training features
    themselves, a seeded per-class draw of a fifth of each class's rows
    (at least one, leaving at least one), and those rows are left out of
    the fit set. The federated clients still see every training row.
    """
    d = cfg.data
    valid_seed = derive_seed(cfg.seed, "data-valid")
    if not d.train_features:
        valid_ds = data.synth_dataset(
            d.num_classes, d.dim, d.test_per_class, d.separation, valid_seed,
            means_seed=derive_seed(cfg.seed, "data-means"),
        )
        return train_ds, valid_ds
    rng = rng_stream(valid_seed, "feature-holdout")
    held = np.zeros(len(train_ds), dtype=bool)
    for c, idx in enumerate(train_ds.class_index):
        if idx.size < 2:
            raise ConfigError(f"class {c} needs at least 2 training rows to hold one out")
        held[rng.choice(idx, size=max(1, idx.size // 5), replace=False)] = True

    def rows(mask):
        return data.LabeledDataset(train_ds.inputs[mask], train_ds.labels[mask], train_ds.num_classes)

    return rows(~held), rows(held)


def build_shards(cfg: config_mod.RunConfig, train_ds, test_ds):
    d, f = cfg.data, cfg.federation
    anchors = data.make_anchor_shards(
        train_ds,
        f.num_experts,
        d.labels_per_anchor,
        derive_seed(cfg.seed, "anchors"),
        disjoint=d.anchor_disjoint,
        samples_per_anchor=d.samples_per_anchor,
    )
    num_normals = d.num_clients - f.num_experts
    if d.partition_strategy == "quantity":
        normals = data.partition_quantity(
            train_ds,
            num_normals,
            d.labels_per_client,
            derive_seed(cfg.seed, "partition"),
            with_replacement=d.with_replacement,
            samples_per_client=d.samples_per_client,
            start_id=f.num_experts,
        )
    else:
        normals = data.partition_dirichlet(
            train_ds,
            num_normals,
            d.alpha,
            derive_seed(cfg.seed, "partition"),
            start_id=f.num_experts,
        )
    test_labels = d.test_labels_per_client or d.labels_per_client
    tests = data.make_test_clients(
        test_ds,
        d.num_test_clients,
        test_labels,
        derive_seed(cfg.seed, "test-clients"),
        anchors + normals,
        samples_per_client=d.test_samples_per_client,
        start_id=d.num_clients,
    )
    return anchors, normals, tests


def build_common(cfg: config_mod.RunConfig, train_ds, test_ds) -> tuple[CommonExpert, dict]:
    """Load the common expert from a checkpoint, or pretrain it centrally
    (early-stopping on the held-out split of `pretrain_split`, never the
    test set)."""
    m = cfg.model
    if m.common_ckpt:
        spec, params, meta = checkpoint.load_net(m.common_ckpt)
        if spec.input_dim != cfg.data.dim or spec.output_dim != cfg.data.num_classes:
            raise ConfigError(
                f"common checkpoint maps {spec.input_dim}->{spec.output_dim}, "
                f"config expects {cfg.data.dim}->{cfg.data.num_classes}"
            )
        common = CommonExpert.from_net(spec, params, m.embed_layer)
        return common, {"source": str(m.common_ckpt), **meta}

    spec = nn.NetSpec.mlp(m.common_dims or m.expert_dims)
    fit_ds, valid_ds = pretrain_split(cfg, train_ds)
    result = central.pretrain(
        spec,
        fit_ds,
        valid_ds,
        m.pretrain_target_accuracy,
        m.pretrain_max_epochs,
        cfg.training.lr,
        cfg.training.momentum,
        cfg.training.batch_size,
        derive_seed(cfg.seed, "pretrain"),
    )
    common = CommonExpert.from_net(spec, result.params, m.embed_layer)
    meta = {
        "source": "inline-pretrain",
        "achieved_accuracy": result.accuracy,
        "epochs": result.epochs,
        "target_accuracy": m.pretrain_target_accuracy,
    }
    return common, meta


def build_context(cfg: config_mod.RunConfig) -> runtime.RunContext:
    train_ds, test_ds = build_datasets(cfg)
    anchors, normals, tests = build_shards(cfg, train_ds, test_ds)
    common, _ = build_common(cfg, train_ds, test_ds)
    expert_spec = nn.NetSpec.mlp(cfg.model.expert_dims)
    g_spec = gating.gate_spec(common.embed_dim, cfg.num_experts, cfg.model.gate_hidden)
    cache = gating.build_embedding_cache(common, train_ds, anchors + normals)
    test_cache = gating.build_embedding_cache(common, test_ds, tests)
    return runtime.RunContext(
        cfg=cfg,
        train_ds=train_ds,
        test_ds=test_ds,
        anchor_shards=anchors,
        normal_shards=normals,
        test_shards=tests,
        common=common,
        cache=cache,
        test_cache=test_cache,
        expert_spec=expert_spec,
        gate_spec=g_spec,
    )


def save_run_state(path, state: runtime.ServerState, cfg: config_mod.RunConfig) -> None:
    nets = [
        (f"expert_{i}", state.expert_spec, p) for i, p in enumerate(state.expert_params)
    ]
    if state.gate_params is not None:
        nets.append(("gate", state.gate_spec, state.gate_params))
    meta = {
        "method": cfg.federation.method,
        "round": state.round,
        "seed": cfg.seed,
    }
    checkpoint.save_state(path, nets, meta)


def load_run_state(path) -> tuple[runtime.ServerState, dict]:
    nets, meta = checkpoint.load_state(path)
    experts = [(name, spec, p) for name, spec, p in nets if name.startswith("expert_")]
    gates = [(name, spec, p) for name, spec, p in nets if name == "gate"]
    if not experts:
        raise ConfigError(f"{path}: state holds no experts")
    expert_spec = experts[0][1]
    state = runtime.ServerState(
        expert_spec,
        gates[0][1] if gates else None,
        [p for _, _, p in experts],
        gates[0][2] if gates else None,
        int(meta.get("round", 0)),
    )
    return state, meta


def run_to_directory(cfg: config_mod.RunConfig, out_dir):
    """Execute one training run and write the artifact layout:
    config.echo.json, metrics.jsonl, metrics.csv, state.ckpt, comm.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = build_context(cfg)
    state, history, ledger = runtime.run_training(ctx)
    config_mod.dump(cfg, out / "config.echo.json")
    metrics.write_jsonl(out / "metrics.jsonl", history)
    metrics.write_csv(out / "metrics.csv", history, seed=cfg.seed)
    (out / "comm.csv").write_text(ledger.to_csv(seed=cfg.seed))
    save_run_state(out / "state.ckpt", state, cfg)
    return state, history, ledger

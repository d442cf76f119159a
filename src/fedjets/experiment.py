"""Experiment assembly and the training loop: turns a validated RunConfig
into a ready RunContext (datasets, shards, common expert, embeddings), runs
its rounds (`run_training`), and handles the run output directory (config
echo, metrics, state checkpoint, comm ledger).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from . import baselines, central, checkpoint, config as config_mod, data, evaluation, gating, metrics, nn, runtime
from .errors import ArtifactError, ConfigError, NumericError
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
        paths = (d.train_features, d.test_features)
        datasets = tuple(data.load_feature_dataset(path) for path in paths)
        for path, ds in zip(paths, datasets):
            if (ds.num_classes, ds.dim) != (d.num_classes, d.dim):
                raise ConfigError(
                    f"{path}: {ds.num_classes} classes of dim {ds.dim}, the config has {d.num_classes} of dim {d.dim}"
                )
        return datasets
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
    test_labels = d.labels_per_client if d.test_labels_per_client is None else d.test_labels_per_client
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


def pretrain_common(cfg: config_mod.RunConfig, train_ds) -> central.PretrainResult:
    """Pretrain the common expert centrally on `pretrain_split(cfg, train_ds)`,
    to the config's accuracy target within its epoch cap."""
    m = cfg.model
    fit_ds, valid_ds = pretrain_split(cfg, train_ds)
    return central.pretrain(
        nn.NetSpec.mlp(m.common_dims or m.expert_dims),
        fit_ds,
        valid_ds,
        m.pretrain_target_accuracy,
        m.pretrain_max_epochs,
        cfg.training.lr,
        cfg.training.momentum,
        cfg.training.batch_size,
        derive_seed(cfg.seed, "pretrain"),
    )


def build_common(cfg: config_mod.RunConfig, train_ds) -> tuple[CommonExpert, dict]:
    """Load the common expert from a checkpoint, or pretrain it centrally
    (early-stopping on the held-out split of `pretrain_split`, never the
    test set)."""
    m = cfg.model
    if m.common_ckpt:
        params, meta = checkpoint.load_net(m.common_ckpt)
        spec = params.spec
        if spec.input_dim != cfg.data.dim or spec.output_dim != cfg.data.num_classes:
            raise ConfigError(
                f"common checkpoint maps {spec.input_dim}->{spec.output_dim}, "
                f"config expects {cfg.data.dim}->{cfg.data.num_classes}"
            )
        return CommonExpert.from_net(params, m.embed_layer), {"source": str(m.common_ckpt), **meta}

    result = pretrain_common(cfg, train_ds)
    if not result.reached_target:  # a run goes on with it; `fedjets pretrain` would exit 1
        print(
            f"common expert missed its pretraining target: held-out accuracy {result.accuracy:.4f} < "
            f"{m.pretrain_target_accuracy} after {result.epochs} epochs",
            file=sys.stderr,
        )
    common = CommonExpert.from_net(result.params, m.embed_layer)
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
    common, _ = build_common(cfg, train_ds)
    embeddings = []
    for name, ds in (("training set", train_ds), ("test set", test_ds)):
        try:
            embeddings.append(gating.embed_inputs(common, ds.inputs))
        except NumericError as exc:
            raise exc.within(name) from exc
    return runtime.RunContext(
        cfg=cfg,
        train_ds=train_ds,
        test_ds=test_ds,
        anchor_shards=anchors,
        normal_shards=normals,
        test_shards=tests,
        common=common,
        train_embeddings=embeddings[0],
        test_embeddings=embeddings[1],
        expert_spec=nn.NetSpec.mlp(cfg.model.expert_dims),
        gate_spec=gating.gate_spec(common.embed_dim, cfg.federation.num_experts, cfg.model.gate_hidden),
    )


def fit_record(cfg: config_mod.RunConfig) -> dict:
    """The config fields a saved state's scores depend on: all but `federation.rounds`,
    `federation.method` (the state stores its own), `eval` and `scenario`. When the
    config names files by path, `sha256` maps each such field to its file's digest."""
    record = config_mod.to_dict(cfg)
    d, m = cfg.data, cfg.model
    named = {"model.common_ckpt": m.common_ckpt, "data.train_features": d.train_features,
             "data.test_features": d.test_features}
    if digests := {k: hashlib.sha256(Path(v).read_bytes()).hexdigest() for k, v in named.items() if v}:
        record["sha256"] = digests
    del record["eval"], record["scenario"], record["federation"]["rounds"], record["federation"]["method"]
    return record


def _leaves(tree: dict, prefix: str = "") -> dict:
    """{dotted path: value} for every leaf of a nested dict."""
    nested = [_leaves(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k: v} for k, v in tree.items()]
    return {path: value for leaves in nested for path, value in leaves.items()}


def check_fit(meta: dict, cfg: config_mod.RunConfig) -> None:
    """Raise ConfigError naming each field, with both values, where `cfg` differs
    from the `fit_record` in a state's meta, a named file's digest included (`sha256.data.train_features`).
    Parsed values are compared: `4` fits `4.0`."""
    held, given = _leaves(meta["config"]), _leaves(fit_record(cfg))
    keys = [k for k in sorted(held.keys() | given.keys()) if k not in held.keys() & given.keys() or held[k] != given[k]]
    if keys:
        diffs = "; ".join(f"{k}: state {held.get(k, '-')}, config {given.get(k, '-')}" for k in keys)
        raise ConfigError(f"the config differs from the one the state was trained under: {diffs}")


def save_run_state(path, state: runtime.ServerState, cfg: config_mod.RunConfig) -> None:
    nets = [(f"expert_{i}", p) for i, p in enumerate(state.expert_params)]
    if state.gate_params is not None:
        nets.append(("gate", state.gate_params))
    meta = {"config": fit_record(cfg), "method": cfg.federation.method, "round": state.round}
    checkpoint.save_state(path, nets, meta)


def load_run_state(path) -> tuple[runtime.ServerState, dict]:
    """Read a state written by `save_run_state`; a state that does not fit
    the README's "Binary formats" and "Eval report" is an ArtifactError."""
    nets, meta = checkpoint.load_state(path)
    names = [name for name, _ in nets]
    experts = [(name, p) for name, p in nets if name.startswith("expert_")]
    gates = [p for name, p in nets if name == "gate"]
    if not experts:
        raise ArtifactError(f"{path}: state holds no experts")
    method, round_idx = meta.get("method"), meta.get("round")
    if method not in config_mod.METHODS:
        raise ArtifactError(f"{path}: unknown method {method!r}")
    if type(round_idx) is not int or round_idx < 0:
        raise ArtifactError(f"{path}: round must be a non-negative int, got {round_idx!r}")
    if not isinstance(meta.get("config"), dict):
        raise ArtifactError(f"{path}: config must be a JSON object, got {meta.get('config')!r}")
    if bool(gates) != (method == "fedjets"):
        raise ArtifactError(f"{path}: a gate is {'stored' if gates else 'missing'} for method {method!r}")
    if names != [f"expert_{i}" for i in range(len(experts))] + ["gate"] * len(gates):
        raise ArtifactError(f"{path}: blocks {names} are not expert_0 ... expert_{{M-1}} in order, then the gate")
    if (method in ("fedavg", "fedprox") and len(experts) > 1) or (method == "avg_ensemble" and len(experts) < 2):
        raise ArtifactError(f"{path}: method {method!r} cannot hold {len(experts)} expert(s)")
    for name, p in experts:
        if p.spec != experts[0][1].spec:
            raise ArtifactError(f"{path}: {name} has another spec than {experts[0][0]}")
    gate = gates[0] if gates else None
    if gate is not None and gate.spec.head != "softmax":
        raise ArtifactError(f"{path}: gate has a {gate.spec.head!r} head, not softmax")
    if gate is not None and gate.spec.output_dim != len(experts):
        raise ArtifactError(f"{path}: gate scores {gate.spec.output_dim} experts, state holds {len(experts)}")
    return runtime.ServerState([p for _, p in experts], gate, round_idx), meta


def run_training(ctx: runtime.RunContext):
    """Full training: T rounds of plan -> client updates -> aggregate,
    with metrics every eval interval and a communication ledger.

    Returns (final ServerState, list[MetricsRecord], CommLedger). Every
    method gets its initial state and round step from
    `baselines.make_stepper`; the plumbing (ledger, metrics cadence) is
    shared.
    """
    cfg = ctx.cfg
    method = cfg.federation.method
    ledger = runtime.CommLedger()
    setup_down = float(cfg.num_training_clients * ctx.sizes.common)
    for name in runtime.comm_cost(runtime.RoundPlan(0, [], []), cfg, ctx.sizes):
        ledger.add(runtime.SETUP_ROUND, name, setup_down, 0.0)

    state, stepper = baselines.make_stepper(ctx, method)
    history = []
    for t in range(cfg.federation.rounds):
        state, plan = stepper(state, t)
        for name, (down, up) in runtime.comm_cost(plan, cfg, ctx.sizes).items():
            ledger.add(t, name, down, up)
        if (t + 1) % cfg.eval.interval == 0 or t == cfg.federation.rounds - 1:
            down_cum, up_cum = ledger.cumulative(method)
            history.append(evaluation.evaluate_round(ctx, state, method, t + 1, down_cum, up_cum))
    return state, history, ledger


def run_to_directory(cfg: config_mod.RunConfig, out_dir):
    """Execute one training run and write the artifact layout:
    config.echo.json, metrics.jsonl, metrics.csv, state.ckpt, comm.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = build_context(cfg)
    state, history, ledger = run_training(ctx)
    config_mod.dump(cfg, out / "config.echo.json")
    metrics.write_jsonl(out / "metrics.jsonl", history)
    metrics.write_csv(out / "metrics.csv", history, seed=cfg.seed)
    (out / "comm.csv").write_text(ledger.to_csv(seed=cfg.seed))
    save_run_state(out / "state.ckpt", state, cfg)
    return state, history, ledger

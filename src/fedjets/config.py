"""Run configuration: one JSON document, strictly validated. Unknown keys
are rejected anywhere in the tree so a typo cannot silently fall back to a
default."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

METHODS = ("fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix")
EXPERT_INITS = ("scratch", "from_common")
PARTITION_STRATEGIES = ("quantity", "dirichlet")
SECTIONS = ("data", "model", "federation", "training", "eval")


def _at_least(n) -> dict:
    return {"bound": f"at least {n}", "admits": lambda v: v >= n}


def _above(x) -> dict:
    return {"bound": f"> {x}", "admits": lambda v: v > x}


def _within(lo, hi, end: str = ")") -> dict:
    """[lo, hi) by default, [lo, hi] with end="]"."""
    return {"bound": f"in [{lo}, {hi}{end}", "admits": lambda v: lo <= v < hi or (end == "]" and v == hi)}


def _one_of(options) -> dict:
    return {"bound": " | ".join(f'"{o}"' for o in options), "admits": options.__contains__}


# Each scalar field states its bound beside its default; `RunConfig.validate`
# enforces them all in one walk. A null value passes where the type allows it.
@dataclass
class DataConfig:
    num_classes: int = field(default=10, metadata=_at_least(2))
    dim: int = field(default=16, metadata=_at_least(2))
    train_per_class: int = field(default=200, metadata=_at_least(2))
    test_per_class: int = field(default=100, metadata=_at_least(2))
    separation: float = field(default=6.0, metadata=_at_least(0))
    num_clients: int = field(default=60, metadata=_at_least(2))
    num_test_clients: int = field(default=10, metadata=_at_least(1))
    partition_strategy: str = field(default="quantity", metadata=_one_of(PARTITION_STRATEGIES))
    labels_per_client: int = field(default=4, metadata=_at_least(1))
    alpha: float = field(default=0.1, metadata=_above(0))
    with_replacement: bool = True
    samples_per_client: int | None = field(default=None, metadata=_at_least(1))
    test_labels_per_client: int | None = field(default=None, metadata=_at_least(1))
    test_samples_per_client: int | None = field(default=None, metadata=_at_least(1))
    labels_per_anchor: int = field(default=2, metadata=_at_least(1))
    anchor_disjoint: bool = True
    samples_per_anchor: int | None = field(default=None, metadata=_at_least(1))
    train_features: str | None = None
    test_features: str | None = None


@dataclass
class ModelConfig:
    expert_dims: list[int] = field(default_factory=lambda: [16, 32, 32, 10])
    common_dims: list[int] | None = None
    embed_layer: int | None = field(default=None, metadata=_at_least(0))
    gate_hidden: int | None = field(default=None, metadata=_at_least(1))
    common_ckpt: str | None = None
    pretrain_target_accuracy: float = field(default=0.9, metadata=_within(0, 1, "]"))
    pretrain_max_epochs: int = field(default=60, metadata=_at_least(0))


@dataclass
class FederationConfig:
    method: str = field(default="fedjets", metadata=_one_of(METHODS))
    rounds: int = field(default=300, metadata=_at_least(1))
    num_experts: int = field(default=5, metadata=_at_least(1))
    top_k: int = field(default=2, metadata=_at_least(1))
    anchors_per_round: int = field(default=5, metadata=_at_least(0))
    normals_per_round: int = field(default=5, metadata=_at_least(0))
    expert_init: str = field(default="scratch", metadata=_one_of(EXPERT_INITS))
    fedprox_mu: float = field(default=0.01, metadata=_at_least(0))
    ensemble_size: int = field(default=2, metadata=_at_least(2))  # every run's ledger books avg_ensemble
    uniform_weighting: bool = False


@dataclass
class TrainingConfig:
    lr: float = field(default=0.01, metadata=_above(0))
    momentum: float = field(default=0.9, metadata=_within(0, 1))
    gate_lr: float = field(default=0.001, metadata=_above(0))
    gate_momentum: float = field(default=0.0, metadata=_within(0, 1))
    batch_size: int = field(default=256, metadata=_at_least(1))
    local_epochs: int = field(default=1, metadata=_at_least(0))
    local_iterations: int | None = field(default=None, metadata=_at_least(0))
    renormalize_gate_weights: bool = False


@dataclass
class EvalConfig:
    interval: int = field(default=10, metadata=_at_least(1))


@dataclass
class ScenarioRange:
    start: int
    end: int
    active_clients: list[int] = field(default_factory=list)


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationConfig = field(default_factory=FederationConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    scenario: list[ScenarioRange] | None = None
    seed: int = 0

    @property
    def num_training_clients(self) -> int:
        """`data.num_clients`, anchors included (`perfbench/workloads.py` reads this name)."""
        return self.data.num_clients

    def validate(self) -> "RunConfig":
        """Check every field against its declared bound in one walk, then the rules relating fields."""
        for name in SECTIONS:
            section = getattr(self, name)
            for spec in dataclasses.fields(section):
                value, bound = getattr(section, spec.name), spec.metadata.get("bound")
                if isinstance(value, float) and not math.isfinite(value):
                    bound = "finite"
                elif bound is None or value is None or spec.metadata["admits"](value):
                    continue
                raise ConfigError(f"{name}.{spec.name} must be {bound}; got {value!r}")
        d, m, f = self.data, self.model, self.federation
        experts, classes = f"federation.num_experts ({f.num_experts})", f"data.num_classes ({d.num_classes})"
        per_round = "federation.anchors_per_round + federation.normals_per_round"
        n_a, active = f.anchors_per_round, f.anchors_per_round + f.normals_per_round
        lpc, lpa = d.labels_per_client, d.labels_per_anchor
        test_key = "data.labels_per_client" if d.test_labels_per_client is None else "data.test_labels_per_client"
        test_labels, disjoint = d.test_labels_per_client or d.labels_per_client, f.num_experts * d.labels_per_anchor
        span = f"dims of at least 1 from data.dim {d.dim} to data.num_classes {d.num_classes}"
        spans = [dims is None or (len(dims) > 1 and min(dims) > 0 and (dims[0], dims[-1]) == (d.dim, d.num_classes))
                 for dims in (m.expert_dims, m.common_dims)]
        layers = len(m.common_dims or m.expert_dims) - 1
        for holds, key, bound, value in [  # the rules relating fields, in order
            (f.top_k <= f.num_experts, "federation.top_k", f"at most {experts}", f.top_k),
            (n_a <= f.num_experts, "federation.anchors_per_round", f"at most {experts}", n_a),
            (active <= d.num_clients, per_round, f"at most data.num_clients ({d.num_clients})", active),
            (active >= 1, per_round, "at least 1", active),
            (d.num_clients > f.num_experts, "data.num_clients", f"above {experts}", d.num_clients),
            (d.labels_per_client <= d.num_classes, "data.labels_per_client", f"at most {classes}", d.labels_per_client),
            (d.partition_strategy != "quantity" or (d.samples_per_client or lpc) >= lpc, "data.samples_per_client",
             f"at least data.labels_per_client ({lpc}) with data.partition_strategy 'quantity'", d.samples_per_client),
            (test_labels <= d.num_classes, test_key, f"at most {classes}", test_labels),
            ((d.test_samples_per_client or test_labels) >= test_labels, "data.test_samples_per_client",
             f"at least {test_key} ({test_labels})", d.test_samples_per_client),
            (not d.anchor_disjoint or disjoint <= d.num_classes, "federation.num_experts * data.labels_per_anchor",
             f"at most {classes} with data.anchor_disjoint", disjoint),
            (not d.anchor_disjoint or (d.samples_per_anchor or lpa) >= lpa, "data.samples_per_anchor",
             f"at least data.labels_per_anchor ({lpa}) with data.anchor_disjoint", d.samples_per_anchor),
            (spans[0], "model.expert_dims", span, m.expert_dims),
            (spans[1], "model.common_dims", span, m.common_dims),
            (m.embed_layer is None or bool(m.common_ckpt) or m.embed_layer < layers, "model.embed_layer",
             f"below {layers}, the common expert's layer count", m.embed_layer),
        ]:
            if not holds:
                raise ConfigError(f"{key} must be {bound}; got {value!r}")
        if self.scenario is not None:
            prev_end = 0
            if not self.scenario:
                raise ConfigError("scenario must contain at least one range")
            for r in self.scenario:
                if r.start != prev_end:
                    raise ConfigError(
                        f"scenario ranges must tile [0, rounds) in order; got start {r.start}, expected {prev_end}"
                    )
                if r.end <= r.start:
                    raise ConfigError("scenario range end must exceed start")
                bad = [cid for cid in r.active_clients if not 0 <= cid < d.num_clients]
                if bad:
                    raise ConfigError(f"scenario range [{r.start}, {r.end}): client ids {bad} outside [0, {d.num_clients})")
                prev_end = r.end
            if prev_end < f.rounds:
                raise ConfigError(f"scenario covers [0, {prev_end}) but the run has {f.rounds} rounds")
        return self


_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def _fits(annotation: str, value) -> bool:
    """Whether a JSON value has a field's annotated type ("int", "float | None",
    "list[int]", ...); a bool is not a number, an int passes for a float."""
    base, *rest = annotation.split(" | ")
    if value is None:
        return rest == ["None"]
    if base.startswith("list["):
        return isinstance(value, list) and all(_fits(base[5:-1], v) for v in value)
    return isinstance(value, _JSON_TYPES[base]) and isinstance(value, bool) == (base == "bool")


def _build(cls, obj, path: str):
    """Construct a dataclass from a plain dict, rejecting unknown keys and
    values of the wrong JSON type."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    for key, value in obj.items():
        if not _fits(fields[key], value):
            raise ConfigError(f"{path}.{key}: expected {fields[key]}, got {value!r}")
    return cls(**obj)


def from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}")
    cfg = RunConfig(
        data=_build(DataConfig, raw.get("data", {}), "data"),
        model=_build(ModelConfig, raw.get("model", {}), "model"),
        federation=_build(FederationConfig, raw.get("federation", {}), "federation"),
        training=_build(TrainingConfig, raw.get("training", {}), "training"),
        eval=_build(EvalConfig, raw.get("eval", {}), "eval"),
        scenario=(
            None
            if raw.get("scenario") is None
            else [
                _build(ScenarioRange, r, f"scenario[{i}]")
                for i, r in enumerate(_range_dicts(raw["scenario"]))
            ]
        ),
        seed=raw.get("seed", 0),
    )
    if not _fits("int", cfg.seed):
        raise ConfigError(f"seed: expected int, got {cfg.seed!r}")
    return cfg.validate()


def _range_dicts(obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"scenario must be null or {{'ranges': [...]}}; got {type(obj).__name__}")
    extra = set(obj) - {"ranges"}
    if extra:
        raise ConfigError(f"scenario: unknown key(s) {sorted(extra)}")
    ranges = obj.get("ranges", [])
    if not isinstance(ranges, list):
        raise ConfigError(f"scenario.ranges must be a list; got {type(ranges).__name__}")
    return ranges


def to_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    if cfg.scenario is not None:
        out["scenario"] = {"ranges": [dataclasses.asdict(r) for r in cfg.scenario]}
    return out


def load(path, overrides=(), seed: int | None = None) -> RunConfig:
    """Read a JSON config, apply `--set` overrides ("dot.path=value") and
    the seed when given, then validate."""
    text = Path(path).read_text()  # OSError surfaces as an I/O error upstream
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects dot.path=value, got {item!r}")
        apply_override(raw, *item.split("=", 1))
    if seed is not None:
        raw["seed"] = seed
    return from_dict(raw)


def dump(cfg: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(to_dict(cfg), indent=2, sort_keys=True) + "\n")


def apply_override(raw: dict, dotted: str, value: str) -> None:
    """Apply one --set override (dot path, JSON-or-string value) in place."""
    parts = dotted.split(".")
    if not all(parts):
        raise ConfigError(f"bad override path {dotted!r}")
    node = raw
    for p in parts[:-1]:
        nxt = node.setdefault(p, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-object value")
        node = nxt
    try:
        node[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[parts[-1]] = value

"""Run configuration: one JSON document, strictly validated.

Sections: data, model, federation, training, eval, scenario, plus the
top-level seed. Unknown keys are rejected anywhere in the tree so a typo
cannot silently fall back to a default.
"""

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


@dataclass
class DataConfig:
    num_classes: int = 10
    dim: int = 16
    train_per_class: int = 200
    test_per_class: int = 100
    separation: float = 6.0
    num_clients: int = 60
    num_test_clients: int = 10
    partition_strategy: str = "quantity"
    labels_per_client: int = 4
    alpha: float = 0.1
    with_replacement: bool = True
    samples_per_client: int | None = None
    test_labels_per_client: int | None = None
    test_samples_per_client: int | None = None
    labels_per_anchor: int = 2
    anchor_disjoint: bool = True
    samples_per_anchor: int | None = None
    train_features: str | None = None
    test_features: str | None = None


@dataclass
class ModelConfig:
    expert_dims: list[int] = field(default_factory=lambda: [16, 32, 32, 10])
    common_dims: list[int] | None = None
    embed_layer: int | None = None
    gate_hidden: int | None = None
    common_ckpt: str | None = None
    pretrain_target_accuracy: float = 0.9
    pretrain_max_epochs: int = 60


@dataclass
class FederationConfig:
    method: str = "fedjets"
    rounds: int = 300
    num_experts: int = 5
    top_k: int = 2
    anchors_per_round: int = 5
    normals_per_round: int = 5
    expert_init: str = "scratch"
    fedprox_mu: float = 0.01
    ensemble_size: int = 2
    uniform_weighting: bool = False


@dataclass
class TrainingConfig:
    lr: float = 0.01
    momentum: float = 0.9
    gate_lr: float = 0.001
    gate_momentum: float = 0.0
    batch_size: int = 256
    local_epochs: int = 1
    local_iterations: int | None = None
    renormalize_gate_weights: bool = False


@dataclass
class EvalConfig:
    interval: int = 10


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

    # Shorthand aliases matching the federation nomenclature.
    @property
    def num_training_clients(self) -> int:
        return self.data.num_clients

    @property
    def num_experts(self) -> int:
        return self.federation.num_experts

    @property
    def top_k(self) -> int:
        return self.federation.top_k

    @property
    def rounds(self) -> int:
        return self.federation.rounds

    def validate(self) -> "RunConfig":
        d, m, f, t = self.data, self.model, self.federation, self.training
        for name in ("data", "model", "federation", "training", "eval"):
            for key, value in vars(getattr(self, name)).items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{name}.{key} must be finite, got {value}")
        if f.method not in METHODS:
            raise ConfigError(f"unknown method {f.method!r}; expected one of {METHODS}")
        if f.expert_init not in EXPERT_INITS:
            raise ConfigError(f"unknown expert_init {f.expert_init!r}")
        if d.partition_strategy not in PARTITION_STRATEGIES:
            raise ConfigError(f"unknown partition_strategy {d.partition_strategy!r}")
        if min(f.rounds, f.num_experts, f.top_k, d.num_clients) < 0:
            raise ConfigError("counts must be non-negative")
        if d.num_test_clients < 1:
            raise ConfigError("num_test_clients must be at least 1: every method is scored on the test clients")
        if f.num_experts < 1 or f.top_k < 1:
            raise ConfigError("num_experts and top_k must be positive")
        if f.top_k > f.num_experts:
            raise ConfigError(f"top_k {f.top_k} exceeds num_experts {f.num_experts}")
        if f.anchors_per_round < 0 or f.normals_per_round < 0:
            raise ConfigError("per-round client counts must be non-negative")
        if f.anchors_per_round > f.num_experts:
            raise ConfigError("anchors_per_round exceeds the number of anchor clients")
        if f.anchors_per_round + f.normals_per_round > d.num_clients:
            raise ConfigError("active clients per round exceed the training pool")
        if f.anchors_per_round + f.normals_per_round < 1:
            raise ConfigError("at least one client must be active per round")
        if d.num_clients <= f.num_experts:
            raise ConfigError("num_clients must exceed num_experts (anchors are clients)")
        if d.labels_per_anchor < 1:
            raise ConfigError(f"data.labels_per_anchor must be at least 1, got {d.labels_per_anchor}")
        if d.test_labels_per_client is not None and d.test_labels_per_client < 1:
            raise ConfigError(f"data.test_labels_per_client must be null or at least 1, got {d.test_labels_per_client}")
        if d.labels_per_client > d.num_classes:
            raise ConfigError("labels_per_client exceeds num_classes")
        if d.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if d.anchor_disjoint and f.num_experts * d.labels_per_anchor > d.num_classes:
            raise ConfigError("disjoint anchors need num_experts*labels_per_anchor <= num_classes")
        for name, dims in (("expert_dims", m.expert_dims), ("common_dims", m.common_dims)):
            if dims is not None and len(dims) < 2:
                raise ConfigError(f"model.{name} needs an input and an output dim, got {dims}")
        if list(m.expert_dims)[0] != d.dim or list(m.expert_dims)[-1] != d.num_classes:
            raise ConfigError(
                f"expert_dims {m.expert_dims} must map data dim {d.dim} to {d.num_classes} classes"
            )
        if m.common_dims is not None and (
            list(m.common_dims)[0] != d.dim or list(m.common_dims)[-1] != d.num_classes
        ):
            raise ConfigError("common_dims must map data dim to num_classes")
        if m.gate_hidden is not None and m.gate_hidden < 1:
            raise ConfigError(f"model.gate_hidden must be null or at least 1, got {m.gate_hidden}")
        if m.pretrain_max_epochs < 0:
            raise ConfigError(f"model.pretrain_max_epochs must be non-negative, got {m.pretrain_max_epochs}")
        if not 0 <= m.pretrain_target_accuracy <= 1:
            raise ConfigError(f"model.pretrain_target_accuracy must lie in [0, 1], got {m.pretrain_target_accuracy}")
        if t.lr <= 0 or t.gate_lr <= 0 or t.batch_size < 1:
            raise ConfigError("lr, gate_lr must be positive and batch_size >= 1")
        if not (0 <= t.momentum < 1) or not (0 <= t.gate_momentum < 1):
            raise ConfigError("momentum values must lie in [0, 1)")
        if t.local_iterations is not None and t.local_iterations < 0:
            raise ConfigError("local_iterations must be non-negative")
        if t.local_epochs < 0:
            raise ConfigError(f"training.local_epochs must be non-negative, got {t.local_epochs}")
        if f.method == "fedprox" and f.fedprox_mu < 0:
            raise ConfigError("fedprox_mu must be non-negative")
        if f.method == "avg_ensemble" and f.ensemble_size < 2:
            raise ConfigError("avg_ensemble needs ensemble_size >= 2")
        if self.eval.interval < 1:
            raise ConfigError("eval interval must be positive")
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
    if isinstance(obj, dict):
        extra = set(obj) - {"ranges"}
        if extra:
            raise ConfigError(f"scenario: unknown key(s) {sorted(extra)}")
        obj = obj.get("ranges", [])
    if not isinstance(obj, list):
        raise ConfigError("scenario must be a list of ranges or {'ranges': [...]}")
    return obj


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

"""Synthetic datasets and non-i.i.d. client partitions.

Two partitioning strategies are provided: quantity-based label imbalance
(each client holds exactly `labels_per_client` distinct labels) and
distribution-based imbalance (per-label client proportions drawn from a
Dirichlet). "With replacement" means the same dataset sample may appear in
several clients' shards; within one shard samples are unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from .errors import ArtifactError, ConfigError, NumericError
from .seeding import rng_stream

KIND_ANCHOR = "anchor"
KIND_NORMAL = "normal"
KIND_TEST = "test"
DIRICHLET_RETRIES = 100  # redraws of the empty clients' proportion columns
TEST_LABEL_SET_TRIES = 1000  # draws per test client of a label set no training shard holds


@dataclass
class LabeledDataset:
    inputs: np.ndarray  # [N x d]
    labels: np.ndarray  # [N], ints in [0, num_classes)
    num_classes: int
    class_index: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] != self.labels.shape[0]:
            raise ConfigError("dataset inputs/labels shape mismatch")
        if self.labels.size and not (0 <= self.labels.min() and self.labels.max() < self.num_classes):
            raise ConfigError(
                f"labels span [{self.labels.min()}, {self.labels.max()}], outside [0, {self.num_classes})"
            )
        if not self.class_index:
            self.class_index = [np.flatnonzero(self.labels == c) for c in range(self.num_classes)]
        for c, idx in enumerate(self.class_index):
            if idx.size == 0:
                raise ConfigError(f"class {c} has no samples")
        if not np.isfinite(self.inputs).all():
            raise NumericError("dataset inputs contain non-finite values")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass
class ClientShard:
    """One client's local data: indices into a LabeledDataset."""

    client_id: int
    indices: np.ndarray
    label_histogram: np.ndarray
    kind: str
    assigned_expert: int | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.label_histogram = np.asarray(self.label_histogram, dtype=np.int64)
        if self.indices.size == 0:
            raise ConfigError(f"client {self.client_id}: empty shard")
        if self.kind not in (KIND_ANCHOR, KIND_NORMAL, KIND_TEST):
            raise ConfigError(f"unknown shard kind {self.kind!r}")
        if self.kind == KIND_ANCHOR and (self.assigned_expert is None or self.assigned_expert < 0):
            raise ConfigError("anchor shard needs a non-negative assigned expert")

    def __len__(self) -> int:
        return self.indices.size

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.label_histogram).tolist())


def _histogram(ds: LabeledDataset, indices: np.ndarray) -> np.ndarray:
    return np.bincount(ds.labels[indices], minlength=ds.num_classes)


def _make_shard(ds, client_id, indices, kind, assigned_expert=None) -> ClientShard:
    idx = np.asarray(indices, dtype=np.int64)
    return ClientShard(client_id, idx, _histogram(ds, idx), kind, assigned_expert)


def synth_dataset(
    num_classes: int,
    dim: int,
    per_class: int,
    separation: float,
    seed: int,
    means_seed: int | None = None,
) -> LabeledDataset:
    """Gaussian blobs: class c is N(mu_c, I) with ||mu_c|| = separation.

    Class means are seeded random unit directions scaled by `separation`;
    separation 0 degenerates to indistinguishable classes. Pass the same
    `means_seed` to draw train/test splits from one underlying distribution
    (it defaults to `seed`, keeping a single dataset self-contained).
    """
    if num_classes < 2 or dim < 2 or per_class < 2:
        raise ConfigError("synth_dataset needs num_classes>=2, dim>=2, per_class>=2")
    if separation < 0:
        raise ConfigError("separation must be non-negative")
    means_rng = rng_stream(seed if means_seed is None else means_seed, "synth-means")
    dirs = means_rng.normal(size=(num_classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    rng = rng_stream(seed, "synth-samples")
    inputs = np.concatenate(
        [means[c] + rng.normal(size=(per_class, dim)) for c in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(inputs, labels, num_classes)


def _split_evenly(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _split_by(props: np.ndarray, budget: int) -> np.ndarray:
    """`budget` cut by proportions: floors of the cumulative shares, the last one pinned at `budget`."""
    bounds = np.floor(np.cumsum(props) * budget).astype(np.int64)
    bounds[-1] = budget
    return np.diff(bounds, prepend=0)


def _draw_per_label(rng: np.random.Generator, ds: LabeledDataset, wants) -> np.ndarray:
    """One shard's rows: for each (label, count) pair with a positive count,
    that many distinct rows of the label (all of them if it has fewer)."""
    pools = [(ds.class_index[lab], want) for lab, want in wants if want > 0]
    return np.concatenate([rng.choice(pool, size=min(want, pool.size), replace=False) for pool, want in pools])


def partition_quantity(
    ds: LabeledDataset,
    num_clients: int,
    labels_per_client: int,
    seed: int,
    with_replacement: bool = True,
    samples_per_client: int | None = None,
    start_id: int = 0,
) -> list[ClientShard]:
    """Quantity-based label imbalance: every client holds exactly
    `labels_per_client` distinct labels, samples drawn per label."""
    C = ds.num_classes
    if labels_per_client > C:
        raise ConfigError(f"labels_per_client {labels_per_client} exceeds {C} classes")
    if labels_per_client < 1 or num_clients < 1:
        raise ConfigError("labels_per_client and num_clients must be positive")
    if samples_per_client is None:
        samples_per_client = max(labels_per_client, len(ds) // num_clients)
    if samples_per_client < labels_per_client:
        raise ConfigError("samples_per_client smaller than labels_per_client")

    rng = rng_stream(seed, "partition-quantity")
    client_labels = [
        np.sort(rng.choice(C, size=labels_per_client, replace=False))
        for _ in range(num_clients)
    ]
    quotas = [
        dict(zip(labels.tolist(), _split_evenly(samples_per_client, labels_per_client)))
        for labels in client_labels
    ]

    if with_replacement:
        rows = [_draw_per_label(rng, ds, q.items()) for q in quotas]
    else:
        picks: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        for lab in range(C):
            holders = [k for k in range(num_clients) if lab in quotas[k]]
            if not holders:
                continue
            demand = sum(quotas[k][lab] for k in holders)
            pool = ds.class_index[lab]
            if demand > pool.size:
                raise ConfigError(
                    f"label {lab}: demand {demand} exceeds pool {pool.size} without replacement"
                )
            order = rng.permutation(pool)
            off = 0
            for k in holders:
                want = quotas[k][lab]
                picks[k].append(order[off : off + want])
                off += want
        rows = [np.concatenate(p) for p in picks]
    return [_make_shard(ds, start_id + k, idx, KIND_NORMAL) for k, idx in enumerate(rows)]


def partition_dirichlet(
    ds: LabeledDataset,
    num_clients: int,
    alpha: float,
    seed: int,
    start_id: int = 0,
) -> list[ClientShard]:
    """Distribution-based label imbalance: per label, client proportions are
    Dirichlet(alpha); per-label assigned counts always sum to the label's
    full sample budget. Clients that end up empty get their proportion
    column redrawn (bounded retries)."""
    if alpha <= 0:
        raise ConfigError("dirichlet alpha must be positive")
    rng = rng_stream(seed, "partition-dirichlet")
    C = ds.num_classes
    # Dirichlet rows via normalized Gammas so one client's column can be redrawn.
    gammas = rng.gamma(alpha, 1.0, size=(C, num_clients))

    counts = None
    for _ in range(DIRICHLET_RETRIES):
        w = gammas / gammas.sum(axis=1, keepdims=True)
        counts = np.zeros((C, num_clients), dtype=np.int64)
        for c in range(C):
            counts[c] = _split_by(w[c], ds.class_index[c].size)
        empty = np.flatnonzero(counts.sum(axis=0) == 0)
        if empty.size == 0:
            break
        gammas[:, empty] = rng.gamma(alpha, 1.0, size=(C, empty.size))
    else:
        raise ConfigError(f"dirichlet partition left a client empty after {DIRICHLET_RETRIES} retries")

    picks: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(C):
        pool = ds.class_index[c]
        for k in range(num_clients):
            if counts[c, k] > 0:
                picks[k].append(rng.choice(pool, size=counts[c, k], replace=False))
    return [
        _make_shard(ds, start_id + k, np.concatenate(picks[k]), KIND_NORMAL)
        for k in range(num_clients)
    ]


def make_anchor_shards(
    ds: LabeledDataset,
    num_experts: int,
    labels_per_anchor: int,
    seed: int,
    disjoint: bool = True,
    samples_per_anchor: int | None = None,
) -> list[ClientShard]:
    """The M anchor clients, anchor q pre-assigned to expert q.

    With `disjoint`, anchor label sets are drawn without replacement and are
    pairwise disjoint; otherwise each anchor's label mix is an independent
    Dirichlet(0.1) draw over all classes (overlap permitted).
    """
    C = ds.num_classes
    if disjoint and num_experts * labels_per_anchor > C:
        raise ConfigError(
            f"disjoint anchors need {num_experts * labels_per_anchor} labels but only {C} exist"
        )
    rng = rng_stream(seed, "anchors")
    if samples_per_anchor is None:
        samples_per_anchor = labels_per_anchor * (len(ds) // C)
    least = labels_per_anchor if disjoint else 1  # a disjoint anchor holds a sample of each of its labels
    if samples_per_anchor < least:
        raise ConfigError(f"samples_per_anchor {samples_per_anchor} smaller than {least}, the least an anchor holds")

    shards = []
    if disjoint:
        order = rng.permutation(C)[: num_experts * labels_per_anchor]
        for q in range(num_experts):
            labels = order[q * labels_per_anchor : (q + 1) * labels_per_anchor]
            wants = zip(labels, _split_evenly(samples_per_anchor, labels_per_anchor))
            shards.append(_make_shard(ds, q, _draw_per_label(rng, ds, wants), KIND_ANCHOR, q))
    else:
        for q in range(num_experts):
            wants = enumerate(_split_by(rng.dirichlet(np.full(C, 0.1)), samples_per_anchor))
            shards.append(_make_shard(ds, q, _draw_per_label(rng, ds, wants), KIND_ANCHOR, q))
    return shards


def make_test_clients(
    ds_test: LabeledDataset,
    num_test_clients: int,
    labels_per_client: int,
    seed: int,
    training_shards: list[ClientShard],
    samples_per_client: int | None = None,
    start_id: int = 0,
) -> list[ClientShard]:
    """Unseen test clients: each holds a random combination of
    `labels_per_client` labels whose label SET never occurs among the
    training shards (anchors included)."""
    C = ds_test.num_classes
    if labels_per_client > C:
        raise ConfigError("labels_per_client exceeds number of classes")
    seen = {shard.label_set for shard in training_shards}
    if samples_per_client is None:
        mean_size = int(round(np.mean([len(s) for s in training_shards])))
        samples_per_client = max(labels_per_client, mean_size)
    if samples_per_client < labels_per_client:
        raise ConfigError(f"samples_per_client {samples_per_client} smaller than labels_per_client")

    rng = rng_stream(seed, "test-clients")
    shards = []
    for u in range(num_test_clients):
        combo = None
        for _ in range(TEST_LABEL_SET_TRIES):
            cand = frozenset(rng.choice(C, size=labels_per_client, replace=False).tolist())
            if cand not in seen:
                combo = sorted(cand)
                break
        if combo is None:
            raise ConfigError(
                f"could not find an unseen {labels_per_client}-label combination "
                f"after {TEST_LABEL_SET_TRIES} tries (test client {u})"
            )
        wants = zip(combo, _split_evenly(samples_per_client, labels_per_client))
        shards.append(_make_shard(ds_test, start_id + u, _draw_per_label(rng, ds_test, wants), KIND_TEST))
    return shards


def save_feature_dataset(path, ds: LabeledDataset, meta: dict | None = None) -> None:
    """Ingestion hook: persist a pre-embedded feature dataset as a checkpoint
    container with one float64 block named "features" (the row-major
    N x dim matrix); labels, dim and class count ride in the meta."""
    info = {
        "kind": "feature_dataset",
        "num_classes": int(ds.num_classes),
        "dim": int(ds.dim),
        "labels": ds.labels.tolist(),
        **(meta or {}),
    }
    checkpoint.write(path, [{"name": "features"}], [ds.inputs], info)


def load_feature_dataset(path) -> LabeledDataset:
    """Read a feature dataset written by `save_feature_dataset`; a file that
    is not one, or whose header does not describe its block, raises
    ArtifactError, and a non-finite feature a NumericError naming the block."""
    entries, blocks, meta = checkpoint.read(path)
    if meta.get("kind") != "feature_dataset" or [e["name"] for e in entries] != ["features"]:
        raise ArtifactError(f"{path}: not a feature dataset checkpoint")
    try:
        labels, dim, num_classes = meta["labels"], meta["dim"], meta["num_classes"]
        if type(labels) is not list or any(type(v) is not int for v in [*labels, dim, num_classes]):
            raise ArtifactError(f"{path}: labels, dim and num_classes must be JSON ints")
        labels = np.asarray(labels, dtype=np.int64)
        if blocks[0].size != labels.size * dim:
            raise ArtifactError(f"{path}: feature block does not match {labels.size} labels x {dim}")
        return LabeledDataset(blocks[0].reshape(labels.size, dim), labels, num_classes)
    except NumericError as exc:
        raise exc.within(f"{path}: block 'features'") from exc
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"{path}: malformed feature dataset ({exc!r})") from exc

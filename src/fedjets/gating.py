"""Common-expert embeddings, gate scoring, top-K selection.

The common expert is a frozen feature extractor: each client embeds its
local data once, the embeddings are checked finite then, and the cache is
reused for every gate decision afterwards. The gate is a small MLP with a
softmax head whose output dimension is the number of experts; it is a plain
`nn.ParamVector` whose spec has that head. A client's route is `route`
on its embeddings: `select_topk` of the gate's scores, the sorted tuple of
its top-K expert ids, and each sample's expert among them. Training and
zero-shot testing both route with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .data import ClientShard, LabeledDataset
from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class CommonExpert:
    """Frozen pretrained network used only through its embeddings."""

    params: nn.ParamVector
    embed_layer: int

    def __post_init__(self):
        layers = self.params.spec.num_layers
        if not (0 <= self.embed_layer < layers):
            raise ConfigError(f"embed_layer {self.embed_layer} out of range for {layers} layers")

    @classmethod
    def from_net(cls, params: nn.ParamVector, embed_layer: int | None = None):
        """Default embedding point: the penultimate layer."""
        if embed_layer is None:
            embed_layer = max(0, params.spec.num_layers - 2)
        return cls(params.copy(), embed_layer)

    @property
    def embed_dim(self) -> int:
        return self.params.spec.layer_dims[self.embed_layer + 1]


def embed_inputs(common: CommonExpert, inputs: np.ndarray) -> np.ndarray:
    """One-time inference: activations of the common expert at embed_layer."""
    return nn.forward(common.params.spec, common.params.values, inputs, common.embed_layer)


def build_embedding_cache(
    common: CommonExpert, ds: LabeledDataset, shards: list[ClientShard]
) -> dict[int, np.ndarray]:
    """Every client's shard embeddings, row-aligned with shard.indices; a NumericError names the client."""
    cache = {}
    for shard in shards:
        try:
            cache[shard.client_id] = embed_inputs(common, ds.inputs[shard.indices])
        except NumericError as exc:
            raise exc.within(f"client {shard.client_id}") from exc
    return cache


def gate_spec(embed_dim: int, num_experts: int, hidden: int | None = None) -> nn.NetSpec:
    """Two-layer MLP with softmax head; hidden width defaults to 4*M."""
    if hidden is None:
        hidden = 4 * num_experts
    return nn.NetSpec.mlp((embed_dim, hidden, num_experts), head="softmax")


def gate_scores(gate: nn.ParamVector, embeddings: np.ndarray) -> np.ndarray:
    """Per-sample softmax distribution over experts, [n x M]."""
    if gate.spec.head != "softmax":
        raise ConfigError("gate network must have a softmax head")
    return nn.forward(gate.spec, gate.values, embeddings)


def select_topk(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """The sorted ids of the top-K experts by column-summed gate scores
    (`[n x M]`, from `gate_scores`); ties go to the lowest expert id."""
    m = scores.shape[1]
    if not (1 <= k <= m):
        raise ConfigError(f"top_k {k} out of range for {m} experts")
    # lexsort: primary key descending summed score, secondary ascending index
    order = np.lexsort((np.arange(m), -scores.sum(axis=0)))
    return tuple(sorted(order[:k].tolist()))


def route(gate: nn.ParamVector, embeddings: np.ndarray, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """One client's routing from one gate forward on its embeddings: the
    top-K expert ids, and each sample's expert (the selected one it scores
    highest). Sees no labels."""
    scores = gate_scores(gate, embeddings)
    experts = select_topk(scores, k)
    cols = np.array(experts, dtype=np.int64)
    # raw scores restricted to the selected set; argmax unchanged by renormalization
    return experts, cols[scores[:, cols].argmax(axis=1)]

"""Common-expert embeddings, gate scoring and routing.

The common expert is a frozen feature extractor, so a sample's embedding
does not depend on the client that holds it: the training set and the test
set are each embedded once, as a whole (`embed_inputs`), checked finite
then, and a client's embeddings are its rows of its set's. Those rows equal
the client's own forward except where BLAS takes another path: a one-row
client embedded alone is a matrix-vector product, and its row of the
whole-set matrix product may differ from it in the last bits. The gate is
an `nn.ParamVector` whose spec has a softmax head with one output per
expert. `route` on its scores is the one routing rule, for a stack of test
clients; training takes only its top-K half, `top_experts`, for one client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError


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


def gate_spec(embed_dim: int, num_experts: int, hidden: int | None = None) -> nn.NetSpec:
    """Two-layer MLP with softmax head; hidden width defaults to 4*M."""
    if hidden is None:
        hidden = 4 * num_experts
    return nn.NetSpec.mlp((embed_dim, hidden, num_experts), head="softmax")


def gate_scores(gate: nn.ParamVector, embeddings: np.ndarray) -> np.ndarray:
    """Per-sample softmax distribution over experts, `[..., n, M]` on
    `[..., n, e]` embeddings: one client's rows, or the whole test set's."""
    if gate.spec.head != "softmax":
        raise ConfigError("gate network must have a softmax head")
    return nn.forward(gate.spec, gate.values, embeddings)


def top_experts(scores: np.ndarray, k: int) -> np.ndarray:
    """Each client's top-K expert ids `[..., K]` on gate scores `[n, M]` or a
    stack's `[..., n, M]`, ascending, by column-summed score with ties to the
    lowest id: the half of `route` that training reads. It sums a
    sample-major copy (the `nn` reduction rule); with M = 1 a stack's sums
    add in another order, but they cannot change a route."""
    m = scores.shape[-1]
    if not (1 <= k <= m):
        raise ConfigError(f"top_k {k} out of range for {m} experts")
    sums = np.moveaxis(scores, -2, 0).copy().sum(axis=0)
    # a stable sort keeps equal sums in ascending expert id
    return np.sort(np.argsort(-sums, axis=-1, kind="stable")[..., :k], axis=-1)


def route(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The routing rule, on gate scores `[n, M]` or a stack's `[..., n, M]`:
    each client's `top_experts`, and each sample's expert `[..., n]`, the
    selected one it scores highest, the lowest id on a tie, picked by
    `nn.first_argmax` on an expert-major copy. Sees no labels."""
    experts = top_experts(scores, k)
    selected = (experts[..., None] == np.arange(scores.shape[-1])).any(axis=-2)  # [..., M]
    # raw scores restricted to the selected set; argmax unchanged by renormalization
    by_expert = np.moveaxis(scores, -1, 0).copy()  # [M, ..., n]
    by_expert[~np.moveaxis(selected, -1, 0)] = -np.inf
    return experts, nn.first_argmax(by_expert)

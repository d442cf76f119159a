"""Scoring of unseen test clients and per-sample routing.

Test clients are never adapted. Under FedJETs the gate scores a client's
unlabeled embeddings once; the top-K experts and each sample's expert (the
selected expert with the highest gate score) both read those scores, and
that expert predicts the sample. Labels enter only when the finished
predictions are scored. `score_test_clients` is the one pass over the test
clients: it predicts each client once by the method's rule, and `run`'s
metrics and `eval`'s report both read their global accuracy, zero-shot
detail and routing from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .baselines import avg_ensemble_predict
from .central import model_accuracy
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .gating import CommonExpert, ExpertSelection, embed_inputs, gate_scores, select_topk
from .metrics import MetricsRecord
from .runtime import RunContext, ServerState
from .seeding import rng_stream


@dataclass
class ZeroShotReport:
    per_client_accuracy: dict[int, float]
    average_accuracy: float
    selections: dict[int, ExpertSelection]
    chosen_experts: dict[int, np.ndarray]  # per-sample expert ids

    def to_dict(self) -> dict:
        return {
            "average_accuracy": self.average_accuracy,
            "per_client": {
                str(cid): {
                    "accuracy": self.per_client_accuracy[cid],
                    "selected_experts": list(self.selections[cid].indices),
                    "chosen_expert_per_sample": self.chosen_experts[cid].tolist(),
                }
                for cid in sorted(self.per_client_accuracy)
            },
        }


@dataclass
class RoutingReport:
    rows: list[dict] = field(default_factory=list)  # client, incorrect, correct, error_rate
    average_error_rate: float = 0.0

    def to_csv(self) -> str:
        lines = ["client,incorrect,correct,error_rate"]
        for r in self.rows:
            lines.append(f"{r['client']},{r['incorrect']},{r['correct']},{r['error_rate']!r}")
        lines.append(f"average,,,{self.average_error_rate!r}")
        return "\n".join(lines) + "\n"


def _predict_client(
    state: ServerState,
    common: CommonExpert,
    inputs: np.ndarray,
    k: int,
    client_id: int,
    embeddings: np.ndarray | None = None,
):
    """Prediction path for one unseen client; sees inputs only, no labels.
    One gate forward: the top-K selection and each sample's expert read the
    same scores.

    Returns (selection, per-sample chosen expert ids, predicted labels).
    """
    if embeddings is None:
        embeddings = embed_inputs(common, inputs)
    scores = gate_scores(state.gate_params, embeddings)
    selection = select_topk(scores, k, client_id)
    cols = np.array(selection.indices, dtype=np.int64)
    # raw scores restricted to the selected set; argmax unchanged by renormalization
    chosen = cols[scores[:, cols].argmax(axis=1)]
    preds = np.empty(inputs.shape[0], dtype=np.int64)
    for e in np.unique(chosen):
        rows = np.flatnonzero(chosen == e)
        expert = state.expert_params[e]
        preds[rows] = nn.forward(expert.spec, expert, inputs[rows]).argmax(axis=1)
    return selection, chosen, preds


def zero_shot_eval(
    state: ServerState,
    common: CommonExpert,
    test_shards: list[ClientShard],
    test_ds: LabeledDataset,
    k: int,
    cache: dict[int, np.ndarray] | None = None,
) -> ZeroShotReport:
    """Zero-shot personalization score over unseen test clients, each
    predicted once."""
    if state.gate_params is None:
        raise ConfigError("zero-shot evaluation needs a server-side gate")
    per_acc, selections, chosen_map = {}, {}, {}
    for shard in sorted(test_shards, key=lambda s: s.client_id):
        inputs = test_ds.inputs[shard.indices]
        emb = None if cache is None else cache[shard.client_id]
        selection, chosen, preds = _predict_client(
            state, common, inputs, k, shard.client_id, embeddings=emb
        )
        labels = test_ds.labels[shard.indices]  # labels used only to score
        per_acc[shard.client_id] = float(np.mean(preds == labels))
        selections[shard.client_id] = selection
        chosen_map[shard.client_id] = chosen
    avg = float(np.mean(list(per_acc.values())))
    return ZeroShotReport(per_acc, avg, selections, chosen_map)


def common_expert_accuracy(
    common: CommonExpert, test_shards: list[ClientShard], test_ds: LabeledDataset
) -> float:
    """The common expert's own head as the baseline classifier, scored like
    `zero_shot_eval`: mean of the per-client accuracies on the test clients."""
    per_acc = [
        model_accuracy(common.params, test_ds.inputs[s.indices], test_ds.labels[s.indices])
        for s in sorted(test_shards, key=lambda s: s.client_id)
    ]
    return float(np.mean(per_acc))


def routing_ground_truth(anchor_shards: list[ClientShard]) -> dict[int, int] | None:
    """label -> expert map, defined only when anchor label sets are pairwise
    disjoint; None otherwise (the routing report is then disabled)."""
    mapping: dict[int, int] = {}
    for shard in anchor_shards:
        for lab in shard.label_set:
            if lab in mapping:
                return None
            mapping[lab] = shard.assigned_expert
    return mapping


def per_sample_routing_report(
    zero_shot: ZeroShotReport,
    test_shards: list[ClientShard],
    test_ds: LabeledDataset,
    label_to_expert: dict[int, int],
) -> RoutingReport:
    """A sample routes correctly iff its expert in the zero-shot pass (the
    per-sample argmax within the client's top-K) is the ground-truth expert
    of its label. Reads the pass's chosen experts; predicts nothing."""
    lookup = np.full(test_ds.num_classes, -1, dtype=np.int64)
    lookup[list(label_to_expert)] = list(label_to_expert.values())
    rows = []
    for shard in sorted(test_shards, key=lambda s: s.client_id):
        labels = test_ds.labels[shard.indices]
        truth = lookup[labels]
        if (truth < 0).any():
            unknown = np.unique(labels[truth < 0]).tolist()
            raise ConfigError(f"labels {unknown} missing from the label->expert map")
        correct = int(np.sum(zero_shot.chosen_experts[shard.client_id] == truth))
        incorrect = len(shard) - correct
        rows.append(
            {
                "client": shard.client_id,
                "incorrect": incorrect,
                "correct": correct,
                "error_rate": incorrect / len(shard),
            }
        )
    return RoutingReport(rows, float(np.mean([r["error_rate"] for r in rows])))


# ---------------------------------------------------------------------------
# Per-method scoring of unseen test clients (all methods)


def _fedmix_predict(ctx: RunContext, state: ServerState, shard: ClientShard) -> np.ndarray:
    """FedMix zero-shot: an unseen client starts a fresh local gate and
    predicts with the mixture over all experts (nothing to rank with)."""
    gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-test-gate", shard.client_id))
    weights = gate_scores(gate, ctx.test_cache[shard.client_id])
    inputs = ctx.test_ds.inputs[shard.indices]
    return nn.mixture_forward(ctx.expert_spec, state.expert_params, weights, inputs).argmax(axis=1)


def client_predictor(ctx: RunContext, state: ServerState, method: str):
    """A baseline's prediction rule for one unseen test client: a function
    from a test shard to its predicted labels; it never sees the labels.
    FedJETs predicts through `zero_shot_eval`."""
    inputs = ctx.test_ds.inputs
    if method in ("fedavg", "fedprox"):
        model = state.expert_params[0]
        return lambda s: nn.forward(model.spec, model, inputs[s.indices]).argmax(axis=1)
    if method == "avg_ensemble":
        return lambda s: avg_ensemble_predict(state.expert_params, inputs[s.indices])
    if method == "fedmix":
        return lambda s: _fedmix_predict(ctx, state, s)
    raise ConfigError(f"unknown method {method!r}")


@dataclass
class ScoringPass:
    """What one pass over the unseen test clients gives: every method's
    global accuracy (mean per-client accuracy); under FedJETs also the
    zero-shot detail and, when the anchors give ground truth for every test
    label, the per-sample routing of the same predictions."""

    global_acc: float
    zero_shot: ZeroShotReport | None = None
    routing: RoutingReport | None = None


def score_test_clients(ctx: RunContext, state: ServerState, method: str) -> ScoringPass:
    """Predict each unseen test client once by the method's rule and score
    the predictions."""
    shards = sorted(ctx.test_shards, key=lambda s: s.client_id)
    if method != "fedjets":
        predict = client_predictor(ctx, state, method)
        per_acc = [float(np.mean(predict(s) == ctx.test_ds.labels[s.indices])) for s in shards]
        return ScoringPass(float(np.mean(per_acc)))
    zs = zero_shot_eval(state, ctx.common, shards, ctx.test_ds, ctx.cfg.top_k, cache=ctx.test_cache)
    truth = routing_ground_truth(ctx.anchor_shards)
    if truth is None or not set().union(*(s.label_set for s in shards)) <= set(truth):
        return ScoringPass(zs.average_accuracy, zs)
    return ScoringPass(zs.average_accuracy, zs, per_sample_routing_report(zs, shards, ctx.test_ds, truth))


def evaluate_round(
    ctx: RunContext,
    state: ServerState,
    method: str,
    round_idx: int,
    floats_down_cum: float,
    floats_up_cum: float,
) -> MetricsRecord:
    test_ds = ctx.test_ds
    per_expert = [model_accuracy(p, test_ds.inputs, test_ds.labels) for p in state.expert_params]
    scores = score_test_clients(ctx, state, method)
    return MetricsRecord(
        round=round_idx,
        method=method,
        global_acc=scores.global_acc,
        per_expert_acc=per_expert,
        routing_acc=None if scores.routing is None else 1.0 - scores.routing.average_error_rate,
        floats_down_cum=floats_down_cum,
        floats_up_cum=floats_up_cum,
    )


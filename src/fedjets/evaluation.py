"""Zero-shot testing, per-sample routing diagnostics, scenario runner.

Test clients are never adapted: the gate picks top-K experts from the
client's unlabeled embeddings, then every sample is predicted by the single
selected expert with the highest per-sample gate score. Labels enter only
when scoring the finished predictions. `client_predictor` is the one place
that knows how each method predicts an unseen client; `run`'s metrics and
`eval`'s report both score through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .baselines import avg_ensemble_predict
from .central import model_accuracy
from .config import ScenarioRange
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .gating import CommonExpert, ExpertSelection, GateNet, embed_inputs, gate_scores, select_topk
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

    Returns (selection, per-sample chosen expert ids, predicted labels).
    """
    if embeddings is None:
        embeddings = embed_inputs(common, inputs)
    gate = GateNet(state.gate_spec, state.gate_params)
    selection = select_topk(gate, embeddings, k, client_id=client_id)
    scores = gate_scores(gate, embeddings)
    cols = list(selection.indices)
    # raw scores restricted to the selected set; argmax unchanged by renormalization
    local_best = scores[:, cols].argmax(axis=1)
    chosen = np.array([cols[j] for j in local_best], dtype=np.int64)
    preds = np.empty(inputs.shape[0], dtype=np.int64)
    for e in sorted(set(chosen.tolist())):
        rows = np.flatnonzero(chosen == e)
        logits = nn.forward(state.expert_spec, state.expert_params[e], inputs[rows])
        preds[rows] = logits.argmax(axis=1)
    return selection, chosen, preds


def zero_shot_eval(
    state: ServerState,
    common: CommonExpert,
    test_shards: list[ClientShard],
    test_ds: LabeledDataset,
    k: int,
    cache: dict[int, np.ndarray] | None = None,
) -> ZeroShotReport:
    """Zero-shot personalization score over unseen test clients."""
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
        model_accuracy(common.spec, common.params, test_ds.inputs[s.indices], test_ds.labels[s.indices])
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
    state: ServerState,
    common: CommonExpert,
    test_shards: list[ClientShard],
    test_ds: LabeledDataset,
    label_to_expert: dict[int, int],
    k: int,
    cache: dict[int, np.ndarray] | None = None,
) -> RoutingReport:
    """A sample routes correctly iff its per-sample argmax expert (within
    the client's top-K) matches the ground-truth expert of its label."""
    rows = []
    for shard in sorted(test_shards, key=lambda s: s.client_id):
        labels = test_ds.labels[shard.indices]
        unknown = [int(l) for l in np.unique(labels) if int(l) not in label_to_expert]
        if unknown:
            raise ConfigError(f"labels {unknown} missing from the label->expert map")
        inputs = test_ds.inputs[shard.indices]
        emb = None if cache is None else cache[shard.client_id]
        _, chosen, _ = _predict_client(state, common, inputs, k, shard.client_id, embeddings=emb)
        truth = np.array([label_to_expert[int(l)] for l in labels])
        correct = int(np.sum(chosen == truth))
        incorrect = len(shard) - correct
        rows.append(
            {
                "client": shard.client_id,
                "incorrect": incorrect,
                "correct": correct,
                "error_rate": incorrect / len(shard),
            }
        )
    avg = float(np.mean([r["error_rate"] for r in rows])) if rows else 0.0
    return RoutingReport(rows, avg)


# ---------------------------------------------------------------------------
# Per-method scoring of unseen test clients (all methods)


def _fedmix_predict(ctx: RunContext, state: ServerState, shard: ClientShard) -> np.ndarray:
    """FedMix zero-shot: an unseen client starts a fresh local gate and
    predicts with the mixture over all experts (nothing to rank with)."""
    gate = GateNet(
        ctx.gate_spec,
        nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-test-gate", shard.client_id)),
    )
    weights = gate_scores(gate, ctx.test_cache[shard.client_id])
    inputs = ctx.test_ds.inputs[shard.indices]
    return nn.mixture_forward(ctx.expert_spec, state.expert_params, weights, inputs).argmax(axis=1)


def client_predictor(ctx: RunContext, state: ServerState, method: str):
    """The method's prediction rule for one unseen test client: a function
    from a test shard to its predicted labels; it never sees the labels."""
    inputs = ctx.test_ds.inputs
    if method == "fedjets":
        return lambda s: _predict_client(
            state, ctx.common, inputs[s.indices], ctx.cfg.top_k, s.client_id, ctx.test_cache[s.client_id]
        )[2]
    if method in ("fedavg", "fedprox"):
        return lambda s: nn.forward(state.expert_spec, state.expert_params[0], inputs[s.indices]).argmax(axis=1)
    if method == "avg_ensemble":
        models = [(state.expert_spec, p) for p in state.expert_params]
        return lambda s: avg_ensemble_predict(models, inputs[s.indices])
    if method == "fedmix":
        return lambda s: _fedmix_predict(ctx, state, s)
    raise ConfigError(f"unknown method {method!r}")


def global_accuracy(ctx: RunContext, state: ServerState, method: str) -> float:
    """Mean of the per-client accuracies on the unseen test clients, each
    client predicted by the method's own rule."""
    predict = client_predictor(ctx, state, method)
    per_acc = [
        float(np.mean(predict(s) == ctx.test_ds.labels[s.indices]))
        for s in sorted(ctx.test_shards, key=lambda s: s.client_id)
    ]
    return float(np.mean(per_acc))


def routing_of(ctx: RunContext, state: ServerState) -> RoutingReport | None:
    """Per-sample routing of the state on the test clients; None for a state
    without a gate, or when the anchors give no ground truth for every test
    label."""
    if state.gate_params is None:
        return None
    truth = routing_ground_truth(ctx.anchor_shards)
    test_labels = set().union(*(s.label_set for s in ctx.test_shards))
    if truth is None or not test_labels <= set(truth):
        return None
    return per_sample_routing_report(
        state, ctx.common, ctx.test_shards, ctx.test_ds, truth, ctx.cfg.top_k, cache=ctx.test_cache
    )


def evaluate_round(
    ctx: RunContext,
    state: ServerState,
    method: str,
    round_idx: int,
    floats_down_cum: float,
    floats_up_cum: float,
) -> MetricsRecord:
    test_ds = ctx.test_ds
    per_expert = [
        model_accuracy(state.expert_spec, p, test_ds.inputs, test_ds.labels)
        for p in state.expert_params
    ]
    global_acc = global_accuracy(ctx, state, method)
    routing = routing_of(ctx, state)
    return MetricsRecord(
        round=round_idx,
        method=method,
        global_acc=global_acc,
        per_expert_acc=per_expert,
        routing_acc=None if routing is None else 1.0 - routing.average_error_rate,
        floats_down_cum=floats_down_cum,
        floats_up_cum=floats_up_cum,
    )


def run_scenario(ctx: RunContext, schedule: list[ScenarioRange] | None = None):
    """Training under an incremental-learning schedule: each round's normal
    clients are drawn only from the schedule range covering that round.

    With schedule=None the context's own scenario config applies; a single
    range covering every round with the full pool reproduces run_training.
    """
    from .runtime import run_training

    if schedule is not None:
        cfg = dataclasses.replace(ctx.cfg, scenario=schedule).validate()
        ctx = dataclasses.replace(ctx, cfg=cfg)
    return run_training(ctx)

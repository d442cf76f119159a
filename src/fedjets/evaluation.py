"""Scoring of unseen test clients and per-sample routing.

Test clients are never adapted. Under FedJETs `route` scores a client's
cached, unlabeled embeddings with the gate once; the top-K experts and each
sample's expert (the selected expert with the highest gate score) both read
those scores, and that expert predicts the sample. Labels enter only when
the finished predictions are scored. `score_test_clients` is the one pass
over the test clients: it predicts each client once by the method's rule,
and `run`'s metrics and `eval`'s report both read their global accuracy,
zero-shot detail and routing from it.

One forward per network per evaluation: `expert_logits` forwards each
server network once on the whole test set, and `per_expert_acc` and every
method's per-client rule read those logits at the client's rows; only the
gate side runs per client. A gemm row's bits can depend on the number of
rows in the call, so the stated tolerance is that the predicted labels equal
those of forwarding each network on each client's own rows (tested), not
that the logits do; logits never reach an artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .baselines import avg_ensemble_predict
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .gating import CommonExpert, gate_scores, select_topk
from .metrics import MetricsRecord
from .runtime import RunContext, ServerState
from .seeding import rng_stream


@dataclass
class ZeroShotReport:
    per_client_accuracy: dict[int, float]
    average_accuracy: float
    selections: dict[int, tuple[int, ...]]  # top-K expert ids
    chosen_experts: dict[int, np.ndarray]  # per-sample expert ids

    def to_dict(self) -> dict:
        return {
            "average_accuracy": self.average_accuracy,
            "per_client": {
                str(cid): {
                    "accuracy": self.per_client_accuracy[cid],
                    "selected_experts": list(self.selections[cid]),
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


def expert_logits(experts: list[nn.ParamVector], inputs: np.ndarray) -> list[np.ndarray]:
    """Each network's output on all of `inputs` (`[N, C]` each): the one
    forward per network that an evaluation makes."""
    return [nn.forward(p.spec, p, inputs) for p in experts]


def route(gate: nn.ParamVector, embeddings: np.ndarray, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """One client's routing from one gate forward on its embeddings: the
    top-K expert ids, and each sample's expert (the selected one it scores
    highest). Sees no labels."""
    scores = gate_scores(gate, embeddings)
    experts = select_topk(scores, k)
    cols = np.array(experts, dtype=np.int64)
    # raw scores restricted to the selected set; argmax unchanged by renormalization
    return experts, cols[scores[:, cols].argmax(axis=1)]


def zero_shot_eval(
    state: ServerState,
    test_shards: list[ClientShard],
    test_ds: LabeledDataset,
    k: int,
    cache: dict[int, np.ndarray],
    logits: list[np.ndarray],
) -> ZeroShotReport:
    """Zero-shot personalization score over unseen test clients, each routed
    from its `cache` embeddings and predicted once: a sample's label is its
    expert's argmax in `logits` (the experts' `expert_logits` on
    `test_ds.inputs`)."""
    if state.gate_params is None:
        raise ConfigError("zero-shot evaluation needs a server-side gate")
    table = np.stack([out.argmax(axis=1) for out in logits])  # [M, N_test] labels per expert
    per_acc, selections, chosen_map = {}, {}, {}
    for shard in sorted(test_shards, key=lambda s: s.client_id):
        cid = shard.client_id
        selections[cid], chosen_map[cid] = route(state.gate_params, cache[cid], k)
        preds = table[chosen_map[cid], shard.indices]
        per_acc[cid] = float(np.mean(preds == test_ds.labels[shard.indices]))  # labels used only to score
    avg = float(np.mean(list(per_acc.values())))
    return ZeroShotReport(per_acc, avg, selections, chosen_map)


def _mean_client_accuracy(predict, shards: list[ClientShard], test_ds: LabeledDataset) -> float:
    """Mean over the shards, in client order, of each one's accuracy under
    `predict` (a function from a shard to its predicted labels)."""
    ordered = sorted(shards, key=lambda s: s.client_id)
    return float(np.mean([float(np.mean(predict(s) == test_ds.labels[s.indices])) for s in ordered]))


def common_expert_accuracy(
    common: CommonExpert, test_shards: list[ClientShard], test_ds: LabeledDataset
) -> float:
    """The common expert's own head as the baseline classifier, scored like
    `zero_shot_eval`: one forward on the test set, then the mean of the
    per-client accuracies on the test clients."""
    preds = nn.forward(common.params.spec, common.params, test_ds.inputs).argmax(axis=1)
    return _mean_client_accuracy(lambda s: preds[s.indices], test_shards, test_ds)


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


def _fedmix_predict(ctx: RunContext, logits: list[np.ndarray], shard: ClientShard) -> np.ndarray:
    """FedMix zero-shot: an unseen client starts a fresh local gate and
    predicts with the mixture over all experts (nothing to rank with): the
    gate-weighted sum of the experts' logits, in expert order."""
    gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-test-gate", shard.client_id))
    weights = gate_scores(gate, ctx.test_cache[shard.client_id])
    combined = weights[:, 0:1] * logits[0][shard.indices]
    for k in range(1, len(logits)):
        combined = combined + weights[:, k : k + 1] * logits[k][shard.indices]
    return combined.argmax(axis=1)


def client_predictor(ctx: RunContext, method: str, logits: list[np.ndarray]):
    """A baseline's prediction rule for one unseen test client: a function
    from a test shard to its predicted labels, read from the server
    networks' `expert_logits` on the test set; it never sees the labels.
    FedJETs predicts through `zero_shot_eval`."""
    if method in ("fedavg", "fedprox"):
        preds = logits[0].argmax(axis=1)
    elif method == "avg_ensemble":
        preds = avg_ensemble_predict(logits)
    elif method == "fedmix":
        return lambda s: _fedmix_predict(ctx, logits, s)
    else:
        raise ConfigError(f"unknown method {method!r}")
    return lambda s: preds[s.indices]


@dataclass
class ScoringPass:
    """What one pass over the unseen test clients gives: every method's
    global accuracy (mean per-client accuracy); under FedJETs also the
    zero-shot detail and, when the anchors give ground truth for every test
    label, the per-sample routing of the same predictions."""

    global_acc: float
    zero_shot: ZeroShotReport | None = None
    routing: RoutingReport | None = None


def score_test_clients(
    ctx: RunContext, state: ServerState, method: str, logits: list[np.ndarray] | None = None
) -> ScoringPass:
    """Predict each unseen test client once by the method's rule and score
    the predictions. `logits` are the server networks' `expert_logits` on
    the test set, computed here when not given."""
    shards = sorted(ctx.test_shards, key=lambda s: s.client_id)
    if logits is None:
        logits = expert_logits(state.expert_params, ctx.test_ds.inputs)
    if method != "fedjets":
        return ScoringPass(_mean_client_accuracy(client_predictor(ctx, method, logits), shards, ctx.test_ds))
    zs = zero_shot_eval(state, shards, ctx.test_ds, ctx.cfg.top_k, ctx.test_cache, logits)
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
    logits = expert_logits(state.expert_params, ctx.test_ds.inputs)
    per_expert = [float(np.mean(out.argmax(axis=1) == ctx.test_ds.labels)) for out in logits]
    scores = score_test_clients(ctx, state, method, logits)
    return MetricsRecord(
        round=round_idx,
        method=method,
        global_acc=scores.global_acc,
        per_expert_acc=per_expert,
        routing_acc=None if scores.routing is None else 1.0 - scores.routing.average_error_rate,
        floats_down_cum=floats_down_cum,
        floats_up_cum=floats_up_cum,
    )

"""Scoring of unseen test clients and per-sample routing.

Test clients are never adapted. `client_predictor` is every method's
prediction rule for one unseen client. Under FedJETs `gating.route` scores
the client's cached, unlabeled embeddings with the gate once; the top-K
experts and each sample's expert (the selected expert with the highest gate
score) both read those scores, and that expert predicts the sample. Labels
enter only when the finished predictions are scored. `score_test_clients`
is the one pass over the test clients for every method: it predicts each
client once by the method's rule, and `run`'s metrics and `eval`'s report
both read their global accuracy, zero-shot detail and routing from it.

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
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .gating import CommonExpert, gate_scores, route
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
    return [nn.forward(p.spec, p.values, inputs) for p in experts]


def common_expert_accuracy(
    common: CommonExpert, test_shards: list[ClientShard], test_ds: LabeledDataset
) -> float:
    """The common expert's own head as the baseline classifier, scored like
    `score_test_clients`: one forward on the test set, then the mean of the
    per-client accuracies on the test clients in client order."""
    preds = nn.forward(common.params.spec, common.params.values, test_ds.inputs).argmax(axis=1)
    shards = sorted(test_shards, key=lambda s: s.client_id)
    return float(np.mean([float(np.mean(preds[s.indices] == test_ds.labels[s.indices])) for s in shards]))


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
    chosen_experts: dict[int, np.ndarray],
    test_shards: list[ClientShard],
    test_ds: LabeledDataset,
    label_to_expert: dict[int, int],
) -> RoutingReport:
    """A sample routes correctly iff its expert in `chosen_experts` (each
    test client's per-sample argmax within its top-K, as `gating.route`
    gives it) is the ground-truth expert of its label. Predicts nothing."""
    lookup = np.full(test_ds.num_classes, -1, dtype=np.int64)
    lookup[list(label_to_expert)] = list(label_to_expert.values())
    rows = []
    for shard in sorted(test_shards, key=lambda s: s.client_id):
        labels = test_ds.labels[shard.indices]
        truth = lookup[labels]
        if (truth < 0).any():
            unknown = np.unique(labels[truth < 0]).tolist()
            raise ConfigError(f"labels {unknown} missing from the label->expert map")
        correct = int(np.sum(chosen_experts[shard.client_id] == truth))
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


def client_predictor(ctx: RunContext, state: ServerState, method: str, logits: list[np.ndarray]):
    """Every method's rule for one unseen test client: a function from a test
    shard to its predicted labels and route, read from the server networks'
    `expert_logits` on the test set, never from labels. FedJETs routes with
    `gating.route` on the cached embeddings; other methods' route is None."""
    if method == "fedjets":
        if state.gate_params is None:
            raise ConfigError("zero-shot evaluation needs a server-side gate")
        table = np.stack([out.argmax(axis=1) for out in logits])  # [M, N_test] labels per expert

        def predict(s: ClientShard):
            experts, chosen = route(state.gate_params, ctx.test_cache[s.client_id], ctx.cfg.top_k)
            return table[chosen, s.indices], (experts, chosen)

        return predict
    if method in ("fedavg", "fedprox"):
        preds = logits[0].argmax(axis=1)
    elif method == "avg_ensemble":  # the members' mean softmax, summed in member order
        mean = nn.softmax(logits[0])
        for out in logits[1:]:
            mean = mean + nn.softmax(out)
        preds = (mean / len(logits)).argmax(axis=1)
    elif method == "fedmix":
        return lambda s: (_fedmix_predict(ctx, logits, s), None)
    else:
        raise ConfigError(f"unknown method {method!r}")
    return lambda s: (preds[s.indices], None)


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
    predict = client_predictor(ctx, state, method, logits)
    per_acc, routes = {}, {}
    for s in shards:
        preds, routes[s.client_id] = predict(s)
        per_acc[s.client_id] = float(np.mean(preds == ctx.test_ds.labels[s.indices]))  # labels used only to score
    avg = float(np.mean(list(per_acc.values())))
    if method != "fedjets":
        return ScoringPass(avg)
    chosen = {cid: r[1] for cid, r in routes.items()}
    zs = ZeroShotReport(per_acc, avg, {cid: r[0] for cid, r in routes.items()}, chosen)
    truth = routing_ground_truth(ctx.anchor_shards)
    if truth is None or not set().union(*(s.label_set for s in shards)) <= set(truth):
        return ScoringPass(avg, zs)
    return ScoringPass(avg, zs, per_sample_routing_report(chosen, shards, ctx.test_ds, truth))


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

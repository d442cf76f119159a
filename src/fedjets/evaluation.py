"""Scoring of unseen test clients and per-sample routing.

Test clients are never adapted. `client_predictor` is every method's
prediction rule for a stack of unseen clients, and `score_test_clients` the
one pass over them that `run`'s metrics and `eval`'s report both read. Under
FedJETs the gate scores the clients' unlabeled embeddings, and `gating.route`
reads each client's top-K experts and each sample's expert (the selected one
with the highest score) from them; that expert predicts the sample. Labels
enter only when the finished predictions are scored.

One forward and one argmax per network per evaluation: `expert_outputs`
forwards each server network once on the whole test set and takes its
labels once, FedJETs' gate runs once on the test set's one embedding, and
every rule reads them at the rows of a stack of `client_stacks`. FedMix
sums class-major, each expert's `[C, N_test]` transpose gathered at a
stack's rows in one take, so each sample adds the same products in the
same (expert) order as a `[T, n, C]` gather. A run context keeps what no server state changes, from
its first evaluation on: the stacks, the routing ground truth, and FedMix's
test-gate weights (`[M, T, n]` a stack), each stack's `[T, P_g]` gates
forwarded as one, bit for bit each client's own forward. A gemm row's bits
can depend on the number of rows in a call, so the tolerance is that routes
and labels equal those of forwarding each network on each client's own
rows (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gating, nn, runtime
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .gating import CommonExpert
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


def expert_outputs(experts: list[nn.ParamVector], inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each network's output on all of `inputs` (`[N, C]` each) and its
    labels (`[M, N]`): the one forward and the one argmax per network that
    an evaluation makes."""
    logits = [nn.forward(p.spec, p.values, inputs) for p in experts]
    return logits, np.stack([out.argmax(axis=1) for out in logits])


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


def client_stacks(test_shards: list[ClientShard]) -> list[tuple[list[ClientShard], np.ndarray]]:
    """The test clients as stacks that score as one: each stack's shards, of
    one size n (so none is padded) and in client order, cut by
    `runtime.cut_stacks`, and their `[T, n]` rows of the test set."""
    groups: dict[int, list[ClientShard]] = {}
    for s in sorted(test_shards, key=lambda s: s.client_id):
        groups.setdefault(len(s), []).append(s)
    return [(cut, np.stack([s.indices for s in cut])) for n, g in groups.items() for cut in runtime.cut_stacks(g, n)]


def per_sample_routing_report(
    stacks: list, chosen_experts: list[np.ndarray], test_ds: LabeledDataset, label_to_expert: dict[int, int]
) -> RoutingReport:
    """A sample routes correctly iff its expert in `chosen_experts` (each of
    the `client_stacks`' `[T, n]` per-sample experts, from `gating.route`) is
    the ground-truth expert of its label. Predicts nothing."""
    lookup = np.full(test_ds.num_classes, -1, dtype=np.int64)
    lookup[list(label_to_expert)] = list(label_to_expert.values())
    rows = []
    for (shards, idx), chosen in zip(stacks, chosen_experts):
        labels = test_ds.labels[idx]
        truth = lookup[labels]
        if (truth < 0).any():
            unknown = np.unique(labels[truth < 0]).tolist()
            raise ConfigError(f"labels {unknown} missing from the label->expert map")
        n = idx.shape[1]
        for s, c in zip(shards, (chosen == truth).sum(axis=1).tolist()):
            rows.append({"client": s.client_id, "incorrect": n - c, "correct": c, "error_rate": (n - c) / n})
    rows.sort(key=lambda r: r["client"])
    return RoutingReport(rows, float(np.mean([r["error_rate"] for r in rows])))


# ---------------------------------------------------------------------------
# Per-method scoring of unseen test clients (all methods)


def _test_side(ctx: RunContext) -> tuple[list, dict[int, int] | None]:
    """The test clients' `client_stacks`, and the anchors' `routing_ground_truth`
    when it maps every test label (else None: no routing report); made once per context."""
    if ctx.test_side is None:
        truth = routing_ground_truth(ctx.anchor_shards)
        covered = truth is not None and set().union(*(s.label_set for s in ctx.test_shards)) <= set(truth)
        ctx.test_side = (client_stacks(ctx.test_shards), truth if covered else None)
    return ctx.test_side


def client_predictor(ctx: RunContext, state: ServerState, method: str, logits: list[np.ndarray], labels: np.ndarray):
    """Every method's rule for unseen test clients: a function from a stack's
    shards and rows (`client_stacks`) to its `[T, n]` predicted labels and
    route, read from the server networks' `expert_outputs` on the test set
    (their logits and their `[M, N_test]` labels), never from the test
    labels. FedJETs' route is `gating.route`'s; others' is None."""
    if method == "fedjets":
        if state.gate_params is None:
            raise ConfigError("zero-shot evaluation needs a server-side gate")
        scores = gating.gate_scores(state.gate_params, ctx.test_embeddings)  # [N_test, M]

        def predict(shards, idx):
            experts, chosen = gating.route(scores[idx], ctx.cfg.top_k)
            return labels[chosen, idx], (experts, chosen)

        return predict
    if method in ("fedavg", "fedprox"):
        preds = labels[0]
    elif method == "avg_ensemble":  # the members' mean softmax, summed in member order
        mean = nn.softmax(logits[0])
        for out in logits[1:]:
            mean = mean + nn.softmax(out)
        preds = (mean / len(logits)).argmax(axis=1)
    elif method == "fedmix":  # a fresh gate per client, forwarded once per context, weights all experts
        if ctx.fedmix_test_weights is None:
            test_weights = {}
            for shards, idx in _test_side(ctx)[0]:
                streams = {s.client_id: rng_stream(ctx.cfg.seed, "fedmix-test-gate", s.client_id) for s in shards}
                gates = np.stack([nn.init_params(ctx.gate_spec, rng).values for rng in streams.values()])
                out = nn.forward(ctx.gate_spec, gates, ctx.test_embeddings[idx])  # [T, n, M]
                test_weights[tuple(streams)] = np.ascontiguousarray(out.transpose(2, 0, 1))  # [M, T, n]
            ctx.fedmix_test_weights = test_weights
        classes = [np.ascontiguousarray(out.T) for out in logits]  # [C, N_test] each: summed class-major

        def predict(shards, idx):
            rows = idx.reshape(-1)
            weights = ctx.fedmix_test_weights[tuple(s.client_id for s in shards)].reshape(len(logits), -1)
            combined = np.take(classes[0], rows, axis=1)  # [C, T*n]
            combined *= weights[0]
            for out, w in zip(classes[1:], weights[1:]):
                term = np.take(out, rows, axis=1)
                term *= w
                combined += term
            return combined.argmax(axis=0).reshape(idx.shape), None

        return predict
    else:
        raise ConfigError(f"unknown method {method!r}")
    return lambda shards, idx: (preds[idx], None)


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
    ctx: RunContext, state: ServerState, method: str, outputs: tuple[list[np.ndarray], np.ndarray] | None = None
) -> ScoringPass:
    """Predict each unseen test client once by the method's rule, a stack at
    a time, and score the predictions. `outputs` are the server networks'
    `expert_outputs` on the test set, computed here when not given."""
    if outputs is None:
        outputs = expert_outputs(state.expert_params, ctx.test_ds.inputs)
    predict = client_predictor(ctx, state, method, *outputs)
    stacks, truth = _test_side(ctx)
    per_acc, selections, per_sample, chosen = {}, {}, {}, []
    for shards, idx in stacks:
        preds, route = predict(shards, idx)
        cids = [s.client_id for s in shards]
        per_acc.update(zip(cids, (preds == ctx.test_ds.labels[idx]).mean(axis=1).tolist()))  # labels used only to score
        if route is not None:
            selections.update(zip(cids, map(tuple, route[0].tolist())))
            per_sample.update(zip(cids, route[1]))
            chosen.append(route[1])
    per_acc = dict(sorted(per_acc.items()))
    avg = float(np.mean(list(per_acc.values())))
    if method != "fedjets":
        return ScoringPass(avg)
    zs = ZeroShotReport(per_acc, avg, dict(sorted(selections.items())), dict(sorted(per_sample.items())))
    routing = None if truth is None else per_sample_routing_report(stacks, chosen, ctx.test_ds, truth)
    return ScoringPass(avg, zs, routing)


def evaluate_round(
    ctx: RunContext,
    state: ServerState,
    method: str,
    round_idx: int,
    floats_down_cum: float,
    floats_up_cum: float,
) -> MetricsRecord:
    outputs = expert_outputs(state.expert_params, ctx.test_ds.inputs)
    scores = score_test_clients(ctx, state, method, outputs)
    return MetricsRecord(
        round=round_idx,
        method=method,
        global_acc=scores.global_acc,
        per_expert_acc=(outputs[1] == ctx.test_ds.labels).mean(axis=1).tolist(),
        routing_acc=None if scores.routing is None else 1.0 - scores.routing.average_error_rate,
        floats_down_cum=floats_down_cum,
        floats_up_cum=floats_up_cum,
    )

"""Scoring of unseen test clients and per-sample routing.

`client_predictor` is every method's prediction rule for a stack of unseen
clients, and `score_test_clients` the one pass over them that `run`'s
metrics and `eval`'s report both read. One forward and one argmax per
network per evaluation: `expert_outputs` forwards each server network once
on the whole test set and takes its labels once, FedJETs' gate runs once
on the test set's one embedding, and every rule reads them at a
`ClientStack`'s rows. The pass fills arrays in client order, each stack's
clients at their `ClientStack.slots`, so a record, the mean of the ordered
accuracies (and routing error rates), builds no per-client mapping. The
`ScoringPass` views by client id, which `eval`'s report reads, are derived
from those arrays when first read.

The test side is made once per run context: the first evaluation keeps the
`ClientStack`s in `RunContext.test_stacks`, and FedMix keeps each stack's
test-gate weights from its first prediction. They depend only on the seed,
the client ids and the test embeddings, so no server state changes them,
and a later evaluation gathers no test label and draws no gate. FedMix
draws a stack's T test gates from their client streams and forwards them as
one, `[T, P_g]` rows on `[T, n, e]` embeddings, and keeps the weights
expert-major: it sums class-major, each expert's `[C, N_test]` transpose
gathered at the stack's rows in one take, so each sample adds the same
products in the same (expert) order as a `[T, n, C]` gather, and labels
each sample by `nn.first_argmax` of that `[C, T*n]` mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gating, nn, runtime
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .gating import CommonExpert
from .metrics import MetricsRecord
from .runtime import RunContext, ServerState
from .seeding import rng_stream


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


@dataclass
class ClientStack:
    """Test clients that score as one: their shards, of one size n and in
    client order, each client's place among all test clients in client
    order, and per `[T, n]` test-set row its label and its ground-truth
    expert. FedMix fills in its test gates' weights."""

    shards: list[ClientShard]
    slots: np.ndarray  # [T], into the client-ordered arrays of a `ScoringPass`
    rows: np.ndarray  # [T, n]
    labels: np.ndarray  # [T, n], read only to score
    truth: np.ndarray | None = None  # [T, n]; None unless the label -> expert map covers every test label
    fedmix_weights: np.ndarray | None = None  # [M, T, n], from FedMix's first prediction


def client_stacks(
    test_shards: list[ClientShard], test_ds: LabeledDataset, label_to_expert: dict[int, int] | None = None
) -> list[ClientStack]:
    """The test clients as `ClientStack`s: clients of one shard size n (so
    none is padded), cut by `runtime.cut_stacks`, with the ground truth of
    `label_to_expert` when it maps every test label."""
    lookup = None
    if label_to_expert is not None and set().union(*(s.label_set for s in test_shards)) <= set(label_to_expert):
        lookup = np.zeros(test_ds.num_classes, dtype=np.int64)
        lookup[list(label_to_expert)] = list(label_to_expert.values())
    groups: dict[int, list[tuple[int, ClientShard]]] = {}
    for slot, s in enumerate(sorted(test_shards, key=lambda s: s.client_id)):
        groups.setdefault(len(s), []).append((slot, s))
    stacks = []
    for n, group in groups.items():
        for cut in runtime.cut_stacks(group, n):
            slots, shards = zip(*cut)
            rows = np.stack([s.indices for s in shards])
            labels = test_ds.labels[rows]
            truth = None if lookup is None else lookup[labels]
            stacks.append(ClientStack(list(shards), np.array(slots), rows, labels, truth))
    return stacks


# ---------------------------------------------------------------------------
# Per-method scoring of unseen test clients (all methods)


def _test_side(ctx: RunContext) -> list[ClientStack]:
    """The context's `client_stacks`, with the anchors' ground truth; made once per context."""
    if ctx.test_stacks is None:
        ctx.test_stacks = client_stacks(ctx.test_shards, ctx.test_ds, routing_ground_truth(ctx.anchor_shards))
    return ctx.test_stacks


def client_predictor(ctx: RunContext, state: ServerState, method: str, logits: list[np.ndarray], labels: np.ndarray):
    """Every method's rule for unseen test clients: a function from a
    `ClientStack` to its `[T, n]` predicted labels and route, read from the
    server networks' `expert_outputs` on the test set (their logits and
    their `[M, N_test]` labels), never from the test labels. FedJETs' route
    is `gating.route`'s; others' is None."""
    if method == "fedjets":
        if state.gate_params is None:
            raise ConfigError("zero-shot evaluation needs a server-side gate")
        scores = gating.gate_scores(state.gate_params, ctx.test_embeddings)  # [N_test, M]

        def predict(stack):
            experts, chosen = gating.route(scores[stack.rows], ctx.cfg.federation.top_k)
            return labels[chosen, stack.rows], (experts, chosen)

        return predict
    if method in ("fedavg", "fedprox"):
        preds = labels[0]
    elif method == "avg_ensemble":  # the members' mean softmax, summed in member order
        mean = nn.softmax(logits[0])
        for out in logits[1:]:
            mean = mean + nn.softmax(out)
        preds = (mean / len(logits)).argmax(axis=1)
    elif method == "fedmix":  # a fresh gate per client, forwarded once per stack, weights all experts
        classes = [np.ascontiguousarray(out.T) for out in logits]  # [C, N_test] each: summed class-major

        def predict(stack):
            if stack.fedmix_weights is None:
                streams = [rng_stream(ctx.cfg.seed, "fedmix-test-gate", s.client_id) for s in stack.shards]
                gates = np.stack([nn.init_params(ctx.gate_spec, rng).values for rng in streams])
                out = nn.forward(ctx.gate_spec, gates, ctx.test_embeddings[stack.rows])  # [T, n, M]
                stack.fedmix_weights = np.ascontiguousarray(out.transpose(2, 0, 1))
            rows = stack.rows.reshape(-1)
            weights = stack.fedmix_weights.reshape(len(logits), -1)
            combined = np.take(classes[0], rows, axis=1)  # [C, T*n]
            combined *= weights[0]
            for out, w in zip(classes[1:], weights[1:]):
                term = np.take(out, rows, axis=1)
                term *= w
                combined += term
            return nn.first_argmax(combined).reshape(stack.rows.shape), None

        return predict
    else:
        raise ConfigError(f"unknown method {method!r}")
    return lambda stack: (preds[stack.rows], None)


@dataclass
class ScoringPass:
    """What one pass over the unseen test clients gives, as arrays in client
    order: every method's per-client accuracies and their mean; under FedJETs
    also each stack's route and, when the anchors give ground truth for every
    test label, each client's correctly routed samples, its routing error
    rate and their mean. The per-client views, keyed by client id in client
    order, are derived from these when first read."""

    stacks: list[ClientStack]  # the context's test side
    global_acc: float
    accuracy: np.ndarray  # [N_clients]
    routes: list[tuple[np.ndarray, np.ndarray]] | None = None  # per stack: `gating.route`'s [T, K] and [T, n]
    correct: np.ndarray | None = None  # [N_clients]
    error_rate: np.ndarray | None = None  # [N_clients]
    average_error_rate: float | None = None

    def _in_client_order(self, per_stack) -> list:
        """Per-stack sequences of per-client items as one list in client order."""
        out = [None] * len(self.accuracy)
        for stack, items in zip(self.stacks, per_stack, strict=True):
            for slot, item in zip(stack.slots.tolist(), items):
                out[slot] = item
        return out

    @cached_property
    def shards(self) -> list[ClientShard]:
        return self._in_client_order(stack.shards for stack in self.stacks)

    @cached_property
    def per_client_accuracy(self) -> dict[int, float]:
        return {s.client_id: acc for s, acc in zip(self.shards, self.accuracy.tolist())}

    @cached_property
    def selections(self) -> dict[int, tuple[int, ...]] | None:
        """Each client's top-K expert ids."""
        if self.routes is None:
            return None
        top = self._in_client_order(experts.tolist() for experts, _ in self.routes)
        return {s.client_id: tuple(ids) for s, ids in zip(self.shards, top)}

    @cached_property
    def chosen_experts(self) -> dict[int, np.ndarray] | None:
        """Each client's per-sample expert ids."""
        if self.routes is None:
            return None
        return {s.client_id: c for s, c in zip(self.shards, self._in_client_order(c for _, c in self.routes))}

    @cached_property
    def routing(self) -> RoutingReport | None:
        if self.average_error_rate is None:
            return None
        rows = [
            {"client": s.client_id, "incorrect": len(s) - c, "correct": c, "error_rate": e}
            for s, c, e in zip(self.shards, self.correct.tolist(), self.error_rate.tolist())
        ]
        return RoutingReport(rows, self.average_error_rate)


def score_test_clients(
    ctx: RunContext, state: ServerState, method: str, outputs: tuple[list[np.ndarray], np.ndarray] | None = None
) -> ScoringPass:
    """Predict each unseen test client once by the method's rule, a stack at
    a time, and score the predictions. `outputs` are the server networks'
    `expert_outputs` on the test set, computed here when not given."""
    if outputs is None:
        outputs = expert_outputs(state.expert_params, ctx.test_ds.inputs)
    predict = client_predictor(ctx, state, method, *outputs)
    stacks = _test_side(ctx)
    accuracy, routes = np.empty(len(ctx.test_shards)), []
    correct, error_rate = np.empty(len(accuracy), dtype=np.int64), np.empty(len(accuracy))
    for stack in stacks:
        preds, route = predict(stack)
        accuracy[stack.slots] = (preds == stack.labels).mean(axis=1)
        if route is None:
            continue
        routes.append(route)
        if stack.truth is not None:  # a sample routes correctly iff its expert is its label's
            n = stack.rows.shape[1]
            hits = (route[1] == stack.truth).sum(axis=1)
            correct[stack.slots] = hits
            error_rate[stack.slots] = (n - hits) / n
    scores = ScoringPass(stacks, float(np.mean(accuracy)), accuracy)
    if method == "fedjets":
        scores.routes = routes
        if stacks and stacks[0].truth is not None:  # every stack has ground truth, or none
            scores.correct, scores.error_rate = correct, error_rate
            scores.average_error_rate = float(np.mean(error_rate))
    return scores


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
        routing_acc=None if scores.average_error_rate is None else 1.0 - scores.average_error_rate,
        floats_down_cum=floats_down_cum,
        floats_up_cum=floats_up_cum,
    )

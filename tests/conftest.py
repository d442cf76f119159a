"""Shared helpers: finite-difference oracles, kink-safe random nets, the
kernel's gradients of one network or client (a stack of one, as a round
steps it), what the engine's layer views hold, and reference implementations
the library no longer needs (the cross-entropy and the loss alone, one-hot
labels, the two-branch minibatch draw, the gate's independent loss, the
mixture forward, the FedProx objective, per-client-forward test scoring,
the route by row-wise reductions)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from fedjets import data, evaluation, gating, nn, runtime
from fedjets.errors import ConfigError
from fedjets.seeding import rng_stream


def central_diff(loss_fn, values: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar loss over a flat vector."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        up = values.copy()
        up[i] += h
        down = values.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error, normalized by the gradient scale (absolute for
    gradients smaller than 1)."""
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def min_hidden_preact(spec: nn.NetSpec, params: nn.ParamVector, inputs: np.ndarray) -> float:
    """Smallest |pre-activation| over all hidden relu units for this batch,
    computed here (`h @ W + b` per layer), since the trace keeps none."""
    hidden, h = [], inputs
    for (w, b), act in zip(nn.unpack(spec, params.values)[:-1], spec.activations):
        z = h @ w + b
        if act == "relu":
            hidden.append(np.abs(z))
            z = np.maximum(z, 0.0)
        h = z
    if not hidden:
        return np.inf
    return float(min(np.min(h) for h in hidden))


def kink_safe_net(seed: int, dims, head: str = "logits", n: int = 6, margin: float = 0.05):
    """Random net, inputs and labels with every relu pre-activation at least `margin`
    from zero, so an h=1e-4 central-difference stencil cannot cross a kink.
    Redraws deterministically until safe."""
    spec = nn.NetSpec.mlp(dims, head=head)
    for attempt in range(200):
        rng = rng_stream(seed, "kink-safe", attempt)
        params = nn.init_params(spec, rng)
        inputs = rng.normal(size=(n, spec.input_dim))
        labels = rng.integers(0, spec.output_dim, size=n)
        if min_hidden_preact(spec, params, inputs) >= margin:
            return spec, params, inputs, labels
    raise AssertionError("could not draw a kink-safe net; loosen the margin")


def packed(layers) -> np.ndarray:
    """The flat `[P]` values (or `[B, P]` rows) that `nn.unpack` split into `layers`."""
    lead = layers[0][0].shape[:-2]
    return np.concatenate([part.reshape(*lead, -1) for w, b in layers for part in (w, b)], axis=-1)


def views_of(layers, values: np.ndarray) -> bool:
    """Whether every weight and bias of `layers` shares memory with `values`."""
    return all(np.shares_memory(part, values) for w, b in layers for part in (w, b))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """`[..., n, num_classes]` float64 one-hot rows of integer labels `[..., n]`."""
    out = np.zeros((*labels.shape, num_classes))
    out.reshape(-1, num_classes)[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return out


def minibatch_indices_two_branch(n: int, batch_size: int, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """`runtime.minibatch_indices` as it was written with two branches: a fresh
    permutation per batch when `batch_size >= n`, else one up front."""
    if batch_size >= n:
        return [rng.permutation(n) for _ in range(count)]
    batches = []
    order = rng.permutation(n)
    pos = 0
    for _ in range(count):
        if pos + batch_size > n:
            order = rng.permutation(n)
            pos = 0
        batches.append(order[pos : pos + batch_size])
        pos += batch_size
    return batches


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true labels, each clamped at 1e-12."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, nn.LOG_CLAMP))))


def loss_value(spec: nn.NetSpec, params: nn.ParamVector, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Loss alone, on the forward path `nn.ce_grad` runs (for gradient checks):
    CE on the softmax of the pre-head output, which is a softmax head's own output."""
    return cross_entropy(nn.softmax(nn._forward_trace(spec, nn.unpack(spec, params.values), inputs).acts[-1]), labels)


def ce_grad(spec: nn.NetSpec, params: nn.ParamVector, inputs, labels, loss_kind: str) -> np.ndarray:
    """`nn.ce_grad`'s gradient of one network, on a stack of one."""
    return nn.ce_grad(spec, nn.unpack(spec, params.values[None]), inputs[None], labels[None], loss_kind)[1][0]


def mixture_grads(experts, gate, selected, inputs, embeddings, labels, renormalize=False, scan=None):
    """`runtime._mixture_grads` of one client, on a stack of one: the mixture's
    probabilities, each expert's gradient and the gate's."""
    layers = [nn.unpack(e.spec, e.values[None]) for e in experts]
    at_selected = (np.zeros((1, 1, 1), dtype=np.intp), np.arange(len(labels))[:, None], np.array([[selected]]))
    probs, e_grads, g_grad = runtime._mixture_grads(
        experts[0].spec, layers, gate.spec, nn.unpack(gate.spec, gate.values[None]), at_selected,
        inputs[None], embeddings[None], labels[None], renormalize, nn.Scan() if scan is None else scan,
    )
    return probs[0], [g[0] for g in e_grads], g_grad[0]


def gate_independent_loss_grad(
    gate: nn.ParamVector, embeddings: np.ndarray, anchor_expert: int
) -> tuple[float, np.ndarray]:
    """Anchor loss: cross-entropy between the gate output and the one-hot
    encoding of the anchor's assigned expert, averaged over the shard."""
    if not (0 <= anchor_expert < gate.spec.output_dim):
        raise ConfigError(f"anchor expert {anchor_expert} out of range")
    labels = np.full(embeddings.shape[0], anchor_expert, dtype=np.int64)
    return loss_value(gate.spec, gate, embeddings, labels), ce_grad(gate.spec, gate, embeddings, labels, "ce_on_mixture")


def mixture_forward(
    expert_spec: nn.NetSpec,
    expert_params: list[nn.ParamVector],
    gate_weights: np.ndarray,
    inputs: np.ndarray,
) -> np.ndarray:
    """Per-sample weighted sum of expert logits.

    `gate_weights[j, k]` is the gate score of sample j for the k-th expert
    in `expert_params` (the selected-expert entries of the gate output, not
    renormalized unless the caller chose to).
    """
    if len(expert_params) == 0:
        raise ConfigError("mixture_forward needs at least one expert")
    w = np.asarray(gate_weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != len(expert_params):
        raise ConfigError(f"gate weights {w.shape} do not match {len(expert_params)} experts")
    combined = None
    for k, params in enumerate(expert_params):
        term = w[:, k : k + 1] * nn.forward(expert_spec, params.values, inputs)
        combined = term if combined is None else combined + term
    return combined


def prox_loss(params, global_params, inputs, labels, mu) -> float:
    """The augmented objective FedProx steps descend (for gradient checks)."""
    base = loss_value(params.spec, params, inputs, labels)
    return base + 0.5 * mu * float(np.sum((params.values - global_params.values) ** 2))


def reference_predictions(ctx, state, method: str) -> dict[int, tuple[np.ndarray, tuple | None]]:
    """Each test client's predicted labels and route by the per-client-forward
    rules: every network the rule needs, the common expert's embedding
    included, is forwarded on the client's own rows. The route, FedJETs' only,
    is the client's top-K expert ids and each sample's expert."""
    out = {}
    for shard in sorted(ctx.test_shards, key=lambda s: s.client_id):
        cid, x = shard.client_id, ctx.test_ds.inputs[shard.indices]
        route = None
        if method in ("fedavg", "fedprox"):
            model = state.expert_params[0]
            preds = nn.forward(model.spec, model.values, x).argmax(axis=1)
        elif method == "avg_ensemble":
            probs = [nn.softmax(nn.forward(p.spec, p.values, x)) for p in state.expert_params]
            mean = probs[0]
            for p in probs[1:]:
                mean = mean + p
            preds = (mean / len(probs)).argmax(axis=1)
        elif method == "fedmix":
            gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-test-gate", cid))
            weights = gating.gate_scores(gate, gating.embed_inputs(ctx.common, x))
            preds = mixture_forward(ctx.expert_spec, state.expert_params, weights, x).argmax(axis=1)
        else:  # fedjets: each sample's expert, forwarded on the rows routed to it
            scores = gating.gate_scores(state.gate_params, gating.embed_inputs(ctx.common, x))
            cols = np.array(topk_ids(scores, ctx.cfg.federation.top_k), dtype=np.int64)
            chosen = cols[scores[:, cols].argmax(axis=1)]
            preds = np.empty(len(shard), dtype=np.int64)
            for e in np.unique(chosen):
                rows = np.flatnonzero(chosen == e)
                expert = state.expert_params[e]
                preds[rows] = nn.forward(expert.spec, expert.values, x[rows]).argmax(axis=1)
            route = (tuple(cols.tolist()), chosen)
        out[cid] = (preds, route)
    return out


def row_wise_route(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`gating.route` as it was written with numpy's row-wise reductions: the
    column sum as `sum(axis=-2)`, each sample's expert as `argmax(axis=-1)`."""
    m = scores.shape[-1]
    experts = np.sort(np.argsort(-scores.sum(axis=-2), axis=-1, kind="stable")[..., :k], axis=-1)
    selected = (experts[..., None] == np.arange(m)).any(axis=-2)
    return experts, np.where(selected[..., None, :], scores, -np.inf).argmax(axis=-1)


def topk_ids(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """One client's top-K expert ids by `gating.top_experts`, from its `[n, M]`
    gate scores, as the tuple `runtime.fedjets_work` trains."""
    return tuple(gating.top_experts(scores, k).tolist())


@dataclass
class DictScoringPass:
    """The views of a scoring pass, each built as a dict by client id."""

    global_acc: float
    per_client_accuracy: dict[int, float]
    selections: dict[int, tuple[int, ...]] | None = None
    chosen_experts: dict[int, np.ndarray] | None = None
    routing: list[dict] | None = None  # per client: client, incorrect, correct, error_rate
    average_error_rate: float | None = None


def dict_scoring_pass(ctx, state, method: str) -> DictScoringPass:
    """`evaluation.score_test_clients` as it was written with per-client
    dicts: each stack's clients added to dicts, sorted by client id, and the
    means taken over the sorted values."""
    outputs = evaluation.expert_outputs(state.expert_params, ctx.test_ds.inputs)
    predict = evaluation.client_predictor(ctx, state, method, *outputs)
    per_acc, selections, per_sample, routing = {}, {}, {}, []
    for stack in evaluation._test_side(ctx):
        preds, route = predict(stack)
        cids = [s.client_id for s in stack.shards]
        per_acc.update(zip(cids, (preds == stack.labels).mean(axis=1).tolist()))
        if route is None:
            continue
        selections.update(zip(cids, map(tuple, route[0].tolist())))
        per_sample.update(zip(cids, route[1]))
        if stack.truth is not None:
            n = stack.rows.shape[1]
            for cid, c in zip(cids, (route[1] == stack.truth).sum(axis=1).tolist()):
                routing.append({"client": cid, "incorrect": n - c, "correct": c, "error_rate": (n - c) / n})
    per_acc = dict(sorted(per_acc.items()))
    scores = DictScoringPass(float(np.mean(list(per_acc.values()))), per_acc)
    if method == "fedjets":
        scores.selections, scores.chosen_experts = dict(sorted(selections.items())), dict(sorted(per_sample.items()))
    if routing:
        routing.sort(key=lambda r: r["client"])
        scores.routing, scores.average_error_rate = routing, float(np.mean([r["error_rate"] for r in routing]))
    return scores


def ensemble_labels(ctx, members: list[nn.ParamVector], x: np.ndarray) -> np.ndarray:
    """avg_ensemble's labels for the rows of `x` by `evaluation.client_predictor`,
    the rows standing as one test client's, a stack of one."""
    shard = data.ClientShard(0, np.arange(len(x)), np.zeros(1), data.KIND_TEST)
    state = runtime.ServerState(list(members), None)
    outputs = evaluation.expert_outputs(state.expert_params, x)
    # no labels: a rule never reads them
    stack = evaluation.ClientStack([shard], np.zeros(1, dtype=np.int64), shard.indices[None], None)
    return evaluation.client_predictor(ctx, state, "avg_ensemble", *outputs)(stack)[0][0]


def reference_common_expert_accuracy(common, test_shards, test_ds) -> float:
    """Mean per-client accuracy of the common expert's head, forwarded on
    each test client's own rows."""
    per_acc = []
    for s in sorted(test_shards, key=lambda s: s.client_id):
        out = nn.forward(common.params.spec, common.params.values, test_ds.inputs[s.indices])
        per_acc.append(float(np.mean(out.argmax(axis=1) == test_ds.labels[s.indices])))
    return float(np.mean(per_acc))


@pytest.fixture
def rng():
    return rng_stream(20240)

"""Round orchestration: client sampling, expert dispatch, local updates,
FedAvg aggregation, and communication accounting. `baselines` and
`experiment.run_training` build on this module; it imports neither.

Every method's round is a plan, then `client_updates` steps the clients and
one `aggregate` averages their packets (`train_round` does both).
`active_ids` is the one scenario-pool lookup and `draw_clients` the one
client draw. A plan only names the active clients. A FedJETs normal client
is routed where its `Work` is made (`fedjets_work`): `gating.top_experts`,
the top-K half of the one routing rule, on the state gate's scores of its
rows of `RunContext.train_embeddings`. Each client draws its randomness
from a stream keyed by (seed, "client", round, client_id), so results do
not depend on the order of the updates.

Local training is one group kernel. A method describes each client's update
as a `Work` (anchor, mixture or sgd); `group_clients` puts the clients that
share the update kind, the rows per step (`min(batch_size, len(shard))`) and
the step count into one group (cut into stacks of at most STACK_ROWS network
rows), and `_step_group` steps each stack's copies as `[B, P]` arrays, on
layer views bound once per stack, through the `nn` engine's stack axis, so
each client's result is bit for bit what it gives stepped alone. One
`[steps, B, n]` array of dataset rows gathers each step's inputs, labels and
gate inputs (`train_embeddings`). No client is padded and no step is shared.
Packets come out in client order. The engine returns raw rows, and an
`nn.Scan` over the stack records each client's first non-finite value, in
the order it would meet it alone; the first failing client in `client_ids`
order is the one raised. `nn.ce_grad` and `_mixture_grads` are the only
training gradients; one client alone is a stack of one.

Inside a round a network is a float64 row; packets carry the rows the kernel
scanned finite. An `nn.ParamVector` exists only where a server state is built
(its experts' one spec checked then), averaged or loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gating, nn
from .config import RunConfig
from .data import KIND_ANCHOR, ClientShard, LabeledDataset
from .errors import ConfigError, NumericError, ProtocolError
from .gating import CommonExpert
from .seeding import rng_stream

SETUP_ROUND = -1  # ledger row for the one-time common-expert broadcast


@dataclass
class ServerState:
    """Everything the server holds between rounds. Its networks are never
    updated in place: clients step copies and `aggregate` builds a new state."""

    expert_params: list[nn.ParamVector]
    gate_params: nn.ParamVector | None
    round: int = 0

    def __post_init__(self):
        for i, p in enumerate(self.expert_params):
            if p.spec != self.expert_params[0].spec:
                raise ConfigError(f"parameter/spec mismatch (expert {i} of the server state)")

    @property
    def num_experts(self) -> int:
        return len(self.expert_params)


@dataclass
class RoundPlan:
    round: int
    anchor_ids: list[int]
    normal_ids: list[int]

    def __post_init__(self):
        active = list(self.anchor_ids) + list(self.normal_ids)
        if len(set(active)) != len(active):
            raise ConfigError(f"round {self.round}: duplicate active client")


@dataclass
class UpdatePacket:
    client_id: int
    gate: np.ndarray | None
    experts: dict[int, np.ndarray]
    num_samples: int


@dataclass
class ModelSizes:
    """Parameter counts used for communication accounting."""

    expert: int
    gate: int
    common: int


class CommLedger:
    """Per-round, per-method communicated float counts (monotone cumulative)."""

    def __init__(self):
        self.rows: list[dict] = []
        self._cum: dict[str, list[float]] = {}

    def add(self, round_idx: int, method: str, floats_down: float, floats_up: float) -> None:
        if floats_down < 0 or floats_up < 0:
            raise ConfigError("communication amounts must be non-negative")
        cum = self._cum.setdefault(method, [0.0, 0.0])
        cum[0] += floats_down
        cum[1] += floats_up
        self.rows.append(
            {
                "round": round_idx,
                "method": method,
                "floats_down": float(floats_down),
                "floats_up": float(floats_up),
                "floats_down_cum": cum[0],
                "floats_up_cum": cum[1],
            }
        )

    def cumulative(self, method: str) -> tuple[float, float]:
        cum = self._cum.get(method, [0.0, 0.0])
        return cum[0], cum[1]

    def to_csv(self, seed: int | None = None) -> str:
        lines = []
        if seed is not None:
            lines.append(f"# seed={seed}")
        lines.append("round,method,floats_down,floats_up,floats_down_cum,floats_up_cum")
        for r in self.rows:
            lines.append(
                f"{r['round']},{r['method']},{r['floats_down']!r},{r['floats_up']!r},"
                f"{r['floats_down_cum']!r},{r['floats_up_cum']!r}"
            )
        return "\n".join(lines) + "\n"


def local_iteration_count(cfg: RunConfig, shard_size: int) -> int:
    """l1 in minibatch iterations; local_epochs maps to ceil(n_s/batch)."""
    t = cfg.training
    if t.local_iterations is not None:
        return t.local_iterations
    return t.local_epochs * math.ceil(shard_size / t.batch_size)


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` minibatches of row indices, `[count, min(batch_size, n)]`: each epoch's permutation of the
    n rows (all drawn in one call, each as `rng.permutation(n)` would) cut into its whole batches."""
    size = min(batch_size, n)
    per_epoch = n // size
    epochs = -(-count // per_epoch)
    orders = rng.permuted(np.broadcast_to(np.arange(n), (epochs, n)), axis=1)
    return orders[:, : per_epoch * size].reshape(-1, size)[:count]


# ---------------------------------------------------------------------------
# Planning


def active_ids(cfg: RunConfig, t: int, ids: list[int]) -> list[int]:
    """The ids among `ids` active in round t: all of them without a scenario
    schedule, else those the range covering round t lists."""
    if cfg.scenario is None:
        return list(ids)
    for r in cfg.scenario:
        if r.start <= t < r.end:
            active = set(r.active_clients)
            return [cid for cid in ids if cid in active]
    raise ConfigError(f"round {t} not covered by the scenario schedule")


def draw_clients(rng: np.random.Generator, pool: list[int], n: int, t: int, what: str) -> list[int]:
    """`n` ids drawn uniformly without replacement from `pool`, sorted."""
    if n > len(pool):
        raise ConfigError(f"round {t}: need {n} {what} but pool has {len(pool)}")
    return sorted(rng.choice(pool, size=n, replace=False).tolist()) if n else []


def plan_round(
    t: int, cfg: RunConfig, rng: np.random.Generator, anchor_pool: list[int], normal_pool: list[int]
) -> RoundPlan:
    """Draw this round's active clients from `rng` (uniform, without
    replacement): the anchors first, then the normal clients."""
    fed = cfg.federation
    anchor_ids = draw_clients(rng, anchor_pool, fed.anchors_per_round, t, "anchors")
    normal_ids = draw_clients(rng, normal_pool, fed.normals_per_round, t, "normal clients")
    return RoundPlan(t, anchor_ids, normal_ids)


# ---------------------------------------------------------------------------
# Client updates: one group kernel


WORK_KINDS = ("anchor", "mixture", "sgd")
# Network rows (clients x networks x rows per step) one stack steps at most:
# it bounds the kernel's working memory (a step traces every row at once), and
# sits above synth-10's largest group, ten FedMix clients at 6 x 36 = 216 rows.
STACK_ROWS = 4096


@dataclass(frozen=True)
class Work:
    """What one client trains in a round; the group kernel serves it.

    - `anchor`: cross-entropy on its one expert, plus the gate's independent
      loss toward that expert's index;
    - `mixture`: the mixture cross-entropy over `experts` (in order) and the
      gate, jointly;
    - `sgd`: cross-entropy on its one expert, plus the FedProx pull
      `mu * (w_local - w_global)` when `mu` is non-zero.

    `experts` index the round's server experts; the client steps copies of
    them and of the `gate` row (None for `sgd`); its packet carries them back.
    """

    kind: str
    experts: tuple[int, ...]
    gate: np.ndarray | None = None
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in WORK_KINDS:
            raise ConfigError(f"unknown update kind {self.kind!r}")


def _mixture_grads(expert_spec, experts, gate_spec, gate, at_selected, inputs, embeddings, labels, renormalize, scan):
    """Joint mixture cross-entropy on a stack of B clients: the combined
    softmax, then K expert gradient stacks and the gate's.

    `experts` lists the layer views of K `[B, P]` stacks (each client's k-th
    selected expert), `gate` those of the `[B, P_g]` gates; `at_selected`
    indexes the `[B, n, K]` gate columns of the clients' selected experts, and
    its (client, row) parts a `[B, n]` label. The combined logits are sum_k
    w_k * f_k(x) with w those gate softmax columns (renormalized over the
    selection only when asked); gradients flow into both the experts and the
    gate. Non-finite outputs and gradients are recorded on `scan`.
    """
    n = labels.shape[-1]
    # one forward per network; backprop reuses each trace
    probs_full, gate_trace = nn.forward_with_trace(gate_spec, gate, embeddings)  # [B, n, M]
    expert_logits, expert_traces = zip(*(nn.forward_with_trace(expert_spec, e, inputs) for e in experts))
    for out in (probs_full, *expert_logits):
        scan.rows(out, nn.NONFINITE_OUTPUT, "forward")
    w_raw = probs_full[at_selected]  # [B, n, K]
    if renormalize:
        denom = w_raw.sum(axis=-1, keepdims=True)
        w = w_raw / denom
    else:
        w = w_raw

    combined = w[..., :1] * expert_logits[0]
    for j in range(1, len(expert_logits)):
        combined += w[..., j : j + 1] * expert_logits[j]
    probs_out = nn.softmax(combined)
    delta = probs_out.copy()  # dL/d(combined) = (probs_out - one_hot(labels)) / n
    delta[(*at_selected[:2], labels[..., None])] -= 1.0
    delta /= n

    expert_grads = [
        nn.backprop(expert_spec, trace, w[..., j : j + 1] * delta) for j, trace in enumerate(expert_traces)
    ]
    for g in expert_grads:
        scan.grads(expert_spec, g)

    # dL/dw[:, j] = <delta_i, f_j(x_i)> per sample
    g_sel = np.stack([np.sum(delta * logits, axis=-1) for logits in expert_logits], axis=-1)
    if renormalize:
        inner = np.sum(g_sel * w, axis=-1, keepdims=True)
        g_raw = (g_sel - inner) / denom
    else:
        g_raw = g_sel
    grad_probs = np.zeros_like(probs_full)
    grad_probs[at_selected] = g_raw
    dz_gate = nn.softmax_vjp(probs_full, grad_probs)
    gate_grad = nn.backprop(gate_spec, gate_trace, dz_gate)
    scan.grads(gate_spec, gate_grad)
    return probs_out, expert_grads, gate_grad


def group_clients(ctx: RunContext, client_ids: list[int], work) -> list[list[tuple[ClientShard, Work]]]:
    """The clients of `client_ids` (with `work(shard)`) in groups that step
    as one stack, each in `client_ids` order: a group shares its update kind
    (with its expert count and `mu`), its rows per step and its step count,
    so no client is padded. A group is cut into stacks of at most
    STACK_ROWS network rows per step."""
    cfg = ctx.cfg
    shards = ctx.shards_by_id
    groups: dict[tuple, list[tuple[ClientShard, Work]]] = {}
    for cid in client_ids:
        shard = shards[cid]
        w = work(shard)
        n = min(cfg.training.batch_size, len(shard))
        key = (w.kind, len(w.experts), w.mu, n, local_iteration_count(cfg, len(shard)))
        groups.setdefault(key, []).append((shard, w))
    stacks = []
    for (kind, k, _, n, _), members in groups.items():
        stacks += cut_stacks(members, (k + (kind != "sgd")) * n)
    return stacks


def cut_stacks(members: list, rows: int) -> list[list]:
    """`members`, in order, in stacks of at most STACK_ROWS rows at `rows` a member (one member at least)."""
    per_stack = max(1, STACK_ROWS // rows)
    return [members[i : i + per_stack] for i in range(0, len(members), per_stack)]


def _step_group(ctx: RunContext, state: ServerState, served, t: int, group, failures) -> list[list[np.ndarray]]:
    """l1 local SGDM steps of every client in `group`, as `[B, ...]` stacks:
    copies of `served` (the state's `[M, P]` expert rows) and of the gate
    rows, under the state gate's spec or, if it has none, `ctx.gate_spec`.
    Each client draws its minibatches from its own stream keyed by (seed,
    "client", t, client id), and every net has its own velocity. Returns
    each client's stepped rows, scanned finite (experts in `Work.experts`
    order, then the gate), and records its first NumericError in `failures`.
    No loss is computed: a non-finite cross-entropy needs a NaN row in the
    softmax, which makes that row's bias gradient NaN, and the gradient is
    scanned before a client stepped alone would check its loss.
    """
    cfg, tr = ctx.cfg, ctx.cfg.training
    shards, works = zip(*group)
    kind, mu = works[0].kind, works[0].mu
    size = len(shards[0])
    steps, n = local_iteration_count(cfg, size), min(tr.batch_size, size)
    scan = nn.Scan([s.client_id for s in shards], failures)

    local = [
        minibatch_indices(len(s), tr.batch_size, rng_stream(cfg.seed, "client", t, s.client_id), steps) for s in shards
    ]
    rows = np.stack([s.indices[r] for s, r in zip(shards, local)], axis=1)  # [steps, B, n] dataset rows
    inputs, labels = ctx.train_ds.inputs, ctx.train_ds.labels  # finite, as every LabeledDataset and embedding

    expert_spec = state.expert_params[0].spec
    selected = np.array([w.experts for w in works])  # [B, K] server expert indices
    experts = list(served[selected.T])  # K stacks of [B, P], one fancy index
    nets = [(e, tr.lr, tr.momentum) for e in experts]  # each net's views are bound once: sgdm_step steps it in place
    expert_layers = [nn.unpack(expert_spec, e) for e in experts]
    if kind != "sgd":
        gate_spec = ctx.gate_spec if state.gate_params is None else state.gate_params.spec
        gates = np.stack([w.gate for w in works])
        nets.append((gates, tr.gate_lr, tr.gate_momentum))
        gate_layers = nn.unpack(gate_spec, gates)

    if kind == "mixture":
        renormalize = tr.renormalize_gate_weights
        at_selected = (np.arange(len(shards))[:, None, None], np.arange(n)[:, None], selected[:, None, :])

        def grads(s):
            x, emb, y = inputs[rows[s]], ctx.train_embeddings[rows[s]], labels[rows[s]]
            _, e_grads, g_grad = _mixture_grads(
                expert_spec, expert_layers, gate_spec, gate_layers, at_selected, x, emb, y, renormalize, scan
            )
            return [*e_grads, g_grad]

    else:  # an anchor is an sgd client (mu = 0) whose gate also learns the anchor's expert
        start = experts[0].copy() if mu else None  # each client's global model, for the FedProx pull
        targets = np.repeat(selected, n, axis=1) if kind == "anchor" else None  # [B, n]

        def grads(s):
            grad = nn.ce_grad(expert_spec, expert_layers[0], inputs[rows[s]], labels[rows[s]], "ce_on_logits")[1]
            scan.grads(expert_spec, grad)
            if start is not None:
                grad += mu * (experts[0] - start)
            if kind == "sgd":
                return [grad]
            g_grad = nn.ce_grad(gate_spec, gate_layers, ctx.train_embeddings[rows[s]], targets, "ce_on_mixture")[1]
            scan.grads(gate_spec, g_grad)
            return [grad, g_grad]

    velocities = [np.zeros_like(values) for values, _, _ in nets]
    for s in range(steps):
        for (values, lr, momentum), velocity, grad in zip(nets, velocities, grads(s), strict=True):
            nn.sgdm_step(values, velocity, grad, lr, momentum)
    for values, _, _ in nets:
        scan.rows(values, nn.NONFINITE_PARAMS)
    return [[values[b] for values, _, _ in nets] for b in range(len(shards))]


def client_updates(
    ctx: RunContext, state: ServerState, t: int, client_ids: list[int], work, scope: str | None = None
) -> list[UpdatePacket]:
    """Each client's packet of rows, in `client_ids` order: `work(shard)` says
    what the client trains, and each group of `group_clients` steps as one stack.

    The first client in `client_ids` order whose steps meet a non-finite
    value raises the NumericError it would raise stepped alone, re-raised
    naming `scope` (when given), round `t` and that client.
    """
    served = np.stack([p.values for p in state.expert_params])  # [M, P]
    failures: dict[int, NumericError] = {}
    packets = {}
    for group in group_clients(ctx, client_ids, work):
        for (shard, w), rows in zip(group, _step_group(ctx, state, served, t, group, failures)):
            gate = None if w.gate is None else rows[-1]
            packets[shard.client_id] = UpdatePacket(shard.client_id, gate, dict(zip(w.experts, rows)), len(shard))
    where = f"round {t}" if scope is None else f"{scope} | round {t}"
    for cid in client_ids:
        if cid in failures:
            raise failures[cid].within(f"{where} | client {cid}") from failures[cid]
    return [packets[cid] for cid in client_ids]


def fedjets_work(ctx: RunContext, state: ServerState):
    """`work(shard)` of a FedJETs round: an anchor trains its assigned
    expert and the gate's independent loss; a normal client trains the
    top-K experts the state's gate picks from its embedding rows, and
    the gate, through the mixture."""

    def work(shard: ClientShard) -> Work:
        if shard.kind == KIND_ANCHOR:
            q = shard.assigned_expert
            if q is None or not (0 <= q < state.num_experts):
                raise ConfigError(f"client {shard.client_id} is not a valid anchor")
            return Work("anchor", (q,), state.gate_params.values)
        scores = gating.gate_scores(state.gate_params, ctx.train_embeddings[shard.indices])
        experts = gating.top_experts(scores, ctx.cfg.federation.top_k)
        return Work("mixture", tuple(experts.tolist()), state.gate_params.values)

    return work


# ---------------------------------------------------------------------------
# Aggregation


def aggregate(state: ServerState, packets: list[UpdatePacket], uniform: bool = False) -> ServerState:
    """Sample-count-weighted FedAvg of the packets' gate and expert rows.

    Packets are folded in ascending client id so the result does not depend
    on arrival order; each averaged network becomes one ParamVector, and those
    updated by no packet carry over by reference. A misfit row is a ProtocolError.
    """
    ordered = sorted(packets, key=lambda p: p.client_id)

    def average(name: str, current: nn.ParamVector, held: list[tuple[UpdatePacket, np.ndarray]]):
        w = np.array([1.0 if uniform else float(p.num_samples) for p, _ in held])
        acc = np.zeros(current.values.size)
        for wi, (p, row) in zip(w / w.sum(), held):
            if row.shape != acc.shape:
                raise ProtocolError(f"client {p.client_id}: {name} row {row.shape} != {acc.shape}")
            acc += wi * row
        return nn.ParamVector(acc, current.spec)

    gate = state.gate_params
    gates = [(p, p.gate) for p in ordered if p.gate is not None]
    if gates:
        if gate is None:
            raise ProtocolError("gate update received but server holds no gate")
        gate = average("gate", gate, gates)
    experts = []
    for i, current in enumerate(state.expert_params):
        held = [(p, p.experts[i]) for p in ordered if i in p.experts]
        experts.append(average(f"expert {i}", current, held) if held else current)
    return ServerState(experts, gate, state.round + 1)


def train_round(
    ctx: RunContext, state: ServerState, t: int, client_ids: list[int], work, scope: str | None = None
) -> ServerState:
    """`client_updates`, then `aggregate` with the config's weighting."""
    packets = client_updates(ctx, state, t, client_ids, work, scope)
    return aggregate(state, packets, ctx.cfg.federation.uniform_weighting)


# ---------------------------------------------------------------------------
# Communication accounting


def comm_cost(plan: RoundPlan, cfg: RunConfig, sizes: ModelSizes) -> dict[str, tuple[float, float]]:
    """Per-round float counts (down, up) for every accounted method, given
    one plan. FedJETs sends the gate plus only the relevant experts; FedMix
    sends all experts to every active client (its local gates never move);
    FedAvg/FedProx move one model per client, ensembles move all members."""
    n_a, n_c = len(plan.anchor_ids), len(plan.normal_ids)
    n = n_a + n_c
    k, m = cfg.federation.top_k, cfg.federation.num_experts
    fedjets_down = n_a * (sizes.gate + sizes.expert) + n_c * (sizes.gate + k * sizes.expert)
    return {
        "fedjets": (float(fedjets_down), float(fedjets_down)),
        "fedmix": (float(n * m * sizes.expert), float(n * m * sizes.expert)),
        "fedavg": (float(n * sizes.expert), float(n * sizes.expert)),
        "fedprox": (float(n * sizes.expert), float(n * sizes.expert)),
        "avg_ensemble": (
            float(n * cfg.federation.ensemble_size * sizes.expert),
            float(n * cfg.federation.ensemble_size * sizes.expert),
        ),
    }


# ---------------------------------------------------------------------------
# Run context and initial states


@dataclass
class RunContext:
    """Prepared inputs for one run; each dataset is embedded once, `[N_train, e]` and `[N_test, e]`, and a
    client's embeddings are its rows. `evaluation` keeps in it, from first use, the test clients' stacks, which
    no server state changes; `dataclasses.replace` starts them afresh."""

    cfg: RunConfig
    train_ds: LabeledDataset
    test_ds: LabeledDataset
    anchor_shards: list[ClientShard]
    normal_shards: list[ClientShard]
    test_shards: list[ClientShard]
    common: CommonExpert
    train_embeddings: np.ndarray
    test_embeddings: np.ndarray
    expert_spec: nn.NetSpec
    gate_spec: nn.NetSpec
    test_stacks: list | None = field(default=None, init=False, repr=False, compare=False)  # [evaluation.ClientStack]

    @property
    def shards_by_id(self) -> dict[int, ClientShard]:
        return {s.client_id: s for s in self.anchor_shards + self.normal_shards}

    @property
    def sizes(self) -> ModelSizes:
        return ModelSizes(
            self.expert_spec.param_count(),
            self.gate_spec.param_count(),
            self.common.params.spec.param_count(),
        )


def init_expert(ctx: RunContext, stream_index: int) -> nn.ParamVector:
    """Initial model per the expert_init policy: a seeded scratch draw from
    the stream of expert `stream_index`, or a copy of the common expert."""
    if ctx.cfg.federation.expert_init == "from_common":
        if ctx.common.params.spec != ctx.expert_spec:
            raise ConfigError("expert_init=from_common requires matching expert/common specs")
        return ctx.common.params.copy()
    return nn.init_params(ctx.expert_spec, rng_stream(ctx.cfg.seed, "expert-init", stream_index))


def init_server_state(ctx: RunContext) -> ServerState:
    experts = [init_expert(ctx, i) for i in range(ctx.cfg.federation.num_experts)]
    gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "gate-init"))
    return ServerState(experts, gate, 0)


def fedjets_round(ctx: RunContext, state: ServerState, t: int) -> tuple[ServerState, RoundPlan]:
    """One FedJETs round. A scenario schedule restricts the normal clients to
    the ids it lists, and the anchors only when it lists anchor ids."""
    cfg = ctx.cfg
    anchors = [s.client_id for s in ctx.anchor_shards]
    normals = [s.client_id for s in ctx.normal_shards]
    anchor_pool = active_ids(cfg, t, anchors) or anchors
    rng = rng_stream(cfg.seed, "plan", t)
    plan = plan_round(t, cfg, rng, anchor_pool, active_ids(cfg, t, normals))
    return train_round(ctx, state, t, plan.anchor_ids + plan.normal_ids, fedjets_work(ctx, state)), plan

"""Round orchestration: client sampling, expert dispatch, local updates,
FedAvg aggregation, and communication accounting.

One round activates N_a anchor clients (each training its pre-assigned
expert plus the gate's independent loss) and N_c normal clients (each
jointly training its top-K experts and the gate through the mixture
cross-entropy). The server then averages the returned copies.

Every method's round is a plan, then `train_round`: `active_ids` is the
one scenario-pool lookup and `draw_clients` the one client draw; then the
clients update one after another and `aggregate` averages their packets.
Each client draws its randomness from a stream keyed by (seed, "client",
round, client_id), so results do not depend on the order of the updates.

Every network is one `nn.ParamVector`, which carries its spec. Every
client, the baselines' included, steps copies of its parameters in place
through `local_steps`, which scans them for finiteness once, at the end.
Server networks are never updated in place, so `aggregate` carries the
ones no packet updated over by reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gating, nn
from .config import RunConfig
from .data import KIND_ANCHOR, ClientShard, LabeledDataset
from .errors import ConfigError, NumericError, ProtocolError
from .gating import CommonExpert, ExpertSelection
from .seeding import rng_stream

SETUP_ROUND = -1  # ledger row for the one-time common-expert broadcast


@dataclass
class ServerState:
    """Everything the server holds between rounds. Its networks are never
    updated in place: clients step copies and `aggregate` builds a new state."""

    expert_params: list[nn.ParamVector]
    gate_params: nn.ParamVector | None
    round: int = 0

    @property
    def num_experts(self) -> int:
        return len(self.expert_params)


@dataclass
class RoundPlan:
    round: int
    anchor_ids: list[int]
    normal_ids: list[int]
    selections: dict[int, ExpertSelection] = field(default_factory=dict)

    def __post_init__(self):
        active = list(self.anchor_ids) + list(self.normal_ids)
        if len(set(active)) != len(active):
            raise ConfigError(f"round {self.round}: duplicate active client")


@dataclass
class UpdatePacket:
    client_id: int
    gate: nn.ParamVector | None
    experts: dict[int, nn.ParamVector]
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


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """`count` minibatches of row indices; reshuffles at epoch boundaries."""
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
    t: int,
    cfg: RunConfig,
    rng: np.random.Generator,
    anchor_pool: list[int],
    normal_pool: list[int],
    gate: nn.ParamVector | None = None,
    embeddings: dict[int, np.ndarray] | None = None,
) -> RoundPlan:
    """Sample this round's active clients (uniform, without replacement) and,
    when a gate is supplied, compute each normal client's expert selection."""
    fed = cfg.federation
    anchor_ids = draw_clients(rng, anchor_pool, fed.anchors_per_round, t, "anchors")
    normal_ids = draw_clients(rng, normal_pool, fed.normals_per_round, t, "normal clients")

    selections = {}
    if gate is not None:
        if embeddings is None:
            raise ConfigError("expert selection requires cached embeddings")
        for cid in normal_ids:
            selections[cid] = gating.select_topk(gating.gate_scores(gate, embeddings[cid]), fed.top_k, cid)
    return RoundPlan(t, anchor_ids, normal_ids, selections)


# ---------------------------------------------------------------------------
# Client updates


def _check_finite_loss(loss: float) -> None:
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")


def local_steps(shard: ClientShard, cfg: RunConfig, round_idx: int, nets, grads) -> None:
    """l1 local SGDM steps, the one loop over a client's minibatches.

    `nets` lists (ParamVector, lr, momentum) working copies, each updated in
    place with its own velocity; `grads(rows)` returns one gradient array
    per net for the shard rows `rows` and checks its own losses. Each
    working copy is scanned for finiteness once, when the steps are done.
    """
    rng = rng_stream(cfg.seed, "client", round_idx, shard.client_id)
    batches = minibatch_indices(len(shard), cfg.training.batch_size, rng, local_iteration_count(cfg, len(shard)))
    velocities = [np.zeros_like(params.values) for params, _, _ in nets]
    for rows in batches:
        for (params, lr, momentum), velocity, grad in zip(nets, velocities, grads(rows), strict=True):
            nn.sgdm_step(params.values, velocity, grad, lr, momentum)
    for params, _, _ in nets:
        params.check_finite()


def anchor_client_update(
    state: ServerState,
    shard: ClientShard,
    ds: LabeledDataset,
    embeddings: np.ndarray,
    cfg: RunConfig,
    round_idx: int,
) -> UpdatePacket:
    """Anchor client: l1 iterations of (a) cross-entropy on its assigned
    expert and (b) the gate independent loss toward its one-hot expert id."""
    q = shard.assigned_expert
    if q is None or not (0 <= q < state.num_experts):
        raise ConfigError(f"client {shard.client_id} is not a valid anchor")
    tr = cfg.training
    expert = state.expert_params[q].copy()
    gate = state.gate_params.copy()

    def grads(rows):
        batch = nn.Batch(ds.inputs[shard.indices[rows]], ds.labels[shard.indices[rows]])
        loss, e_grad = nn.loss_and_grad(expert.spec, expert, batch, "ce_on_logits")
        _check_finite_loss(loss)
        g_loss, g_grad = gating.gate_independent_loss_grad(gate, embeddings[rows], q)
        _check_finite_loss(g_loss)
        return e_grad.values, g_grad.values

    nets = [(expert, tr.lr, tr.momentum), (gate, tr.gate_lr, tr.gate_momentum)]
    local_steps(shard, cfg, round_idx, nets, grads)
    return UpdatePacket(shard.client_id, gate, {q: expert}, len(shard))


def mixture_loss_and_grads(
    expert_params: list[nn.ParamVector],
    gate: nn.ParamVector,
    selected: tuple[int, ...],
    inputs: np.ndarray,
    embeddings: np.ndarray,
    labels: np.ndarray,
    renormalize: bool = False,
):
    """Joint mixture cross-entropy: loss, per-expert gradients, gate gradient.

    The combined logits are sum_k w_k * f_k(x) with w the `selected` columns
    of the gate softmax (renormalized over the selection only when asked);
    gradients flow into both the experts and the gate.
    """
    n = labels.shape[0]
    k = len(selected)
    if k == 0 or len(expert_params) != k:
        raise ConfigError("selection and expert parameter list must match and be non-empty")
    # one forward per network; backprop reuses each trace
    probs_full, gate_trace = nn.forward_with_trace(gate.spec, gate, embeddings)  # [n x M]
    w_raw = probs_full[:, list(selected)]  # [n x k]
    if renormalize:
        denom = w_raw.sum(axis=1, keepdims=True)
        w = w_raw / denom
    else:
        w = w_raw

    expert_logits, expert_traces = zip(
        *(nn.forward_with_trace(p.spec, p, inputs) for p in expert_params)
    )  # k x [n x C]
    combined = sum(w[:, j : j + 1] * expert_logits[j] for j in range(k))
    probs_out = nn.softmax(combined)
    loss = nn.cross_entropy(probs_out, labels)

    onehot = np.zeros_like(probs_out)
    onehot[np.arange(n), labels] = 1.0
    delta = (probs_out - onehot) / n  # dL/d(combined)

    expert_grads = [
        nn.backprop(expert_params[j].spec, expert_traces[j], w[:, j : j + 1] * delta) for j in range(k)
    ]

    # dL/dw[:, j] = <delta_i, f_j(x_i)> per sample
    g_sel = np.stack([np.sum(delta * expert_logits[j], axis=1) for j in range(k)], axis=1)
    if renormalize:
        inner = np.sum(g_sel * w, axis=1, keepdims=True)
        g_raw = (g_sel - inner) / denom
    else:
        g_raw = g_sel
    grad_probs = np.zeros_like(probs_full)
    grad_probs[:, list(selected)] = g_raw
    dz_gate = nn.softmax_vjp(probs_full, grad_probs)
    gate_grad = nn.backprop(gate.spec, gate_trace, dz_gate)
    return loss, expert_grads, gate_grad


def _mixture_local_steps(
    experts: dict[int, nn.ParamVector],
    gate: nn.ParamVector,
    shard: ClientShard,
    ds: LabeledDataset,
    embeddings: np.ndarray,
    cfg: RunConfig,
    round_idx: int,
) -> None:
    """l1 local SGDM steps of the mixture cross-entropy over `experts` (keyed
    by expert index, in selection order) and `gate`, both updated in place."""
    tr = cfg.training
    selected = tuple(experts)
    params = [experts[i] for i in selected]

    def grads(rows):
        x, y = ds.inputs[shard.indices[rows]], ds.labels[shard.indices[rows]]
        loss, e_grads, g_grad = mixture_loss_and_grads(
            params, gate, selected, x, embeddings[rows], y, tr.renormalize_gate_weights
        )
        _check_finite_loss(loss)
        return [g.values for g in e_grads] + [g_grad.values]

    nets = [(p, tr.lr, tr.momentum) for p in params] + [(gate, tr.gate_lr, tr.gate_momentum)]
    local_steps(shard, cfg, round_idx, nets, grads)


def normal_client_update(
    state: ServerState,
    shard: ClientShard,
    ds: LabeledDataset,
    embeddings: np.ndarray,
    selection: ExpertSelection,
    cfg: RunConfig,
    round_idx: int,
) -> UpdatePacket:
    """Normal client: l1 iterations jointly updating the K selected experts
    and the gate copy by gradients of the mixture cross-entropy."""
    if len(selection.indices) != cfg.federation.top_k:
        raise ConfigError(
            f"client {shard.client_id}: selection size {len(selection.indices)} != top_k"
        )
    experts = {i: state.expert_params[i].copy() for i in selection.indices}
    gate = state.gate_params.copy()
    _mixture_local_steps(experts, gate, shard, ds, embeddings, cfg, round_idx)
    return UpdatePacket(shard.client_id, gate, experts, len(shard))


# ---------------------------------------------------------------------------
# Aggregation


def aggregate(state: ServerState, packets: list[UpdatePacket], uniform: bool = False) -> ServerState:
    """Sample-count-weighted FedAvg of gate and expert copies.

    Packets are folded in ascending client id so the result does not depend
    on arrival order; networks updated by no packet carry over by reference.
    """
    ordered = sorted(packets, key=lambda p: p.client_id)

    def average(name: str, current: nn.ParamVector, held: list[tuple[UpdatePacket, nn.ParamVector]]):
        for p, params in held:
            if params.spec != current.spec:
                raise ProtocolError(f"client {p.client_id}: {name} spec mismatch")
        w = np.array([1.0 if uniform else float(p.num_samples) for p, _ in held])
        acc = np.zeros(current.spec.param_count())
        for wi, (_, params) in zip(w / w.sum(), held):
            acc += wi * params.values
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
    ctx: RunContext, state: ServerState, t: int, client_ids: list[int], update, scope: str | None = None
) -> ServerState:
    """`update(shard)` for each client in turn, then `aggregate` with the
    config's weighting. A NumericError raised by one client's update is
    re-raised naming `scope` (when given), round `t` and that client."""
    where = f"round {t}" if scope is None else f"{scope} | round {t}"
    shards = ctx.shards_by_id
    packets = []
    for cid in client_ids:
        try:
            packets.append(update(shards[cid]))
        except NumericError as exc:
            raise exc.within(f"{where} | client {cid}") from exc
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
# Full training loop


@dataclass
class RunContext:
    """Prepared inputs for one training run."""

    cfg: RunConfig
    train_ds: LabeledDataset
    test_ds: LabeledDataset
    anchor_shards: list[ClientShard]
    normal_shards: list[ClientShard]
    test_shards: list[ClientShard]
    common: CommonExpert
    cache: dict[int, np.ndarray]
    test_cache: dict[int, np.ndarray]
    expert_spec: nn.NetSpec
    gate_spec: nn.NetSpec

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
    experts = [init_expert(ctx, i) for i in range(ctx.cfg.num_experts)]
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
    plan = plan_round(t, cfg, rng, anchor_pool, active_ids(cfg, t, normals), state.gate_params, ctx.cache)

    def update(shard: ClientShard) -> UpdatePacket:
        emb = ctx.cache[shard.client_id]
        if shard.kind == KIND_ANCHOR:
            return anchor_client_update(state, shard, ctx.train_ds, emb, cfg, t)
        return normal_client_update(state, shard, ctx.train_ds, emb, plan.selections[shard.client_id], cfg, t)

    return train_round(ctx, state, t, plan.anchor_ids + plan.normal_ids, update), plan


def run_training(ctx: RunContext):
    """Full training: T rounds of plan -> client updates -> aggregate,
    with metrics every eval interval and a communication ledger.

    Returns (final ServerState, list[MetricsRecord], CommLedger). Every
    method gets its initial state and round step from
    `baselines.make_stepper`; the plumbing (ledger, metrics cadence) is
    shared.
    """
    from . import baselines, evaluation  # runtime <-> baselines/evaluation are mutually aware

    cfg = ctx.cfg
    method = cfg.federation.method
    ledger = CommLedger()
    setup_down = float(cfg.num_training_clients * ctx.sizes.common)
    for name in comm_cost(RoundPlan(0, [], []), cfg, ctx.sizes):
        ledger.add(SETUP_ROUND, name, setup_down, 0.0)

    state, stepper = baselines.make_stepper(ctx, method)
    history = []
    for t in range(cfg.rounds):
        state, plan = stepper(state, t)
        costs = comm_cost(plan, cfg, ctx.sizes)
        for name, (down, up) in costs.items():
            ledger.add(t, name, down, up)
        if (t + 1) % cfg.eval.interval == 0 or t == cfg.rounds - 1:
            down_cum, up_cum = ledger.cumulative(method)
            record = evaluation.evaluate_round(ctx, state, method, t + 1, down_cum, up_cum)
            history.append(record)
    return state, history, ledger

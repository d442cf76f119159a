"""Round orchestration: client sampling, expert dispatch, local updates,
FedAvg aggregation, and communication accounting.

One round activates N_a anchor clients (each training its pre-assigned
expert plus the gate's independent loss) and N_c normal clients (each
jointly training its top-K experts and the gate through the mixture
cross-entropy). The server then averages the returned copies.

Every client update draws its randomness from a stream keyed by
(seed, "client", round, client_id), so results do not depend on the order
in which a round's clients are updated; they run one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gating, nn
from .config import RunConfig, ScenarioRange
from .data import KIND_ANCHOR, ClientShard, LabeledDataset
from .errors import ConfigError, NumericError, ProtocolError
from .gating import CommonExpert, ExpertSelection, GateNet
from .seeding import rng_stream

SETUP_ROUND = -1  # ledger row for the one-time common-expert broadcast


@dataclass
class ServerState:
    """Everything the server holds between rounds."""

    expert_spec: nn.NetSpec
    gate_spec: nn.NetSpec | None
    expert_params: list[nn.ParamVector]
    gate_params: nn.ParamVector | None
    round: int = 0

    @property
    def num_experts(self) -> int:
        return len(self.expert_params)

    def copy(self) -> "ServerState":
        return ServerState(
            self.expert_spec,
            self.gate_spec,
            [p.copy() for p in self.expert_params],
            None if self.gate_params is None else self.gate_params.copy(),
            self.round,
        )


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
    kind: str
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


def plan_round(
    t: int,
    cfg: RunConfig,
    rng: np.random.Generator,
    anchor_pool: list[int],
    normal_pool: list[int],
    gate: GateNet | None = None,
    embeddings: dict[int, np.ndarray] | None = None,
) -> RoundPlan:
    """Sample this round's active clients (uniform, without replacement) and,
    when a gate is supplied, compute each normal client's expert selection."""
    fed = cfg.federation
    n_a, n_c = fed.anchors_per_round, fed.normals_per_round

    if n_a > 0 and len(anchor_pool) < n_a:
        raise ConfigError(f"round {t}: need {n_a} anchors but pool has {len(anchor_pool)}")
    if n_c > 0 and len(normal_pool) < n_c:
        raise ConfigError(f"round {t}: need {n_c} normal clients but pool has {len(normal_pool)}")

    anchor_ids = sorted(rng.choice(anchor_pool, size=n_a, replace=False).tolist()) if n_a else []
    normal_ids = sorted(rng.choice(normal_pool, size=n_c, replace=False).tolist()) if n_c else []

    selections = {}
    if gate is not None:
        if embeddings is None:
            raise ConfigError("expert selection requires cached embeddings")
        for cid in normal_ids:
            selections[cid] = gating.select_topk(gate, embeddings[cid], fed.top_k, client_id=cid)
    return RoundPlan(t, anchor_ids, normal_ids, selections)


# ---------------------------------------------------------------------------
# Client updates


def _client_batches(shard: ClientShard, cfg: RunConfig, round_idx: int) -> list[np.ndarray]:
    rng = rng_stream(cfg.seed, "client", round_idx, shard.client_id)
    iters = local_iteration_count(cfg, len(shard))
    return minibatch_indices(len(shard), cfg.training.batch_size, rng, iters)


def _check_finite_loss(loss: float) -> None:
    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")


def update_clients(t: int, client_ids: list[int], update) -> list:
    """`update(cid)` for each client in turn; a NumericError raised by one
    client's update is re-raised naming round `t` and that client."""
    results = []
    for cid in client_ids:
        try:
            results.append(update(cid))
        except NumericError as exc:
            raise exc.within(f"round {t} | client {cid}") from exc
    return results


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
    gate = GateNet(state.gate_spec, state.gate_params.copy())
    opt_e = nn.OptimizerState.fresh(state.expert_spec, tr.lr, tr.momentum)
    opt_g = nn.OptimizerState.fresh(state.gate_spec, tr.gate_lr, tr.gate_momentum)

    for rows in _client_batches(shard, cfg, round_idx):
        batch = nn.Batch(ds.inputs[shard.indices[rows]], ds.labels[shard.indices[rows]])
        loss, grad = nn.loss_and_grad(state.expert_spec, expert, batch, "ce_on_logits")
        _check_finite_loss(loss)
        expert, opt_e = nn.sgdm_step(expert, grad, opt_e)

        g_loss, g_grad = gating.gate_independent_loss_grad(gate, embeddings[rows], q)
        _check_finite_loss(g_loss)
        gate.params, opt_g = nn.sgdm_step(gate.params, g_grad, opt_g)

    return UpdatePacket(shard.client_id, KIND_ANCHOR, gate.params, {q: expert}, len(shard))


def mixture_loss_and_grads(
    expert_spec: nn.NetSpec,
    expert_params: list[nn.ParamVector],
    gate: GateNet,
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
    probs_full = gating.gate_scores(gate, embeddings)  # [n x M]
    w_raw = probs_full[:, list(selected)]  # [n x k]
    if renormalize:
        denom = w_raw.sum(axis=1, keepdims=True)
        w = w_raw / denom
    else:
        w = w_raw

    expert_logits = [
        nn.forward(expert_spec, p, inputs) for p in expert_params
    ]  # k x [n x C]
    combined = sum(w[:, j : j + 1] * expert_logits[j] for j in range(k))
    probs_out = nn.softmax(combined)
    loss = nn.cross_entropy(probs_out, labels)

    onehot = np.zeros_like(probs_out)
    onehot[np.arange(n), labels] = 1.0
    delta = (probs_out - onehot) / n  # dL/d(combined)

    expert_grads = [
        nn.ParamVector(
            nn.backward_from_output_grad(
                expert_spec, expert_params[j], inputs, w[:, j : j + 1] * delta
            ),
            expert_params[j].spec_hash,
        )
        for j in range(k)
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
    gate_grad = nn.ParamVector(
        nn.backward_from_output_grad(gate.spec, gate.params, embeddings, dz_gate),
        gate.params.spec_hash,
    )
    return loss, expert_grads, gate_grad


def _mixture_local_steps(
    expert_spec: nn.NetSpec,
    experts: dict[int, nn.ParamVector],
    gate: GateNet,
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
    opt_e = {i: nn.OptimizerState.fresh(expert_spec, tr.lr, tr.momentum) for i in selected}
    opt_g = nn.OptimizerState.fresh(gate.spec, tr.gate_lr, tr.gate_momentum)
    for rows in _client_batches(shard, cfg, round_idx):
        loss, e_grads, g_grad = mixture_loss_and_grads(
            expert_spec,
            [experts[i] for i in selected],
            gate,
            selected,
            ds.inputs[shard.indices[rows]],
            embeddings[rows],
            ds.labels[shard.indices[rows]],
            tr.renormalize_gate_weights,
        )
        _check_finite_loss(loss)
        for j, i in enumerate(selected):
            experts[i], opt_e[i] = nn.sgdm_step(experts[i], e_grads[j], opt_e[i])
        gate.params, opt_g = nn.sgdm_step(gate.params, g_grad, opt_g)


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
    gate = GateNet(state.gate_spec, state.gate_params.copy())
    _mixture_local_steps(state.expert_spec, experts, gate, shard, ds, embeddings, cfg, round_idx)
    return UpdatePacket(shard.client_id, shard.kind, gate.params, experts, len(shard))


# ---------------------------------------------------------------------------
# Aggregation


def aggregate(state: ServerState, packets: list[UpdatePacket], uniform: bool = False) -> ServerState:
    """Sample-count-weighted FedAvg of gate and expert copies.

    Packets are folded in ascending client id so the result does not depend
    on arrival order; experts updated by no packet are left unchanged.
    """
    new_state = state.copy()
    new_state.round = state.round + 1
    if not packets:
        return new_state
    ordered = sorted(packets, key=lambda p: p.client_id)
    e_hash = nn.spec_hash(state.expert_spec)
    g_hash = None if state.gate_spec is None else nn.spec_hash(state.gate_spec)

    def weights(pkts):
        w = np.array([1.0 if uniform else float(p.num_samples) for p in pkts])
        return w / w.sum()

    gate_pkts = [p for p in ordered if p.gate is not None]
    if gate_pkts:
        if state.gate_params is None:
            raise ProtocolError("gate update received but server holds no gate")
        for p in gate_pkts:
            if p.gate.spec_hash != g_hash:
                raise ProtocolError(f"client {p.client_id}: gate checksum mismatch")
        w = weights(gate_pkts)
        acc = np.zeros_like(state.gate_params.values)
        for wi, p in zip(w, gate_pkts):
            acc += wi * p.gate.values
        new_state.gate_params = nn.ParamVector(acc, g_hash)

    for i in range(state.num_experts):
        holders = [p for p in ordered if i in p.experts]
        if not holders:
            continue
        for p in holders:
            if p.experts[i].spec_hash != e_hash:
                raise ProtocolError(f"client {p.client_id}: expert {i} checksum mismatch")
        w = weights(holders)
        acc = np.zeros_like(state.expert_params[i].values)
        for wi, p in zip(w, holders):
            acc += wi * p.experts[i].values
        new_state.expert_params[i] = nn.ParamVector(acc, e_hash)
    return new_state


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
    out = {
        "fedjets": (float(fedjets_down), float(fedjets_down)),
        "fedmix": (float(n * m * sizes.expert), float(n * m * sizes.expert)),
        "fedavg": (float(n * sizes.expert), float(n * sizes.expert)),
        "fedprox": (float(n * sizes.expert), float(n * sizes.expert)),
        "avg_ensemble": (
            float(n * cfg.federation.ensemble_size * sizes.expert),
            float(n * cfg.federation.ensemble_size * sizes.expert),
        ),
    }
    return out


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
        out = {s.client_id: s for s in self.anchor_shards + self.normal_shards}
        return out

    @property
    def sizes(self) -> ModelSizes:
        return ModelSizes(
            self.expert_spec.param_count(),
            self.gate_spec.param_count(),
            self.common.spec.param_count(),
        )


def init_expert(ctx: RunContext, stream_index: int) -> nn.ParamVector:
    """Initial model per the expert_init policy: a seeded scratch draw from
    the stream of expert `stream_index`, or a copy of the common expert."""
    if ctx.cfg.federation.expert_init == "from_common":
        if ctx.common.spec != ctx.expert_spec:
            raise ConfigError("expert_init=from_common requires matching expert/common specs")
        return ctx.common.params.copy()
    return nn.init_params(ctx.expert_spec, rng_stream(ctx.cfg.seed, "expert-init", stream_index))


def init_server_state(ctx: RunContext) -> ServerState:
    experts = [init_expert(ctx, i) for i in range(ctx.cfg.num_experts)]
    gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "gate-init"))
    return ServerState(ctx.expert_spec, ctx.gate_spec, experts, gate, 0)


def scenario_range(cfg: RunConfig, t: int) -> ScenarioRange | None:
    """The scenario range covering round t, or None without a schedule."""
    if cfg.scenario is None:
        return None
    for r in cfg.scenario:
        if r.start <= t < r.end:
            return r
    raise ConfigError(f"round {t} not covered by the scenario schedule")


def _active_pools(ctx: RunContext, t: int):
    """Anchor/normal id pools for round t, honoring a scenario schedule.

    The schedule's active set restricts normal clients; anchors are only
    restricted when the active set explicitly names anchor ids.
    """
    anchor_ids = [s.client_id for s in ctx.anchor_shards]
    normal_ids = [s.client_id for s in ctx.normal_shards]
    current = scenario_range(ctx.cfg, t)
    if current is None:
        return anchor_ids, normal_ids
    active = set(current.active_clients)
    normals = [cid for cid in normal_ids if cid in active]
    anchors_in_active = [cid for cid in anchor_ids if cid in active]
    anchors = anchors_in_active if anchors_in_active else anchor_ids
    if ctx.cfg.federation.normals_per_round > 0 and not normals:
        raise ConfigError(f"scenario range [{current.start}, {current.end}) has no active normal clients")
    return anchors, normals


def fedjets_round(ctx: RunContext, state: ServerState, t: int) -> tuple[ServerState, RoundPlan]:
    cfg = ctx.cfg
    anchor_pool, normal_pool = _active_pools(ctx, t)
    gate = GateNet(ctx.gate_spec, state.gate_params)
    plan = plan_round(
        t, cfg, rng_stream(cfg.seed, "plan", t), anchor_pool, normal_pool, gate=gate, embeddings=ctx.cache
    )
    shards = ctx.shards_by_id
    packets = update_clients(
        t,
        plan.anchor_ids,
        lambda cid: anchor_client_update(state, shards[cid], ctx.train_ds, ctx.cache[cid], cfg, t),
    ) + update_clients(
        t,
        plan.normal_ids,
        lambda cid: normal_client_update(
            state, shards[cid], ctx.train_ds, ctx.cache[cid], plan.selections[cid], cfg, t
        ),
    )
    new_state = aggregate(state, packets, cfg.federation.uniform_weighting)
    return new_state, plan


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

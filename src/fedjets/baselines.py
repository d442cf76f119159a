"""Baselines sharing the runtime's plumbing: FedAvg, FedProx, Average
Ensembles, and a FedMix-style all-experts mixture with per-client gates;
`make_stepper` is the one training entry point of every method, FedJETs
included.

All baselines sample their active clients uniformly from the full training
pool (anchor shards are ordinary clients to them), reuse the same client
RNG streams, and aggregate through `runtime.aggregate`, so method
differences are isolated to the update rule itself.
"""

from __future__ import annotations

import numpy as np

from . import nn, runtime
from .config import RunConfig
from .data import ClientShard, LabeledDataset
from .errors import ConfigError
from .runtime import RoundPlan, RunContext, ServerState, UpdatePacket
from .seeding import rng_stream


def _sgd_client_update(
    global_params: nn.ParamVector,
    shard: ClientShard,
    ds: LabeledDataset,
    cfg: RunConfig,
    round_idx: int,
    prox_mu: float = 0.0,
) -> UpdatePacket:
    """Local SGDM on cross-entropy; with prox_mu > 0 each step adds the
    FedProx pull mu*(w_local - w_global) to the gradient."""
    tr = cfg.training
    params = global_params.copy()

    def grads(rows):
        batch = nn.Batch(ds.inputs[shard.indices[rows]], ds.labels[shard.indices[rows]])
        loss, grad = nn.loss_and_grad(params.spec, params, batch, "ce_on_logits")
        runtime._check_finite_loss(loss)
        if prox_mu != 0.0:
            grad.values += prox_mu * (params.values - global_params.values)
        return [grad.values]

    runtime.local_steps(shard, cfg, round_idx, [(params, tr.lr, tr.momentum)], grads)
    return UpdatePacket(shard.client_id, shard.kind, None, {0: params}, len(shard))


def fedavg_client_update(global_params, shard, ds, cfg, round_idx) -> UpdatePacket:
    return _sgd_client_update(global_params, shard, ds, cfg, round_idx, prox_mu=0.0)


def fedprox_client_update(global_params, shard, ds, cfg, round_idx, mu) -> UpdatePacket:
    if mu < 0:
        raise ConfigError("fedprox mu must be non-negative")
    return _sgd_client_update(global_params, shard, ds, cfg, round_idx, prox_mu=mu)


def prox_loss(params, global_params, batch, mu) -> float:
    """The augmented objective FedProx steps descend (for gradient checks)."""
    base = nn.loss_value(params.spec, params, batch, "ce_on_logits")
    return base + 0.5 * mu * float(np.sum((params.values - global_params.values) ** 2))


def avg_ensemble_predict(models: list[nn.ParamVector], inputs: np.ndarray) -> np.ndarray:
    """Argmax of the mean of per-model softmax probabilities."""
    if len(models) < 2:
        raise ConfigError("ensemble prediction needs at least 2 models")
    out_dim = models[0].spec.output_dim
    if any(params.spec.output_dim != out_dim for params in models):
        raise ConfigError("ensemble members must share the output dimension")
    mean = None
    for params in models:
        probs = nn.softmax(nn.forward(params.spec, params, inputs))
        mean = probs if mean is None else mean + probs
    return (mean / len(models)).argmax(axis=1)


def baseline_plan(ctx: RunContext, t: int, *key) -> RoundPlan:
    """Uniform draw from the full training pool: baselines treat every
    training shard alike, and a scenario restricts the pool to exactly the
    listed ids. A `key` (an ensemble member's index) gives an independent
    draw."""
    cfg = ctx.cfg
    n = cfg.federation.anchors_per_round + cfg.federation.normals_per_round
    pool = [s.client_id for s in ctx.anchor_shards + ctx.normal_shards]
    current = runtime.scenario_range(cfg, t)
    if current is not None:
        active = set(current.active_clients)
        pool = [cid for cid in pool if cid in active]
        if not pool:
            raise ConfigError(f"scenario range [{current.start}, {current.end}) has no active clients")
    if n > len(pool):
        raise ConfigError(f"round {t}: need {n} clients but pool has {len(pool)}")
    rng = rng_stream(cfg.seed, "plan", t, *key)
    ids = sorted(rng.choice(pool, size=n, replace=False).tolist())
    return RoundPlan(t, [], ids)


def fedavg_like_round(ctx: RunContext, state: ServerState, t: int, mu: float) -> tuple[ServerState, RoundPlan]:
    plan = baseline_plan(ctx, t)
    shards = ctx.shards_by_id
    packets = runtime.update_clients(
        t,
        plan.normal_ids,
        lambda cid: _sgd_client_update(state.expert_params[0], shards[cid], ctx.train_ds, ctx.cfg, t, mu),
    )
    return runtime.aggregate(state, packets, ctx.cfg.federation.uniform_weighting), plan


def ensemble_round(ctx: RunContext, state: ServerState, t: int) -> tuple[ServerState, RoundPlan]:
    """Each ensemble member runs an independent FedAvg round with its own
    client draw (different random seeds per member)."""
    cfg = ctx.cfg
    shards = ctx.shards_by_id
    plans = [baseline_plan(ctx, t, m) for m in range(state.num_experts)]
    new_members = []
    for m, (member, plan) in enumerate(zip(state.expert_params, plans)):
        packets = runtime.update_clients(
            t,
            plan.normal_ids,
            lambda cid: _sgd_client_update(member, shards[cid], ctx.train_ds, cfg, t),
            scope=f"ensemble member {m}",
        )
        member_state = ServerState([member], None, state.round)
        new_members.append(runtime.aggregate(member_state, packets, cfg.federation.uniform_weighting).expert_params[0])
    return ServerState(new_members, None, state.round + 1), plans[0]


def fedmix_client_update(
    ctx: RunContext,
    state: ServerState,
    local_gate: nn.ParamVector,
    shard: ClientShard,
    t: int,
) -> tuple[UpdatePacket, nn.ParamVector]:
    """FedMix client: receives all M experts, trains them through its
    persistent local gate (mixture cross-entropy); the gate stays local."""
    experts = {i: p.copy() for i, p in enumerate(state.expert_params)}
    gate = local_gate.copy()
    runtime._mixture_local_steps(experts, gate, shard, ctx.train_ds, ctx.cache[shard.client_id], ctx.cfg, t)
    packet = UpdatePacket(shard.client_id, shard.kind, None, experts, len(shard))
    return packet, gate


def fedmix_round(
    ctx: RunContext,
    state: ServerState,
    local_gates: dict[int, nn.ParamVector],
    t: int,
) -> tuple[ServerState, RoundPlan]:
    cfg = ctx.cfg
    plan = baseline_plan(ctx, t)
    shards = ctx.shards_by_id
    for cid in plan.normal_ids:
        if cid not in local_gates:
            local_gates[cid] = nn.init_params(ctx.gate_spec, rng_stream(cfg.seed, "fedmix-gate", cid))
    results = runtime.update_clients(
        t, plan.normal_ids, lambda cid: fedmix_client_update(ctx, state, local_gates[cid], shards[cid], t)
    )
    packets = []
    for packet, gate in results:
        packets.append(packet)
        local_gates[packet.client_id] = gate  # persists across activations
    return runtime.aggregate(state, packets, cfg.federation.uniform_weighting), plan


def make_stepper(ctx: RunContext, method: str):
    """Initial server state and per-round step(state, t) -> (state, plan)
    for any method; the one training dispatch point."""
    cfg = ctx.cfg
    if method == "fedjets":
        return runtime.init_server_state(ctx), lambda st, t: runtime.fedjets_round(ctx, st, t)
    if method in ("fedavg", "fedprox"):
        state = ServerState([runtime.init_expert(ctx, 0)], None, 0)
        mu = cfg.federation.fedprox_mu if method == "fedprox" else 0.0
        return state, lambda st, t: fedavg_like_round(ctx, st, t, mu)
    if method == "avg_ensemble":
        members = [runtime.init_expert(ctx, m) for m in range(cfg.federation.ensemble_size)]
        state = ServerState(members, None, 0)
        return state, lambda st, t: ensemble_round(ctx, st, t)
    if method == "fedmix":
        experts = [runtime.init_expert(ctx, i) for i in range(cfg.num_experts)]
        state = ServerState(experts, None, 0)
        local_gates: dict[int, nn.ParamVector] = {}
        return state, lambda st, t: fedmix_round(ctx, st, local_gates, t)
    raise ConfigError(f"unknown method {method!r}")

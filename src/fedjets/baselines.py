"""Baselines sharing the runtime's plumbing: FedAvg, FedProx, Average
Ensembles, and a FedMix-style all-experts mixture with per-client gates;
`make_stepper` is the one training entry point of every method, FedJETs
included. Every method's test-time rule is `evaluation.client_predictor`,
which scores a stack of test clients at a time (FedMix: fresh test gates).

Baselines draw their clients through `runtime.active_ids` and
`runtime.draw_clients`, reuse the same client RNG streams, and step their
clients through `runtime.client_updates` and average them in one
`runtime.aggregate` (`runtime.train_round` does both for FedAvg and
FedProx), so method differences are isolated to the update rule itself:
each method names a `runtime.Work` per client.
"""

from __future__ import annotations

import numpy as np

from . import nn, runtime
from .data import ClientShard
from .errors import ConfigError
from .runtime import RoundPlan, RunContext, ServerState, UpdatePacket
from .seeding import rng_stream


def sgd_work(mu: float = 0.0, expert: int = 0):
    """`work(shard)` of a FedAvg round: local SGDM on cross-entropy of the
    server's `expert`. FedProx is mu > 0: each step adds the pull
    mu*(w_local - w_global) to the gradient; the config keeps mu >= 0."""
    return lambda shard: runtime.Work("sgd", (expert,), None, mu)


def baseline_plan(ctx: RunContext, t: int, *key) -> RoundPlan:
    """Uniform draw from the full training pool, which a scenario restricts
    to exactly its listed ids: baselines treat every training shard alike.
    A `key` (an ensemble member's index) gives an independent draw."""
    cfg = ctx.cfg
    n = cfg.federation.anchors_per_round + cfg.federation.normals_per_round
    pool = runtime.active_ids(cfg, t, [s.client_id for s in ctx.anchor_shards + ctx.normal_shards])
    return RoundPlan(t, [], runtime.draw_clients(rng_stream(cfg.seed, "plan", t, *key), pool, n, t, "clients"))


def fedavg_like_round(ctx: RunContext, state: ServerState, t: int, mu: float) -> tuple[ServerState, RoundPlan]:
    plan = baseline_plan(ctx, t)
    return runtime.train_round(ctx, state, t, plan.normal_ids, sgd_work(mu)), plan


def ensemble_round(ctx: RunContext, state: ServerState, t: int) -> tuple[ServerState, RoundPlan]:
    """Each ensemble member m runs an independent FedAvg round with its own
    client draw: its clients step expert m, and one `aggregate` averages each
    member over its own packets (a client drawn twice sends one per member).
    Members step in order, so a failure names its member."""
    plans = [baseline_plan(ctx, t, m) for m in range(state.num_experts)]
    packets = []
    for m, plan in enumerate(plans):
        packets += runtime.client_updates(ctx, state, t, plan.normal_ids, sgd_work(expert=m), f"ensemble member {m}")
    return runtime.aggregate(state, packets, ctx.cfg.federation.uniform_weighting), plans[0]


def fedmix_updates(
    ctx: RunContext,
    state: ServerState,
    local_gates: dict[int, np.ndarray],
    t: int,
    client_ids: list[int],
) -> list[UpdatePacket]:
    """FedMix clients: each receives all M experts and trains them through
    its persistent local gate row (mixture cross-entropy). The gate is drawn
    on the client's first activation; a trained copy replaces it in
    `local_gates` and never leaves the client, so no packet carries it."""
    m = tuple(range(state.num_experts))

    def work(shard: ClientShard) -> runtime.Work:
        gate = local_gates.get(shard.client_id)
        if gate is None:
            gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-gate", shard.client_id)).values
        return runtime.Work("mixture", m, gate)

    packets = runtime.client_updates(ctx, state, t, client_ids, work)
    for p in packets:
        local_gates[p.client_id], p.gate = p.gate, None
    return packets


def fedmix_round(
    ctx: RunContext,
    state: ServerState,
    local_gates: dict[int, np.ndarray],
    t: int,
) -> tuple[ServerState, RoundPlan]:
    plan = baseline_plan(ctx, t)
    packets = fedmix_updates(ctx, state, local_gates, t, plan.normal_ids)
    return runtime.aggregate(state, packets, ctx.cfg.federation.uniform_weighting), plan


def make_stepper(ctx: RunContext, method: str):
    """Initial server state and per-round step(state, t) -> (state, plan)
    for any method; the one training dispatch point."""
    fed = ctx.cfg.federation
    if method == "fedjets":
        return runtime.init_server_state(ctx), lambda st, t: runtime.fedjets_round(ctx, st, t)
    model_counts = {"fedavg": 1, "fedprox": 1, "avg_ensemble": fed.ensemble_size, "fedmix": fed.num_experts}
    if method not in model_counts:
        raise ConfigError(f"unknown method {method!r}")
    state = ServerState([runtime.init_expert(ctx, i) for i in range(model_counts[method])], None, 0)
    if method == "avg_ensemble":
        return state, lambda st, t: ensemble_round(ctx, st, t)
    if method == "fedmix":
        local_gates: dict[int, np.ndarray] = {}
        return state, lambda st, t: fedmix_round(ctx, st, local_gates, t)
    mu = fed.fedprox_mu if method == "fedprox" else 0.0
    return state, lambda st, t: fedavg_like_round(ctx, st, t, mu)

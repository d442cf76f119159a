"""Round orchestration: planning, client updates, aggregation, the full
training loop, and communication accounting."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ce_grad,
    central_diff,
    cross_entropy,
    gate_independent_loss_grad,
    loss_value,
    min_hidden_preact,
    minibatch_indices_two_branch,
    mixture_forward,
    mixture_grads,
    rel_error,
    topk_ids,
    views_of,
)
from fedjets import baselines, benchmarks, data, experiment, gating, nn, runtime
from fedjets.errors import ConfigError, NumericError, ProtocolError
from fedjets.seeding import rng_stream

MINI = dict(
    data={
        "num_classes": 6,
        "dim": 6,
        "train_per_class": 30,
        "test_per_class": 15,
        "separation": 4.0,
        "num_clients": 8,
        "num_test_clients": 2,
        "labels_per_client": 2,
        "test_labels_per_client": 2,
        "labels_per_anchor": 2,
    },
    model={"expert_dims": [6, 8, 6], "pretrain_target_accuracy": 0.8, "pretrain_max_epochs": 8},
    federation={
        "method": "fedjets",
        "rounds": 4,
        "num_experts": 3,
        "top_k": 2,
        "anchors_per_round": 2,
        "normals_per_round": 2,
    },
    training={"lr": 0.05, "momentum": 0.9, "gate_lr": 0.01, "batch_size": 16, "local_iterations": 2},
    eval={"interval": 2},
)


def mini_cfg(**extra):
    ov = {k: dict(v) for k, v in MINI.items()}
    for k, v in extra.items():
        if k in ov and isinstance(v, dict):
            ov[k].update(v)
        else:
            ov[k] = v
    return benchmarks.synth10_config(**{"seed": 5, **ov})


@pytest.fixture(scope="module")
def ctx():
    return experiment.build_context(mini_cfg())


def one_update(ctx, state, t, shard, work):
    """One client's packet, stepped as a stack of one."""
    return runtime.client_updates(ctx, state, t, [shard.client_id], work)[0]


def fedjets_update(ctx, state, t, shard):
    """One FedJETs client's packet: an anchor, or a normal client routed by the state's gate."""
    return one_update(ctx, state, t, shard, runtime.fedjets_work(ctx, state))


class TestPlanRound:
    def test_all_anchors_active_when_na_equals_m(self, ctx):
        cfg = mini_cfg(federation={"anchors_per_round": 3})
        for t in range(3):
            plan = runtime.plan_round(t, cfg, rng_stream(cfg.seed, "plan", t), [0, 1, 2], [3, 4, 5, 6, 7])
            assert plan.anchor_ids == [0, 1, 2]

    def test_na_zero_pure_normal_regime(self, ctx):
        cfg = mini_cfg(federation={"anchors_per_round": 0, "normals_per_round": 3})
        plan = runtime.plan_round(0, cfg, rng_stream(1, "p"), [0, 1, 2], [3, 4, 5, 6, 7])
        assert plan.anchor_ids == [] and len(plan.normal_ids) == 3

    def test_fixed_seed_identical_plan_sequence(self, ctx):
        cfg, shards = ctx.cfg, ctx.shards_by_id
        state = runtime.init_server_state(ctx)
        ids = [s.client_id for s in ctx.normal_shards]
        for t in range(3):
            a = runtime.plan_round(t, cfg, rng_stream(cfg.seed, "plan", t), [0, 1, 2], ids)
            b = runtime.plan_round(t, cfg, rng_stream(cfg.seed, "plan", t), [0, 1, 2], ids)
            assert a.anchor_ids == b.anchor_ids and a.normal_ids == b.normal_ids
            work_a, work_b = runtime.fedjets_work(ctx, state), runtime.fedjets_work(ctx, state)
            assert all(work_a(shards[c]).experts == work_b(shards[c]).experts for c in a.normal_ids)

    def test_selection_size_is_top_k(self, ctx):
        state = runtime.init_server_state(ctx)
        ids = [s.client_id for s in ctx.normal_shards]
        plan = runtime.plan_round(0, ctx.cfg, rng_stream(9, "p"), [0, 1, 2], ids)
        work = runtime.fedjets_work(ctx, state)
        for cid in plan.normal_ids:
            assert len(work(ctx.shards_by_id[cid]).experts) == ctx.cfg.federation.top_k

    def test_duplicate_active_client_rejected(self):
        with pytest.raises(ConfigError):
            runtime.RoundPlan(0, [1], [1, 2])


class TestAnchorUpdate:
    def test_zero_iterations_returns_snapshot(self, ctx):
        c = dataclasses.replace(ctx, cfg=mini_cfg(training={"local_iterations": 0}))
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[1]
        pkt = fedjets_update(c, state, 0, shard)
        assert np.array_equal(pkt.experts[1], state.expert_params[1].values)
        assert np.array_equal(pkt.gate, state.gate_params.values)
        assert pkt.num_samples == len(shard)

    def test_packet_contains_only_assigned_expert(self, ctx):
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[2]
        pkt = fedjets_update(ctx, state, 0, shard)
        assert set(pkt.experts) == {2}

    def test_gate_loss_decreases_on_fixed_shard(self, ctx):
        c = dataclasses.replace(ctx, cfg=mini_cfg(training={"gate_lr": 0.001, "local_iterations": 4}))
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[0]
        emb = ctx.train_embeddings[shard.indices]
        loss_before, _ = gate_independent_loss_grad(state.gate_params, emb, 0)
        pkt = fedjets_update(c, state, 0, shard)
        loss_after, _ = gate_independent_loss_grad(nn.ParamVector(pkt.gate, state.gate_params.spec), emb, 0)
        assert loss_after <= loss_before

    def test_expert_update_matches_replayed_trajectory(self, ctx):
        cfg = ctx.cfg
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[0]
        t = 3
        pkt = fedjets_update(ctx, state, t, shard)
        # independent replay with the same derived stream
        rng = rng_stream(cfg.seed, "client", t, shard.client_id)
        iters = runtime.local_iteration_count(cfg, len(shard))
        batches = runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, iters)
        # SGDM written out, independent of nn.sgdm_step: v = m*v + g; p = p - lr*v
        lr, m = cfg.training.lr, cfg.training.momentum
        params, v = state.expert_params[0].copy(), 0.0
        for rows in batches:
            x, y = ctx.train_ds.inputs[shard.indices[rows]], ctx.train_ds.labels[shard.indices[rows]]
            v = m * v + ce_grad(ctx.expert_spec, params, x, y, "ce_on_logits")
            params = nn.ParamVector(params.values - lr * v, params.spec)
        assert np.array_equal(pkt.experts[0], params.values)
        # and the gate, by the gate's independent loss toward expert 0
        lr, m = cfg.training.gate_lr, cfg.training.gate_momentum
        gate, v = state.gate_params.copy(), 0.0
        for rows in batches:
            _, grad = gate_independent_loss_grad(gate, ctx.train_embeddings[shard.indices[rows]], 0)
            v = m * v + grad
            gate = nn.ParamVector(gate.values - lr * v, gate.spec)
        assert np.array_equal(pkt.gate, gate.values)


class TestNormalUpdate:
    def test_packet_contains_exactly_selected_experts(self, ctx):
        state = runtime.init_server_state(ctx)
        shard = ctx.normal_shards[0]
        sel = topk_ids(gating.gate_scores(state.gate_params, ctx.train_embeddings[shard.indices]), 2)
        pkt = fedjets_update(ctx, state, 0, shard)
        assert set(pkt.experts) == set(sel)

    def test_work_routes_each_normal_client_by_the_state_gate(self, ctx):
        # the gate of the state being trained picks the experts, from the client's rows of the training-set embedding
        state = runtime.init_server_state(ctx)
        state.gate_params = nn.init_params(ctx.gate_spec, rng_stream(4, "routing-gate"))
        work = runtime.fedjets_work(ctx, state)
        picked = set()
        for shard in ctx.normal_shards:
            w = work(shard)
            scores = gating.gate_scores(state.gate_params, ctx.train_embeddings[shard.indices])
            assert w.kind == "mixture" and w.experts == topk_ids(scores, ctx.cfg.federation.top_k)
            assert w.gate is state.gate_params.values
            picked.add(w.experts)
        assert len(picked) > 1

    def test_saturated_gate_reduces_to_single_expert_training(self, ctx):
        # output bias pins expert 1: its mixture weight is 1 - O(1e-20)
        cfg = mini_cfg(federation={"top_k": 1})
        values = np.zeros(ctx.gate_spec.param_count())
        values[-3:] = [0.0, 60.0, 0.0]
        state = runtime.init_server_state(ctx)
        gate = nn.ParamVector(values, state.gate_params.spec)
        shard = ctx.normal_shards[1]
        emb = ctx.train_embeddings[shard.indices]
        x = ctx.train_ds.inputs[shard.indices]
        y = ctx.train_ds.labels[shard.indices]
        probs, e_grads, _ = mixture_grads([state.expert_params[1]], gate, (1,), x, emb, y)
        plain_grad = ce_grad(ctx.expert_spec, state.expert_params[1], x, y, "ce_on_logits")
        assert abs(cross_entropy(probs, y) - loss_value(ctx.expert_spec, state.expert_params[1], x, y)) < 1e-6
        assert np.max(np.abs(e_grads[0] - plain_grad)) < 1e-6

    @pytest.mark.parametrize("k", [2, 5])  # fedjets' top-2 step, fedmix's all-M step
    def test_mixture_runs_one_forward_per_network(self, k, monkeypatch):
        traces = []
        forward_trace = nn._forward_trace
        monkeypatch.setattr(nn, "_forward_trace", lambda *a: traces.append(a) or forward_trace(*a))
        r = rng_stream(8, "one-forward")
        expert_spec = nn.NetSpec.mlp([4, 5, 3])
        gate_sp = gating.gate_spec(3, 5)
        experts = [nn.init_params(expert_spec, r) for _ in range(k)]
        gate = nn.init_params(gate_sp, r)
        x, emb, y = r.normal(size=(6, 4)), r.normal(size=(6, 3)), r.integers(0, 3, size=6)
        mixture_grads(experts, gate, tuple(range(k)), x, emb, y)
        assert len(traces) == k + 1
        # the gate first, then each expert, each forwarded on views of its own row
        assert all(views_of(a[1], p.values) for a, p in zip(traces, [gate, *experts], strict=True))

    def test_top_layer_overflow_names_top_layer(self):
        # finite outputs whose logit gap overflows the gate's gradient: every
        # gate layer turns non-finite and the top one, reached first, is named
        expert_spec = nn.NetSpec.mlp([2, 3])
        values = np.zeros(expert_spec.param_count())
        values[:2] = [1.5e308, -1.5e308]  # logits (1.5e308, -1.5e308, 0) for x = (1, 0)
        expert = nn.ParamVector(values, expert_spec)
        gate_sp = gating.gate_spec(2, 2)
        gate = nn.init_params(gate_sp, rng_stream(9, "overflow-gate"))
        x, emb, y = np.array([[1.0, 0.0]]), np.array([[0.5, -0.3]]), np.array([1])
        scan = nn.Scan()
        with np.errstate(over="ignore", invalid="ignore"):
            mixture_grads([expert, expert], gate, (0, 1), x, emb, y, scan=scan)
        assert scan.failures[0].layer == gate_sp.num_layers - 1

    def test_joint_gradient_matches_central_differences(self):
        # 2 experts + gate, < 300 parameters total, drawn kink-safe
        expert_spec = nn.NetSpec.mlp([4, 5, 3])
        gate_sp = gating.gate_spec(3, 2, hidden=4)
        for attempt in range(200):
            r = rng_stream(31, "joint-fd", attempt)
            e1 = nn.init_params(expert_spec, r)
            e2 = nn.init_params(expert_spec, r)
            gate = nn.init_params(gate_sp, r)
            x = r.normal(size=(4, 4))
            emb = r.normal(size=(4, 3))
            y = r.integers(0, 3, size=4)
            safe = min(
                min_hidden_preact(expert_spec, e1, x),
                min_hidden_preact(expert_spec, e2, x),
                min_hidden_preact(gate_sp, gate, emb),
            )
            if safe >= 0.05:
                break
        total = 2 * expert_spec.param_count() + gate_sp.param_count()
        assert total < 300

        probs, e_grads, g_grad = mixture_grads([e1, e2], gate, (0, 1), x, emb, y)
        joint = np.concatenate([e1.values, e2.values, gate.values])
        n_e = expert_spec.param_count()

        def joint_loss(v):
            p1 = nn.ParamVector(v[:n_e], expert_spec)
            p2 = nn.ParamVector(v[n_e : 2 * n_e], expert_spec)
            g = nn.ParamVector(v[2 * n_e :], gate_sp)
            w = gating.gate_scores(g, emb)[:, [0, 1]]
            combined = mixture_forward(expert_spec, [p1, p2], w, x)
            return cross_entropy(nn.softmax(combined), y)

        fd = central_diff(joint_loss, joint)
        analytic = np.concatenate([e_grads[0], e_grads[1], g_grad])
        assert rel_error(analytic, fd) < 1e-4
        assert abs(cross_entropy(probs, y) - joint_loss(joint)) < 1e-12

    def test_renormalized_gradient_matches_central_differences(self):
        expert_spec = nn.NetSpec.mlp([4, 5, 3])
        gate_sp = gating.gate_spec(3, 3, hidden=4)
        for attempt in range(200):
            r = rng_stream(77, "renorm-fd", attempt)
            e1 = nn.init_params(expert_spec, r)
            e2 = nn.init_params(expert_spec, r)
            gate = nn.init_params(gate_sp, r)
            x = r.normal(size=(4, 4))
            emb = r.normal(size=(4, 3))
            y = r.integers(0, 3, size=4)
            safe = min(
                min_hidden_preact(expert_spec, e1, x),
                min_hidden_preact(expert_spec, e2, x),
                min_hidden_preact(gate_sp, gate, emb),
            )
            if safe >= 0.05:
                break
        _, e_grads, g_grad = mixture_grads([e1, e2], gate, (0, 2), x, emb, y, renormalize=True)
        joint = np.concatenate([e1.values, e2.values, gate.values])
        n_e = expert_spec.param_count()

        def joint_loss(v):
            p1 = nn.ParamVector(v[:n_e], expert_spec)
            p2 = nn.ParamVector(v[n_e : 2 * n_e], expert_spec)
            g = nn.ParamVector(v[2 * n_e :], gate_sp)
            w = gating.gate_scores(g, emb)[:, [0, 2]]
            w = w / w.sum(axis=1, keepdims=True)
            combined = mixture_forward(expert_spec, [p1, p2], w, x)
            return cross_entropy(nn.softmax(combined), y)

        fd = central_diff(joint_loss, joint)
        analytic = np.concatenate([e_grads[0], e_grads[1], g_grad])
        assert rel_error(analytic, fd) < 1e-4


class TestLocalSteps:
    @staticmethod
    def _raw(state, *gates):
        """Bytes of every expert, the gate and any extra gates, so -0.0 and 0.0 differ."""
        nets = [*state.expert_params, state.gate_params, *gates]
        return [p.values.tobytes() for p in nets]

    @pytest.mark.parametrize("kind", ["anchor", "normal", "fedavg", "fedprox", "fedmix"])
    def test_client_update_leaves_its_inputs_unchanged(self, ctx, kind):
        # working copies are stepped in place; what the client was sent is not
        state = runtime.init_server_state(ctx)
        local_gate = nn.init_params(ctx.gate_spec, rng_stream(3, "local-gate"))
        before = self._raw(state, local_gate)
        anchor, shard = ctx.anchor_shards[0], ctx.normal_shards[0]
        if kind == "anchor":
            pkt = fedjets_update(ctx, state, 0, anchor)
        elif kind == "normal":
            pkt = fedjets_update(ctx, state, 0, shard)
        elif kind == "fedmix":
            pkt = baselines.fedmix_updates(ctx, state, {shard.client_id: local_gate.values}, 0, [shard.client_id])[0]
        elif kind == "fedavg":
            pkt = one_update(ctx, state, 0, shard, baselines.sgd_work())
        else:
            pkt = one_update(ctx, state, 0, shard, baselines.sgd_work(mu=0.5))
        assert self._raw(state, local_gate) == before
        i, trained = next(iter(pkt.experts.items()))
        assert not np.array_equal(trained, state.expert_params[i].values)

    def test_overflow_on_last_step_raises_naming_round_and_client(self, ctx, monkeypatch):
        # finite until the last step, whose gradient overflows the parameters;
        # the one scan, after the loop, catches it
        shard = ctx.normal_shards[0]
        iters = runtime.local_iteration_count(ctx.cfg, len(shard))
        assert iters > 1
        steps = []
        sgdm_step = nn.sgdm_step

        def step(params, velocity, grad, lr, momentum):
            steps.append(lr)
            if len(steps) == iters:
                grad, lr = np.full_like(grad, 1e300), 1e10
            sgdm_step(params, velocity, grad, lr, momentum)

        monkeypatch.setattr(nn, "sgdm_step", step)
        state = runtime.init_server_state(ctx)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                try:
                    runtime.client_updates(ctx, state, 7, [shard.client_id], baselines.sgd_work())
                finally:
                    assert len(steps) == iters
            steps.clear()
            with pytest.raises(NumericError) as err:
                runtime.train_round(ctx, state, 7, [shard.client_id], baselines.sgd_work())
        assert err.value.context == f"round 7 | client {shard.client_id}"


def packet_bytes(packets):
    """Every field of every packet, with each network as bytes (so -0.0 and 0.0 differ)."""
    return [
        (
            p.client_id,
            p.num_samples,
            None if p.gate is None else p.gate.tobytes(),
            sorted((i, e.tobytes()) for i, e in p.experts.items()),
        )
        for p in packets
    ]


def state_bytes(state):
    gate = [] if state.gate_params is None else [state.gate_params]
    return [p.values.tobytes() for p in [*state.expert_params, *gate]], state.round


UNEQUAL = dict(data={"partition_strategy": "dirichlet", "alpha": 1.0}, training={"local_iterations": None})


class Rebound:
    """Layer views unpacked afresh from `values` at every access: a kernel
    handed these re-unpacks its networks before every step."""

    def __init__(self, unpack, spec, values):
        self.unpack, self.spec, self.values = unpack, spec, values

    def __iter__(self):
        return iter(self.unpack(self.spec, self.values))

    def __getitem__(self, l):
        return self.unpack(self.spec, self.values)[l]


class TestBoundViews:
    """A stack binds each network's layer views once and steps its flat rows
    in place; that is bit for bit stepping on views made afresh every step."""

    @staticmethod
    def _rounds(ctx, method, rounds=3):
        state, step = baselines.make_stepper(ctx, method)
        for t in range(rounds):
            state = step(state, t)[0]
        return state_bytes(state)

    @pytest.mark.parametrize("method", ["fedjets", "fedprox", "fedmix"])
    def test_views_bound_once_step_as_views_rebound_every_step(self, ctx, monkeypatch, method):
        once = self._rounds(ctx, method)
        kinds, fresh = set(), []
        step_group, unpack = runtime._step_group, nn.unpack

        def spy(ctx, state, served, t, group, failures):
            kinds.add(group[0][1].kind)
            return step_group(ctx, state, served, t, group, failures)

        def unpack_afresh(spec, values):
            fresh.append(spec)
            return unpack(spec, values)

        monkeypatch.setattr(runtime, "_step_group", spy)
        monkeypatch.setattr(nn, "unpack", lambda spec, values: Rebound(unpack_afresh, spec, values))
        assert self._rounds(ctx, method) == once
        assert kinds == {"fedjets": {"anchor", "mixture"}, "fedprox": {"sgd"}, "fedmix": {"mixture"}}[method]
        steps = runtime.local_iteration_count(ctx.cfg, len(ctx.normal_shards[0]))
        assert len(fresh) >= 3 * steps  # each round's steps unpacked afresh


class TestClientGroups:
    """Stepping clients as one stack gives each client the bits it gets alone."""

    @staticmethod
    def _round(ctx, method):
        """(state, client ids, work) of a round of `method` over every training client."""
        state, _ = baselines.make_stepper(ctx, method)
        ids = [s.client_id for s in ctx.anchor_shards + ctx.normal_shards]
        if method == "fedjets":
            return state, ids, runtime.fedjets_work(ctx, state)
        if method == "fedmix":
            return state, ids, None
        return state, ids, baselines.sgd_work(ctx.cfg.federation.fedprox_mu if method == "fedprox" else 0.0)

    @staticmethod
    def _updates(ctx, state, t, ids, work, local_gates):
        if work is None:  # fedmix: trained gates stay in `local_gates`
            return baselines.fedmix_updates(ctx, state, local_gates, t, ids)
        return runtime.client_updates(ctx, state, t, ids, work)

    @pytest.mark.parametrize("kind", ["anchor", "normal", "normal-renormalized", "fedavg", "fedprox", "fedmix"])
    def test_group_equals_stacks_of_one(self, ctx, kind):
        if kind == "normal-renormalized":
            training = dataclasses.replace(ctx.cfg.training, renormalize_gate_weights=True)
            ctx = dataclasses.replace(ctx, cfg=dataclasses.replace(ctx.cfg, training=training))
        method = "fedjets" if kind.startswith(("anchor", "normal")) else kind
        state, ids, work = self._round(ctx, method)
        ids = [cid for cid in ids if (ctx.shards_by_id[cid].kind == "anchor") == (kind == "anchor")]
        assert len(ids) >= 3
        kinds = runtime.Work("mixture", tuple(range(state.num_experts)), None) if work is None else None
        groups = runtime.group_clients(ctx, ids, work or (lambda shard: kinds))
        assert [[s.client_id for s, _ in g] for g in groups] == [ids]  # one stack
        together, alone = {}, {}
        stacked = self._updates(ctx, state, 3, ids, work, together)
        single = [self._updates(ctx, state, 3, [cid], work, alone)[0] for cid in ids]
        assert packet_bytes(stacked) == packet_bytes(single)
        assert {c: g.tobytes() for c, g in together.items()} == {c: g.tobytes() for c, g in alone.items()}

    def test_group_cut_into_stacks_gives_the_same_packets(self, ctx, monkeypatch):
        state, ids, work = self._round(ctx, "fedjets")
        whole = runtime.client_updates(ctx, state, 2, ids, work)
        # 96 network rows: three anchors (expert and gate, 16 rows each) or two normal clients (K=2 and the gate)
        monkeypatch.setattr(runtime, "STACK_ROWS", 96)
        assert [len(stack) for stack in runtime.group_clients(ctx, ids, work)] == [3, 2, 2, 1]
        assert packet_bytes(runtime.client_updates(ctx, state, 2, ids, work)) == packet_bytes(whole)

    def test_default_cap_steps_a_synth10_fedmix_draw_as_one_stack(self):
        # K = M = 5 and the gate: ten normal clients of 36 rows a step are
        # 2,160 network rows, five anchors with 400-row shards (64 rows a step) 1,920
        c = experiment.build_context(benchmarks.synth10_config(federation={"method": "fedmix"}))
        state, _ = baselines.make_stepper(c, "fedmix")
        normals = [s.client_id for s in c.normal_shards[:10]]
        anchors = [s.client_id for s in c.anchor_shards]
        ids = normals + anchors
        assert [len(c.shards_by_id[i]) for i in ids] == [36] * 10 + [400] * 5
        kinds = runtime.Work("mixture", tuple(range(5)), None)
        groups = runtime.group_clients(c, ids, lambda shard: kinds)
        assert [[s.client_id for s, _ in g] for g in groups] == [normals, anchors]
        together, alone = {}, {}
        stacked = baselines.fedmix_updates(c, state, together, 1, ids)
        single = [baselines.fedmix_updates(c, state, alone, 1, [cid])[0] for cid in ids]
        assert packet_bytes(stacked) == packet_bytes(single)
        assert {i: g.tobytes() for i, g in together.items()} == {i: g.tobytes() for i, g in alone.items()}

    @pytest.mark.parametrize("method", ["fedjets", "fedavg", "fedprox", "fedmix"])
    def test_several_groups_aggregate_unchanged(self, method):
        # unequal shards: rows per step and step counts differ between clients
        c = experiment.build_context(mini_cfg(**UNEQUAL))
        state, ids, work = self._round(c, method)
        kinds = runtime.Work("mixture", tuple(range(state.num_experts)), None) if work is None else None
        groups = runtime.group_clients(c, ids, work or (lambda shard: kinds))
        assert len(groups) > 2 and max(len(g) for g in groups) >= 2
        together, alone = {}, {}
        stacked = self._updates(c, state, 1, ids, work, together)
        single = [self._updates(c, state, 1, [cid], work, alone)[0] for cid in ids]
        assert [p.client_id for p in stacked] == ids  # packets in client order
        assert packet_bytes(stacked) == packet_bytes(single)
        uniform = c.cfg.federation.uniform_weighting
        want = state_bytes(runtime.aggregate(state, single, uniform))
        if work is None:  # fedmix aggregates its gate-free packets itself
            got = runtime.aggregate(state, stacked, uniform)
        else:
            got = runtime.train_round(c, state, 1, ids, work)
        assert state_bytes(got) == want

    def test_only_aggregate_builds_param_vectors(self, ctx, monkeypatch):
        # a round moves rows: client_updates wraps no stepped row, and
        # train_round builds one ParamVector per network it averaged
        state, ids, work = self._round(ctx, "fedjets")
        built = []
        post_init = nn.ParamVector.__post_init__
        monkeypatch.setattr(nn.ParamVector, "__post_init__", lambda p: built.append(p) or post_init(p))
        runtime.client_updates(ctx, state, 0, ids, work)
        assert built == []
        new = runtime.train_round(ctx, state, 0, ids, work)
        old = [*state.expert_params, state.gate_params]
        averaged = [p for p, q in zip([*new.expert_params, new.gate_params], old) if p is not q]
        assert len(averaged) == len(old)  # every training client stepped: each expert and the gate
        assert sorted(map(id, built)) == sorted(map(id, averaged))

    def test_first_failing_client_in_order_is_named(self, ctx):
        # client 5's rows, scaled up, blow up at an earlier step than client
        # 3's; stepped as one stack, the error is still client 3's, as a
        # sequential loop over [3, 5] would raise it
        earlier, later = 3, 5
        x = ctx.train_ds.inputs.copy()
        x[ctx.shards_by_id[later].indices] *= 1e100
        ds = data.LabeledDataset(x, ctx.train_ds.labels, ctx.train_ds.num_classes)

        def failure(ids, iters):
            """The NumericError `ids` raise stepping `iters` steps at lr 1e20, or None."""
            c = dataclasses.replace(ctx, train_ds=ds, cfg=mini_cfg(training={"lr": 1e20, "local_iterations": iters}))
            try:
                with np.errstate(all="ignore"):
                    runtime.client_updates(c, runtime.init_server_state(c), 0, ids, baselines.sgd_work())
            except NumericError as exc:
                return exc
            return None

        def first_failing_step(cid):
            return next((iters, err) for iters in range(1, 11) if (err := failure([cid], iters)))

        step_earlier, alone = first_failing_step(earlier)
        step_later, _ = first_failing_step(later)
        assert step_later < step_earlier
        # the first failure that client meets, not the scan of its parameters after the steps
        assert alone.message == "non-finite gradient" and alone.layer is not None
        err = failure([earlier, later], step_earlier)
        assert (str(err), err.message, err.context, err.layer) == (
            str(alone), alone.message, alone.context, alone.layer
        )
        assert err.context == f"round 0 | client {earlier}"
        assert err.__cause__.layer == err.layer


class TestServerState:
    def test_experts_of_two_specs_rejected(self, ctx):
        # the same length, another activation: the state checks its one spec once, when built
        state = runtime.init_server_state(ctx)
        spec = ctx.expert_spec
        other = nn.NetSpec(spec.layer_dims, ("identity",) * len(spec.activations), spec.head)
        assert other.param_count() == spec.param_count()
        experts = [state.expert_params[0], nn.ParamVector(state.expert_params[1].values, other)]
        with pytest.raises(ConfigError, match="expert 1"):
            runtime.ServerState(experts, state.gate_params)


class TestAggregate:
    def _state(self, ctx):
        return runtime.init_server_state(ctx)

    def test_single_packet_adopted_exactly(self, ctx):
        state = self._state(ctx)
        new_gate = state.gate_params.values + 1.0
        new_e = state.expert_params[1].values * 2.0
        pkt = runtime.UpdatePacket(4, new_gate, {1: new_e}, 17)
        out = runtime.aggregate(state, [pkt])
        assert np.array_equal(out.gate_params.values, new_gate)
        assert np.array_equal(out.expert_params[1].values, new_e)
        assert np.array_equal(out.expert_params[0].values, state.expert_params[0].values)
        assert out.round == state.round + 1

    def test_equal_weights_midpoint(self, ctx):
        state = self._state(ctx)
        a = np.full_like(state.expert_params[0].values, 2.0)
        b = np.full_like(state.expert_params[0].values, 4.0)
        pkts = [
            runtime.UpdatePacket(3, None, {0: a}, 5),
            runtime.UpdatePacket(4, None, {0: b}, 5),
        ]
        out = runtime.aggregate(state, pkts)
        assert np.allclose(out.expert_params[0].values, 3.0, atol=1e-12)

    def test_one_three_weighting(self, ctx):
        state = self._state(ctx)
        w1 = np.ones_like(state.expert_params[0].values)
        w2 = np.full_like(state.expert_params[0].values, 5.0)
        pkts = [
            runtime.UpdatePacket(3, None, {0: w1}, 1),
            runtime.UpdatePacket(4, None, {0: w2}, 3),
        ]
        out = runtime.aggregate(state, pkts)
        assert np.allclose(out.expert_params[0].values, (1.0 + 3 * 5.0) / 4, atol=1e-12)

    def test_uniform_flag_ignores_sample_counts(self, ctx):
        state = self._state(ctx)
        w1 = np.zeros_like(state.expert_params[0].values)
        w2 = np.full_like(state.expert_params[0].values, 2.0)
        pkts = [
            runtime.UpdatePacket(3, None, {0: w1}, 1),
            runtime.UpdatePacket(4, None, {0: w2}, 99),
        ]
        out = runtime.aggregate(state, pkts, uniform=True)
        assert np.allclose(out.expert_params[0].values, 1.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_packet_order_invariance(self, ctx, data):
        # any arrival order, sample counts and expert subsets fold to the same
        # bits; the input state is never written, and what no packet updated
        # is carried over as the same object
        state = self._state(ctx)
        before = [p.values.tobytes() for p in [*state.expert_params, state.gate_params]]
        ids = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=6, unique=True))
        rng = rng_stream(data.draw(st.integers(0, 2**31 - 1)), "agg")
        pkts = []
        for cid in ids:
            subset = data.draw(st.sets(st.integers(0, state.num_experts - 1)))
            gate = rng.normal(size=state.gate_params.values.size)
            experts = {i: rng.normal(size=state.expert_params[i].values.size) for i in subset}
            pkts.append(runtime.UpdatePacket(cid, gate, experts, data.draw(st.integers(1, 500))))
        out1 = runtime.aggregate(state, pkts)
        out2 = runtime.aggregate(state, data.draw(st.permutations(pkts)))
        assert [p.values.tobytes() for p in [*out1.expert_params, out1.gate_params]] == [
            p.values.tobytes() for p in [*out2.expert_params, out2.gate_params]
        ]
        assert [p.values.tobytes() for p in [*state.expert_params, state.gate_params]] == before
        updated = set().union(*(p.experts for p in pkts))
        for i in set(range(state.num_experts)) - updated:
            assert out1.expert_params[i] is state.expert_params[i]

    def test_spec_mismatch_is_protocol_error(self, ctx):
        # a row that does not fit the server network's spec
        state = self._state(ctx)
        bad = np.zeros(state.expert_params[0].values.size + 1)
        pkt = runtime.UpdatePacket(3, None, {0: bad}, 5)
        with pytest.raises(ProtocolError, match="client 3: expert 0 row"):
            runtime.aggregate(state, [pkt])


class TestRunTraining:
    def test_single_round_single_anchor_composition(self):
        cfg = mini_cfg(federation={"rounds": 1, "anchors_per_round": 1, "normals_per_round": 0})
        c = experiment.build_context(cfg)
        state0 = runtime.init_server_state(c)
        final, history, _ = experiment.run_training(c)
        plan = runtime.plan_round(
            0, cfg, rng_stream(cfg.seed, "plan", 0), [0, 1, 2], [s.client_id for s in c.normal_shards]
        )
        (q,) = plan.anchor_ids
        pkt = fedjets_update(c, state0, 0, c.anchor_shards[q])
        assert np.array_equal(final.expert_params[q].values, pkt.experts[q])
        assert np.array_equal(final.gate_params.values, pkt.gate)

    def test_seed_repeat_bit_identical_metrics(self):
        cfg = mini_cfg()
        lines1 = [r.to_json_line() for r in experiment.run_training(experiment.build_context(cfg))[1]]
        lines2 = [r.to_json_line() for r in experiment.run_training(experiment.build_context(cfg))[1]]
        assert lines1 == lines2

    def test_conservation_single_client_matches_centralized(self):
        # K = M = 1, one normal client per round: federated training must
        # replay the centralized trajectory over the same batch stream
        # (velocity restarts at round boundaries, as every client does)
        for momentum in [0.0, 0.9]:
            cfg = mini_cfg(
                data={"num_clients": 2, "num_test_clients": 1, "labels_per_anchor": 1},
                federation={
                    "rounds": 3,
                    "num_experts": 1,
                    "top_k": 1,
                    "anchors_per_round": 0,
                    "normals_per_round": 1,
                },
                training={"momentum": momentum, "local_iterations": 4},
            )
            c = experiment.build_context(cfg)
            shard = c.normal_shards[0]
            final, _, _ = experiment.run_training(c)

            params = runtime.init_server_state(c).expert_params[0]
            for t in range(cfg.federation.rounds):
                rng = rng_stream(cfg.seed, "client", t, shard.client_id)
                batches = runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, 4)
                v = 0.0  # SGDM written out: v = m*v + g; p = p - lr*v
                for rows in batches:
                    x, y = c.train_ds.inputs[shard.indices[rows]], c.train_ds.labels[shard.indices[rows]]
                    v = momentum * v + ce_grad(c.expert_spec, params, x, y, "ce_on_logits")
                    params = nn.ParamVector(params.values - cfg.training.lr * v, params.spec)
            assert np.array_equal(final.expert_params[0].values, params.values)

    @pytest.mark.parametrize("method", ["fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix"])
    def test_numeric_blowup_aborts_with_round_context(self, method):
        # target 0 stops pretraining at the init so the blowup happens in
        # the federated rounds, not during common-expert pretraining
        cfg = mini_cfg(
            training={"lr": 1e18, "local_iterations": 8},
            model={"pretrain_target_accuracy": 0.0},
            federation={"method": method},
        )
        c = experiment.build_context(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as err:
                experiment.run_training(c)
        training_ids = {s.client_id for s in c.anchor_shards + c.normal_shards}
        parts = err.value.context.split(" | ")
        round_part, client_part = parts[-2:]
        if method == "avg_ensemble":  # names the member whose client blew up
            member_part = parts[-3]
            assert member_part.startswith("ensemble member ")
            assert 0 <= int(member_part[16:]) < cfg.federation.ensemble_size
        assert round_part.startswith("round ") and 0 <= int(round_part[6:]) < cfg.federation.rounds
        assert client_part.startswith("client ") and int(client_part[7:]) in training_ids
        assert str(err.value).endswith(err.value.context)
        assert err.value.layer == err.value.__cause__.layer  # the re-raise keeps the layer


class TestCommCost:
    def sizes(self, expert=1000, gate=0, common=500):
        return runtime.ModelSizes(expert, gate, common)

    def test_normal_client_payload_ratio_exact(self):
        # M=5, K=2, gate negligible: one normal client's expert payload
        cfg = benchmarks.synth10_config(federation={"anchors_per_round": 0, "normals_per_round": 1})
        plan = runtime.RoundPlan(0, [], [40])
        costs = runtime.comm_cost(plan, cfg, self.sizes(gate=0))
        assert costs["fedjets"][0] / costs["fedmix"][0] == 0.4

    def test_k_equals_m_matches_fedmix(self):
        cfg = mini_cfg(federation={"num_experts": 3, "top_k": 3, "anchors_per_round": 0, "normals_per_round": 2})
        plan = runtime.RoundPlan(0, [], [4, 5])
        costs = runtime.comm_cost(plan, cfg, self.sizes(gate=0))
        assert costs["fedjets"] == costs["fedmix"]

    def test_fedjets_never_exceeds_fedmix_when_k_below_m(self):
        for k, m, na, nc in [(1, 4, 2, 3), (2, 5, 0, 4), (3, 6, 1, 1)]:
            plan = runtime.RoundPlan(0, list(range(na)), list(range(10, 10 + nc)))
            base = benchmarks.synth10_config()
            base.federation.num_experts = m
            base.federation.top_k = k
            costs = runtime.comm_cost(plan, base, self.sizes(gate=37))
            assert costs["fedjets"][0] <= costs["fedmix"][0]

    @settings(max_examples=60, deadline=None)
    @given(
        n_a=st.integers(0, 6),
        n_c=st.integers(0, 6),
        m=st.integers(1, 8),
        k_frac=st.floats(0.0, 1.0),
        ensemble=st.integers(2, 5),
        expert=st.integers(1, 10**6),
        gate=st.integers(0, 10**5),
    )
    def test_comm_cost_equals_readme_closed_forms(self, n_a, n_c, m, k_frac, ensemble, expert, gate):
        k = 1 + int(k_frac * (m - 1))
        cfg = benchmarks.synth10_config()
        cfg.federation.num_experts, cfg.federation.top_k, cfg.federation.ensemble_size = m, k, ensemble
        plan = runtime.RoundPlan(0, list(range(n_a)), list(range(100, 100 + n_c)))
        n = n_a + n_c
        fedjets = n_a * (gate + expert) + n_c * (gate + k * expert)
        want = {
            "fedjets": fedjets,
            "fedmix": n * m * expert,
            "fedavg": n * expert,
            "fedprox": n * expert,
            "avg_ensemble": n * ensemble * expert,
        }
        costs = runtime.comm_cost(plan, cfg, self.sizes(expert=expert, gate=gate))
        assert costs == {name: (float(f), float(f)) for name, f in want.items()}

    def test_three_round_ledger_matches_hand_sum(self):
        cfg = mini_cfg(federation={"rounds": 3})
        c = experiment.build_context(cfg)
        _, history, ledger = experiment.run_training(c)
        sizes = c.sizes
        na, nc = 2, 2
        per_round_fedjets = na * (sizes.gate + sizes.expert) + nc * (sizes.gate + 2 * sizes.expert)
        setup = cfg.data.num_clients * sizes.common
        assert ledger.cumulative("fedjets") == (setup + 3 * per_round_fedjets, 3 * per_round_fedjets)
        per_round_fedmix = (na + nc) * 3 * sizes.expert
        assert ledger.cumulative("fedmix") == (setup + 3 * per_round_fedmix, 3 * per_round_fedmix)
        per_round_fedavg = (na + nc) * sizes.expert
        assert ledger.cumulative("fedavg") == (setup + 3 * per_round_fedavg, 3 * per_round_fedavg)

    def test_ledger_monotone(self):
        ledger = runtime.CommLedger()
        ledger.add(0, "fedjets", 10.0, 5.0)
        ledger.add(1, "fedjets", 0.0, 0.0)
        ledger.add(2, "fedjets", 3.0, 1.0)
        downs = [r["floats_down_cum"] for r in ledger.rows]
        assert downs == sorted(downs)
        with pytest.raises(ConfigError):
            ledger.add(3, "fedjets", -1.0, 0.0)


class TestLocalIterations:
    def test_epoch_mapping(self):
        cfg = mini_cfg(training={"local_iterations": None, "local_epochs": 1, "batch_size": 16})
        assert runtime.local_iteration_count(cfg, 40) == 3  # ceil(40/16)
        cfg2 = mini_cfg(training={"local_iterations": None, "local_epochs": 2, "batch_size": 16})
        assert runtime.local_iteration_count(cfg2, 40) == 6

    def test_explicit_override(self):
        cfg = mini_cfg(training={"local_iterations": 7})
        assert runtime.local_iteration_count(cfg, 1000) == 7

    @pytest.mark.parametrize("n, batch, count", [(10, 3, 7), (10, 10, 4), (10, 16, 4), (10, 3, 0)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_minibatches_match_the_two_branch_draw(self, n, batch, count, seed):
        # batch below, at and above n, and no batch: the same draws in the same order, and the generator
        # left where the two-branch draw leaves it (untouched when there is no batch); then a sweep of
        # 200 random cases of the same kinds per parameter set
        sweep = rng_stream(seed, "mb-sweep")
        cases = [(n, batch, count, seed)]
        for _ in range(200):
            size = int(sweep.integers(1, 40))
            below, above = int(sweep.integers(1, size + 1)), size + int(sweep.integers(1, 9))
            batch_size = (below, size, above)[sweep.integers(3)]
            cases.append((size, batch_size, int(sweep.integers(0, 12)), int(sweep.integers(2**31))))
        for n, batch, count, seed in cases:
            rng, ref = rng_stream(seed, "mb"), rng_stream(seed, "mb")
            got = runtime.minibatch_indices(n, batch, rng, count)
            want = minibatch_indices_two_branch(n, batch, ref, count) if count else []
            assert got.shape == (count, min(batch, n)), (n, batch, count)
            assert [b.tolist() for b in got] == [b.tolist() for b in want], (n, batch, count, seed)
            assert rng.bit_generator.state == ref.bit_generator.state, (n, batch, count, seed)

    def test_minibatches_cover_epoch_without_repeats(self):
        rng = rng_stream(3, "mb")
        batches = runtime.minibatch_indices(10, 3, rng, 3)
        seen = np.concatenate(batches)
        assert len(np.unique(seen)) == len(seen)  # within one epoch pass

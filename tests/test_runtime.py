"""Round orchestration: planning, client updates, aggregation, the full
training loop, and communication accounting."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import central_diff, min_hidden_preact, rel_error
from fedjets import benchmarks, experiment, gating, nn, runtime
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
    eval={"interval": 2, "last_k": 5},
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
        cfg = ctx.cfg
        gate = gating.GateNet(ctx.gate_spec, runtime.init_server_state(ctx).gate_params)
        ids = [s.client_id for s in ctx.normal_shards]
        for t in range(3):
            a = runtime.plan_round(t, cfg, rng_stream(cfg.seed, "plan", t), [0, 1, 2], ids, gate, ctx.cache)
            b = runtime.plan_round(t, cfg, rng_stream(cfg.seed, "plan", t), [0, 1, 2], ids, gate, ctx.cache)
            assert a.anchor_ids == b.anchor_ids and a.normal_ids == b.normal_ids
            assert all(a.selections[c].indices == b.selections[c].indices for c in a.normal_ids)

    def test_selection_size_is_top_k(self, ctx):
        state = runtime.init_server_state(ctx)
        gate = gating.GateNet(ctx.gate_spec, state.gate_params)
        ids = [s.client_id for s in ctx.normal_shards]
        plan = runtime.plan_round(0, ctx.cfg, rng_stream(9, "p"), [0, 1, 2], ids, gate, ctx.cache)
        for cid in plan.normal_ids:
            assert len(plan.selections[cid].indices) == ctx.cfg.top_k

    def test_duplicate_active_client_rejected(self):
        with pytest.raises(ConfigError):
            runtime.RoundPlan(0, [1], [1, 2])


class TestAnchorUpdate:
    def test_zero_iterations_returns_snapshot(self, ctx):
        cfg = mini_cfg(training={"local_iterations": 0})
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[1]
        pkt = runtime.anchor_client_update(state, shard, ctx.train_ds, ctx.cache[shard.client_id], cfg, 0)
        assert np.array_equal(pkt.experts[1].values, state.expert_params[1].values)
        assert np.array_equal(pkt.gate.values, state.gate_params.values)
        assert pkt.num_samples == len(shard)

    def test_packet_contains_only_assigned_expert(self, ctx):
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[2]
        pkt = runtime.anchor_client_update(state, shard, ctx.train_ds, ctx.cache[shard.client_id], ctx.cfg, 0)
        assert set(pkt.experts) == {2}

    def test_gate_loss_decreases_on_fixed_shard(self, ctx):
        cfg = mini_cfg(training={"gate_lr": 0.001, "local_iterations": 4})
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[0]
        emb = ctx.cache[shard.client_id]
        gate_before = gating.GateNet(ctx.gate_spec, state.gate_params)
        loss_before, _ = gating.gate_independent_loss_grad(gate_before, emb, 0)
        pkt = runtime.anchor_client_update(state, shard, ctx.train_ds, emb, cfg, 0)
        gate_after = gating.GateNet(ctx.gate_spec, pkt.gate)
        loss_after, _ = gating.gate_independent_loss_grad(gate_after, emb, 0)
        assert loss_after <= loss_before

    def test_expert_update_matches_replayed_trajectory(self, ctx):
        cfg = ctx.cfg
        state = runtime.init_server_state(ctx)
        shard = ctx.anchor_shards[0]
        t = 3
        pkt = runtime.anchor_client_update(state, shard, ctx.train_ds, ctx.cache[shard.client_id], cfg, t)
        # independent replay with the same derived stream
        rng = rng_stream(cfg.seed, "client", t, shard.client_id)
        iters = runtime.local_iteration_count(cfg, len(shard))
        batches = runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, iters)
        params = state.expert_params[0].copy()
        opt = nn.OptimizerState.fresh(ctx.expert_spec, cfg.training.lr, cfg.training.momentum)
        for rows in batches:
            b = nn.Batch(ctx.train_ds.inputs[shard.indices[rows]], ctx.train_ds.labels[shard.indices[rows]])
            _, grad = nn.loss_and_grad(ctx.expert_spec, params, b, "ce_on_logits")
            params, opt = nn.sgdm_step(params, grad, opt)
        assert np.array_equal(pkt.experts[0].values, params.values)


class TestNormalUpdate:
    def test_packet_contains_exactly_selected_experts(self, ctx):
        state = runtime.init_server_state(ctx)
        shard = ctx.normal_shards[0]
        gate = gating.GateNet(ctx.gate_spec, state.gate_params)
        sel = gating.select_topk(gate, ctx.cache[shard.client_id], 2, shard.client_id)
        pkt = runtime.normal_client_update(
            state, shard, ctx.train_ds, ctx.cache[shard.client_id], sel, ctx.cfg, 0
        )
        assert set(pkt.experts) == set(sel.indices)
        assert pkt.kind == "normal"

    def test_saturated_gate_reduces_to_single_expert_training(self, ctx):
        # output bias pins expert 1: its mixture weight is 1 - O(1e-20)
        cfg = mini_cfg(federation={"top_k": 1})
        values = np.zeros(ctx.gate_spec.param_count())
        values[-3:] = [0.0, 60.0, 0.0]
        state = runtime.init_server_state(ctx)
        state.gate_params = nn.ParamVector(values, state.gate_params.spec_hash)
        shard = ctx.normal_shards[1]
        emb = ctx.cache[shard.client_id]
        gate = gating.GateNet(ctx.gate_spec, state.gate_params)
        x = ctx.train_ds.inputs[shard.indices]
        y = ctx.train_ds.labels[shard.indices]
        loss, e_grads, g_grad = runtime.mixture_loss_and_grads(
            ctx.expert_spec, [state.expert_params[1]], gate, (1,), x, emb, y
        )
        plain_loss, plain_grad = nn.loss_and_grad(
            ctx.expert_spec, state.expert_params[1], nn.Batch(x, y), "ce_on_logits"
        )
        assert abs(loss - plain_loss) < 1e-6
        assert np.max(np.abs(e_grads[0].values - plain_grad.values)) < 1e-6

    def test_joint_gradient_matches_central_differences(self):
        # 2 experts + gate, < 300 parameters total, drawn kink-safe
        expert_spec = nn.NetSpec.mlp([4, 5, 3])
        gate_sp = gating.gate_spec(3, 2, hidden=4)
        for attempt in range(200):
            r = rng_stream(31, "joint-fd", attempt)
            e1 = nn.init_params(expert_spec, r)
            e2 = nn.init_params(expert_spec, r)
            gate = gating.GateNet(gate_sp, nn.init_params(gate_sp, r))
            x = r.normal(size=(4, 4))
            emb = r.normal(size=(4, 3))
            y = r.integers(0, 3, size=4)
            safe = min(
                min_hidden_preact(expert_spec, e1, x),
                min_hidden_preact(expert_spec, e2, x),
                min_hidden_preact(gate_sp, gate.params, emb),
            )
            if safe >= 0.05:
                break
        total = 2 * expert_spec.param_count() + gate_sp.param_count()
        assert total < 300

        loss, e_grads, g_grad = runtime.mixture_loss_and_grads(
            expert_spec, [e1, e2], gate, (0, 1), x, emb, y
        )
        joint = np.concatenate([e1.values, e2.values, gate.params.values])
        n_e = expert_spec.param_count()

        def joint_loss(v):
            p1 = nn.ParamVector(v[:n_e], e1.spec_hash)
            p2 = nn.ParamVector(v[n_e : 2 * n_e], e2.spec_hash)
            g = gating.GateNet(gate_sp, nn.ParamVector(v[2 * n_e :], gate.params.spec_hash))
            w = gating.gate_scores(g, emb)[:, [0, 1]]
            combined = nn.mixture_forward(expert_spec, [p1, p2], w, x)
            return nn.cross_entropy(nn.softmax(combined), y)

        fd = central_diff(joint_loss, joint)
        analytic = np.concatenate([e_grads[0].values, e_grads[1].values, g_grad.values])
        assert rel_error(analytic, fd) < 1e-4
        assert abs(loss - joint_loss(joint)) < 1e-12

    def test_renormalized_gradient_matches_central_differences(self):
        expert_spec = nn.NetSpec.mlp([4, 5, 3])
        gate_sp = gating.gate_spec(3, 3, hidden=4)
        for attempt in range(200):
            r = rng_stream(77, "renorm-fd", attempt)
            e1 = nn.init_params(expert_spec, r)
            e2 = nn.init_params(expert_spec, r)
            gate = gating.GateNet(gate_sp, nn.init_params(gate_sp, r))
            x = r.normal(size=(4, 4))
            emb = r.normal(size=(4, 3))
            y = r.integers(0, 3, size=4)
            safe = min(
                min_hidden_preact(expert_spec, e1, x),
                min_hidden_preact(expert_spec, e2, x),
                min_hidden_preact(gate_sp, gate.params, emb),
            )
            if safe >= 0.05:
                break
        loss, e_grads, g_grad = runtime.mixture_loss_and_grads(
            expert_spec, [e1, e2], gate, (0, 2), x, emb, y, renormalize=True
        )
        joint = np.concatenate([e1.values, e2.values, gate.params.values])
        n_e = expert_spec.param_count()

        def joint_loss(v):
            p1 = nn.ParamVector(v[:n_e], e1.spec_hash)
            p2 = nn.ParamVector(v[n_e : 2 * n_e], e2.spec_hash)
            g = gating.GateNet(gate_sp, nn.ParamVector(v[2 * n_e :], gate.params.spec_hash))
            w = gating.gate_scores(g, emb)[:, [0, 2]]
            w = w / w.sum(axis=1, keepdims=True)
            combined = nn.mixture_forward(expert_spec, [p1, p2], w, x)
            return nn.cross_entropy(nn.softmax(combined), y)

        fd = central_diff(joint_loss, joint)
        analytic = np.concatenate([e_grads[0].values, e_grads[1].values, g_grad.values])
        assert rel_error(analytic, fd) < 1e-4


class TestAggregate:
    def _state(self, ctx):
        return runtime.init_server_state(ctx)

    def test_single_packet_adopted_exactly(self, ctx):
        state = self._state(ctx)
        new_gate = nn.ParamVector(state.gate_params.values + 1.0, state.gate_params.spec_hash)
        new_e = nn.ParamVector(state.expert_params[1].values * 2.0, state.expert_params[1].spec_hash)
        pkt = runtime.UpdatePacket(4, "normal", new_gate, {1: new_e}, 17)
        out = runtime.aggregate(state, [pkt])
        assert np.array_equal(out.gate_params.values, new_gate.values)
        assert np.array_equal(out.expert_params[1].values, new_e.values)
        assert np.array_equal(out.expert_params[0].values, state.expert_params[0].values)
        assert out.round == state.round + 1

    def test_equal_weights_midpoint(self, ctx):
        state = self._state(ctx)
        h = state.expert_params[0].spec_hash
        a = nn.ParamVector(np.full_like(state.expert_params[0].values, 2.0), h)
        b = nn.ParamVector(np.full_like(state.expert_params[0].values, 4.0), h)
        pkts = [
            runtime.UpdatePacket(3, "normal", None, {0: a}, 5),
            runtime.UpdatePacket(4, "normal", None, {0: b}, 5),
        ]
        out = runtime.aggregate(state, pkts)
        assert np.allclose(out.expert_params[0].values, 3.0, atol=1e-12)

    def test_one_three_weighting(self, ctx):
        state = self._state(ctx)
        h = state.expert_params[0].spec_hash
        w1 = nn.ParamVector(np.ones_like(state.expert_params[0].values), h)
        w2 = nn.ParamVector(np.full_like(state.expert_params[0].values, 5.0), h)
        pkts = [
            runtime.UpdatePacket(3, "normal", None, {0: w1}, 1),
            runtime.UpdatePacket(4, "normal", None, {0: w2}, 3),
        ]
        out = runtime.aggregate(state, pkts)
        assert np.allclose(out.expert_params[0].values, (1.0 + 3 * 5.0) / 4, atol=1e-12)

    def test_uniform_flag_ignores_sample_counts(self, ctx):
        state = self._state(ctx)
        h = state.expert_params[0].spec_hash
        w1 = nn.ParamVector(np.zeros_like(state.expert_params[0].values), h)
        w2 = nn.ParamVector(np.full_like(state.expert_params[0].values, 2.0), h)
        pkts = [
            runtime.UpdatePacket(3, "normal", None, {0: w1}, 1),
            runtime.UpdatePacket(4, "normal", None, {0: w2}, 99),
        ]
        out = runtime.aggregate(state, pkts, uniform=True)
        assert np.allclose(out.expert_params[0].values, 1.0, atol=1e-12)

    def test_packet_order_invariance(self, ctx):
        state = self._state(ctx)
        rng = rng_stream(55, "agg")
        pkts = []
        for cid in [7, 3, 5]:
            gate = nn.ParamVector(rng.normal(size=state.gate_params.values.size), state.gate_params.spec_hash)
            e = nn.ParamVector(
                rng.normal(size=state.expert_params[0].values.size), state.expert_params[0].spec_hash
            )
            pkts.append(runtime.UpdatePacket(cid, "normal", gate, {0: e}, int(rng.integers(1, 50))))
        out1 = runtime.aggregate(state, pkts)
        out2 = runtime.aggregate(state, list(reversed(pkts)))
        assert np.array_equal(out1.gate_params.values, out2.gate_params.values)
        assert np.array_equal(out1.expert_params[0].values, out2.expert_params[0].values)

    def test_spec_hash_mismatch_is_protocol_error(self, ctx):
        state = self._state(ctx)
        bad = nn.ParamVector(np.zeros_like(state.expert_params[0].values), "deadbeef")
        pkt = runtime.UpdatePacket(3, "normal", None, {0: bad}, 5)
        with pytest.raises(ProtocolError):
            runtime.aggregate(state, [pkt])


class TestRunTraining:
    def test_zero_rounds_returns_initial_state(self, ctx):
        cfg = mini_cfg(federation={"rounds": 0})
        c = experiment.build_context(cfg)
        state, history, ledger = runtime.run_training(c)
        init = runtime.init_server_state(c)
        assert history == []
        for a, b in zip(state.expert_params, init.expert_params):
            assert np.array_equal(a.values, b.values)

    def test_single_round_single_anchor_composition(self):
        cfg = mini_cfg(federation={"rounds": 1, "anchors_per_round": 1, "normals_per_round": 0})
        c = experiment.build_context(cfg)
        state0 = runtime.init_server_state(c)
        final, history, _ = runtime.run_training(c)
        plan = runtime.plan_round(
            0, cfg, rng_stream(cfg.seed, "plan", 0), [0, 1, 2], [s.client_id for s in c.normal_shards]
        )
        (q,) = plan.anchor_ids
        pkt = runtime.anchor_client_update(
            state0, c.anchor_shards[q], c.train_ds, c.cache[q], cfg, 0
        )
        assert np.array_equal(final.expert_params[q].values, pkt.experts[q].values)
        assert np.array_equal(final.gate_params.values, pkt.gate.values)

    def test_seed_repeat_bit_identical_metrics(self):
        cfg = mini_cfg()
        lines1 = [r.to_json_line() for r in runtime.run_training(experiment.build_context(cfg))[1]]
        lines2 = [r.to_json_line() for r in runtime.run_training(experiment.build_context(cfg))[1]]
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
            final, _, _ = runtime.run_training(c)

            params = runtime.init_server_state(c).expert_params[0]
            for t in range(cfg.rounds):
                rng = rng_stream(cfg.seed, "client", t, shard.client_id)
                batches = runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, 4)
                opt = nn.OptimizerState.fresh(c.expert_spec, cfg.training.lr, momentum)
                for rows in batches:
                    b = nn.Batch(
                        c.train_ds.inputs[shard.indices[rows]], c.train_ds.labels[shard.indices[rows]]
                    )
                    _, grad = nn.loss_and_grad(c.expert_spec, params, b, "ce_on_logits")
                    params, opt = nn.sgdm_step(params, grad, opt)
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
                runtime.run_training(c)
        training_ids = {s.client_id for s in c.anchor_shards + c.normal_shards}
        round_part, client_part = err.value.context.split(" | ")[-2:]
        assert round_part.startswith("round ") and 0 <= int(round_part[6:]) < cfg.rounds
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

    def test_three_round_ledger_matches_hand_sum(self):
        cfg = mini_cfg(federation={"rounds": 3})
        c = experiment.build_context(cfg)
        _, history, ledger = runtime.run_training(c)
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

    def test_minibatches_cover_epoch_without_repeats(self):
        rng = rng_stream(3, "mb")
        batches = runtime.minibatch_indices(10, 3, rng, 3)
        seen = np.concatenate(batches)
        assert len(np.unique(seen)) == len(seen)  # within one epoch pass

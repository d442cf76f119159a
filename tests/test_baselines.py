"""FedAvg, FedProx, Average Ensembles, FedMix."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import central_diff, kink_safe_net, rel_error
from fedjets import baselines, experiment, gating, nn, runtime
from fedjets.errors import ConfigError
from fedjets.seeding import rng_stream
from test_runtime import mini_cfg


@pytest.fixture(scope="module")
def ctx():
    return experiment.build_context(mini_cfg())


class TestFedAvgClient:
    def test_single_client_matches_centralized_replay(self, ctx):
        cfg = ctx.cfg
        shard = ctx.normal_shards[0]
        global_params = runtime.init_server_state(ctx).expert_params[0]
        pkt = baselines.fedavg_client_update(
            ctx.expert_spec, global_params, shard, ctx.train_ds, cfg, 2
        )
        rng = rng_stream(cfg.seed, "client", 2, shard.client_id)
        iters = runtime.local_iteration_count(cfg, len(shard))
        batches = runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, iters)
        params = global_params.copy()
        opt = nn.OptimizerState.fresh(ctx.expert_spec, cfg.training.lr, cfg.training.momentum)
        for rows in batches:
            b = nn.Batch(
                ctx.train_ds.inputs[shard.indices[rows]], ctx.train_ds.labels[shard.indices[rows]]
            )
            _, grad = nn.loss_and_grad(ctx.expert_spec, params, b, "ce_on_logits")
            params, opt = nn.sgdm_step(params, grad, opt)
        assert np.array_equal(pkt.experts[0].values, params.values)

    def test_equals_fedprox_with_zero_mu(self, ctx):
        shard = ctx.normal_shards[1]
        global_params = runtime.init_server_state(ctx).expert_params[0]
        a = baselines.fedavg_client_update(ctx.expert_spec, global_params, shard, ctx.train_ds, ctx.cfg, 0)
        p = baselines.fedprox_client_update(
            ctx.expert_spec, global_params, shard, ctx.train_ds, ctx.cfg, 0, mu=0.0
        )
        assert np.array_equal(a.experts[0].values, p.experts[0].values)


class TestFedProx:
    def test_negative_mu_rejected(self, ctx):
        shard = ctx.normal_shards[0]
        global_params = runtime.init_server_state(ctx).expert_params[0]
        with pytest.raises(ConfigError):
            baselines.fedprox_client_update(
                ctx.expert_spec, global_params, shard, ctx.train_ds, ctx.cfg, 0, mu=-1.0
            )

    def test_huge_mu_pins_local_to_global(self, ctx):
        # with lr*mu < 1 the proximal pull dominates: displacement ~ |g|/mu
        cfg = mini_cfg(training={"lr": 1e-7, "local_iterations": 10})
        shard = ctx.normal_shards[0]
        global_params = runtime.init_server_state(ctx).expert_params[0]
        pkt = baselines.fedprox_client_update(
            ctx.expert_spec, global_params, shard, ctx.train_ds, cfg, 0, mu=1e6
        )
        assert np.max(np.abs(pkt.experts[0].values - global_params.values)) < 1e-3

    def test_prox_gradient_matches_augmented_objective(self):
        spec, params, batch = kink_safe_net(61, [4, 6, 3])
        anchor = nn.ParamVector(params.values + 0.05, params.spec_hash)
        mu = 0.7
        _, base_grad = nn.loss_and_grad(spec, params, batch, "ce_on_logits")
        grad = base_grad.values + mu * (params.values - anchor.values)
        fd = central_diff(
            lambda v: baselines.prox_loss(
                spec, nn.ParamVector(v, params.spec_hash), anchor, batch, mu
            ),
            params.values,
        )
        assert rel_error(grad, fd) < 1e-4


class TestAvgEnsemble:
    def test_identical_models_match_single_model(self, ctx, rng):
        spec = ctx.expert_spec
        params = runtime.init_server_state(ctx).expert_params[0]
        x = rng.normal(size=(20, spec.input_dim))
        single = nn.forward(spec, params, x).argmax(axis=1)
        ens = baselines.avg_ensemble_predict([(spec, params), (spec, params)], x)
        assert np.array_equal(ens, single)

    def test_hand_computed_probability_average(self):
        # two confident opposite models plus an abstainer, all linear nets
        spec = nn.NetSpec.mlp([2, 2])
        h = nn.spec_hash(spec)

        def linear_net(w):
            return nn.ParamVector(np.concatenate([np.asarray(w).ravel(), np.zeros(2)]), h)

        up = linear_net([[5.0, -5.0], [0.0, 0.0]])      # favors class 0 when x0 > 0
        down = linear_net([[-3.0, 3.0], [0.0, 0.0]])    # favors class 1 when x0 > 0
        flat = linear_net([[0.0, 0.0], [0.0, 0.0]])     # uniform
        x = np.array([[1.0, 0.0]])
        models = [(spec, up), (spec, down), (spec, flat)]
        mean = (
            nn.softmax(nn.forward(spec, up, x))
            + nn.softmax(nn.forward(spec, down, x))
            + nn.softmax(nn.forward(spec, flat, x))
        ) / 3
        assert baselines.avg_ensemble_predict(models, x)[0] == mean.argmax()

    def test_model_order_irrelevant(self, ctx, rng):
        spec = ctx.expert_spec
        st = runtime.init_server_state(ctx)
        models = [(spec, st.expert_params[i]) for i in range(3)]
        x = rng.normal(size=(15, spec.input_dim))
        a = baselines.avg_ensemble_predict(models, x)
        b = baselines.avg_ensemble_predict(list(reversed(models)), x)
        assert np.array_equal(a, b)

    def test_needs_two_models(self, ctx, rng):
        spec = ctx.expert_spec
        params = runtime.init_server_state(ctx).expert_params[0]
        with pytest.raises(ConfigError):
            baselines.avg_ensemble_predict([(spec, params)], rng.normal(size=(3, spec.input_dim)))


class TestFedMix:
    def test_client_receives_all_experts_and_keeps_gate_local(self, ctx):
        state, stepper = baselines.make_stepper(ctx, "fedmix")
        new_state, plan = stepper(state, 0)
        assert state.gate_params is None  # server never holds a fedmix gate
        cfg = ctx.cfg
        costs = runtime.comm_cost(plan, cfg, ctx.sizes)
        n = len(plan.normal_ids)
        # all M experts per client, independent of top_k
        assert costs["fedmix"][0] == n * cfg.num_experts * ctx.sizes.expert

    def test_local_gate_persists_across_activations(self, ctx):
        local_gates = {}
        state, _ = baselines.make_stepper(ctx, "fedmix")
        state2, plan0 = baselines.fedmix_round(ctx, state, local_gates, 0)
        first = {cid: g.params.values.copy() for cid, g in local_gates.items()}
        _, plan1 = baselines.fedmix_round(ctx, state2, local_gates, 1)
        reactivated = set(plan0.normal_ids) & set(plan1.normal_ids)
        for cid in reactivated:
            fresh = nn.init_params(
                ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-gate", cid)
            )
            # round-1 training continued from the stored gate, not a re-init
            assert not np.array_equal(local_gates[cid].params.values, first[cid])
            assert not np.array_equal(local_gates[cid].params.values, fresh.values)
        # every activated client now has a stored local gate
        assert set(plan0.normal_ids) | set(plan1.normal_ids) <= set(local_gates)

    def test_two_expert_toy_matches_hand_stepped_reference(self, ctx):
        cfg = mini_cfg(federation={"num_experts": 2, "top_k": 2})
        c = experiment.build_context(cfg)
        state, _ = baselines.make_stepper(c, "fedmix")
        shard = c.normal_shards[0]
        gate = gating.GateNet(
            c.gate_spec, nn.init_params(c.gate_spec, rng_stream(cfg.seed, "fedmix-gate", shard.client_id))
        )
        pkt, new_gate = baselines.fedmix_client_update(c, state, gate, shard, 1)

        # hand-stepped reference over the same batch stream
        experts = {i: p.copy() for i, p in enumerate(state.expert_params)}
        gate_ref = gate.copy()
        opt_e = {
            i: nn.OptimizerState.fresh(c.expert_spec, cfg.training.lr, cfg.training.momentum)
            for i in experts
        }
        opt_g = nn.OptimizerState.fresh(c.gate_spec, cfg.training.gate_lr, cfg.training.gate_momentum)
        rng = rng_stream(cfg.seed, "client", 1, shard.client_id)
        iters = runtime.local_iteration_count(cfg, len(shard))
        for rows in runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, iters):
            x = c.train_ds.inputs[shard.indices[rows]]
            y = c.train_ds.labels[shard.indices[rows]]
            emb = c.cache[shard.client_id][rows]
            _, e_grads, g_grad = runtime.mixture_loss_and_grads(
                c.expert_spec, [experts[0], experts[1]], gate_ref, (0, 1), x, emb, y
            )
            for j in (0, 1):
                experts[j], opt_e[j] = nn.sgdm_step(experts[j], e_grads[j], opt_e[j])
            gate_ref.params, opt_g = nn.sgdm_step(gate_ref.params, g_grad, opt_g)
        assert np.array_equal(pkt.experts[0].values, experts[0].values)
        assert np.array_equal(pkt.experts[1].values, experts[1].values)
        assert np.array_equal(new_gate.params.values, gate_ref.params.values)

    def test_unknown_method_rejected(self, ctx):
        with pytest.raises(ConfigError):
            baselines.make_stepper(ctx, "scaffold")

"""FedAvg, FedProx, Average Ensembles, FedMix."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import ce_grad, central_diff, ensemble_labels, kink_safe_net, mixture_grads, prox_loss, rel_error
from fedjets import baselines, experiment, nn, runtime
from fedjets.errors import ConfigError
from fedjets.seeding import rng_stream
from test_runtime import mini_cfg, one_update


@pytest.fixture(scope="module")
def ctx():
    return experiment.build_context(mini_cfg())


class TestFedAvgClient:
    def test_single_client_matches_centralized_replay(self, ctx):
        cfg = ctx.cfg
        shard = ctx.normal_shards[0]
        state = runtime.init_server_state(ctx)
        global_params = state.expert_params[0]
        pkt = one_update(ctx, state, 2, shard, baselines.sgd_work())
        rng = rng_stream(cfg.seed, "client", 2, shard.client_id)
        iters = runtime.local_iteration_count(cfg, len(shard))
        batches = runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, iters)
        # SGDM written out, independent of nn.sgdm_step: v = m*v + g; p = p - lr*v
        lr, m = cfg.training.lr, cfg.training.momentum
        params, v = global_params.copy(), 0.0
        for rows in batches:
            x, y = ctx.train_ds.inputs[shard.indices[rows]], ctx.train_ds.labels[shard.indices[rows]]
            v = m * v + ce_grad(ctx.expert_spec, params, x, y, "ce_on_logits")
            params = nn.ParamVector(params.values - lr * v, params.spec)
        assert np.array_equal(pkt.experts[0], params.values)

    def test_equals_fedprox_with_zero_mu(self, ctx):
        shard = ctx.normal_shards[1]
        state = runtime.init_server_state(ctx)
        a = one_update(ctx, state, 0, shard, baselines.sgd_work())
        p = one_update(ctx, state, 0, shard, baselines.sgd_work(mu=0.0))
        assert np.array_equal(a.experts[0], p.experts[0])


class TestFedProx:
    def test_negative_mu_rejected(self):
        # checked once, by the config, under every method
        with pytest.raises(ConfigError, match="federation.fedprox_mu must be at least 0; got -1.0"):
            mini_cfg(federation={"method": "fedprox", "fedprox_mu": -1.0})

    def test_huge_mu_pins_local_to_global(self, ctx):
        # with lr*mu < 1 the proximal pull dominates: displacement ~ |g|/mu
        c = dataclasses.replace(ctx, cfg=mini_cfg(training={"lr": 1e-7, "local_iterations": 10}))
        shard = ctx.normal_shards[0]
        state = runtime.init_server_state(ctx)
        global_params = state.expert_params[0]
        pkt = one_update(c, state, 0, shard, baselines.sgd_work(mu=1e6))
        assert np.max(np.abs(pkt.experts[0] - global_params.values)) < 1e-3

    def test_prox_gradient_matches_augmented_objective(self):
        spec, params, x, y = kink_safe_net(61, [4, 6, 3])
        anchor = nn.ParamVector(params.values + 0.05, spec)
        mu = 0.7
        grad = ce_grad(spec, params, x, y, "ce_on_logits") + mu * (params.values - anchor.values)
        fd = central_diff(
            lambda v: prox_loss(nn.ParamVector(v, spec), anchor, x, y, mu),
            params.values,
        )
        assert rel_error(grad, fd) < 1e-4


class TestAvgEnsemble:
    def test_identical_models_match_single_model(self, ctx, rng):
        spec = ctx.expert_spec
        params = runtime.init_server_state(ctx).expert_params[0]
        x = rng.normal(size=(20, spec.input_dim))
        single = nn.forward(spec, params.values, x).argmax(axis=1)
        ens = ensemble_labels(ctx, [params, params], x)
        assert np.array_equal(ens, single)

    def test_hand_computed_probability_average(self, ctx):
        # two confident opposite models plus an abstainer, all linear nets
        spec = nn.NetSpec.mlp([2, 2])

        def linear_net(w):
            return nn.ParamVector(np.concatenate([np.asarray(w).ravel(), np.zeros(2)]), spec)

        up = linear_net([[5.0, -5.0], [0.0, 0.0]])      # favors class 0 when x0 > 0
        down = linear_net([[-3.0, 3.0], [0.0, 0.0]])    # favors class 1 when x0 > 0
        flat = linear_net([[0.0, 0.0], [0.0, 0.0]])     # uniform
        x = np.array([[1.0, 0.0]])
        models = [up, down, flat]
        mean = (
            nn.softmax(nn.forward(spec, up.values, x))
            + nn.softmax(nn.forward(spec, down.values, x))
            + nn.softmax(nn.forward(spec, flat.values, x))
        ) / 3
        assert ensemble_labels(ctx, models, x)[0] == mean.argmax()

    def test_model_order_irrelevant(self, ctx, rng):
        spec = ctx.expert_spec
        st = runtime.init_server_state(ctx)
        models = st.expert_params[:3]
        x = rng.normal(size=(15, spec.input_dim))
        a = ensemble_labels(ctx, models, x)
        b = ensemble_labels(ctx, list(reversed(models)), x)
        assert np.array_equal(a, b)

    def test_round_equals_one_fedavg_round_per_member(self, ctx):
        # the reference: each member a one-expert state of its own, through its own FedAvg round
        state, step = baselines.make_stepper(ctx, "avg_ensemble")
        members, shared = list(state.expert_params), set()
        for t in range(ctx.cfg.federation.rounds):
            state, plan = step(state, t)
            plans = [baselines.baseline_plan(ctx, t, m) for m in range(len(members))]
            members = [
                runtime.train_round(ctx, runtime.ServerState([p], None, t), t, draw.normal_ids, baselines.sgd_work())
                .expert_params[0]
                for p, draw in zip(members, plans)
            ]
            shared |= set(plans[0].normal_ids) & set(plans[1].normal_ids)
            assert plan == plans[0] and state.round == t + 1
            for got, want in zip(state.expert_params, members, strict=True):
                assert got.values.tobytes() == want.values.tobytes()
        assert shared  # some client trained both members in one round


class TestFedMix:
    def test_client_receives_all_experts_and_keeps_gate_local(self, ctx):
        state, stepper = baselines.make_stepper(ctx, "fedmix")
        new_state, plan = stepper(state, 0)
        assert state.gate_params is None  # server never holds a fedmix gate
        cfg = ctx.cfg
        costs = runtime.comm_cost(plan, cfg, ctx.sizes)
        n = len(plan.normal_ids)
        # all M experts per client, independent of top_k
        assert costs["fedmix"][0] == n * cfg.federation.num_experts * ctx.sizes.expert

    def test_local_gate_persists_across_activations(self, ctx):
        local_gates = {}
        state, _ = baselines.make_stepper(ctx, "fedmix")
        state2, plan0 = baselines.fedmix_round(ctx, state, local_gates, 0)
        first = {cid: g.copy() for cid, g in local_gates.items()}
        _, plan1 = baselines.fedmix_round(ctx, state2, local_gates, 1)
        reactivated = set(plan0.normal_ids) & set(plan1.normal_ids)
        for cid in reactivated:
            fresh = nn.init_params(
                ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-gate", cid)
            )
            # round-1 training continued from the stored gate, not a re-init
            assert not np.array_equal(local_gates[cid], first[cid])
            assert not np.array_equal(local_gates[cid], fresh.values)
        # every activated client now has a stored local gate
        assert set(plan0.normal_ids) | set(plan1.normal_ids) <= set(local_gates)

    def test_two_expert_toy_matches_hand_stepped_reference(self, ctx):
        cfg = mini_cfg(federation={"num_experts": 2, "top_k": 2})
        c = experiment.build_context(cfg)
        state, _ = baselines.make_stepper(c, "fedmix")
        shard = c.normal_shards[0]
        gate = nn.init_params(c.gate_spec, rng_stream(cfg.seed, "fedmix-gate", shard.client_id))
        local_gates = {shard.client_id: gate.values}
        pkt = baselines.fedmix_updates(c, state, local_gates, 1, [shard.client_id])[0]
        new_gate = local_gates[shard.client_id]

        # hand-stepped reference over the same batch stream, SGDM written
        # out: v = m*v + g; p = p - lr*v
        tr = cfg.training
        experts = {i: p.copy() for i, p in enumerate(state.expert_params)}
        gate_ref = gate.copy()
        v_e, v_g = {0: 0.0, 1: 0.0}, 0.0
        rng = rng_stream(cfg.seed, "client", 1, shard.client_id)
        iters = runtime.local_iteration_count(cfg, len(shard))
        for rows in runtime.minibatch_indices(len(shard), cfg.training.batch_size, rng, iters):
            x = c.train_ds.inputs[shard.indices[rows]]
            y = c.train_ds.labels[shard.indices[rows]]
            emb = c.train_embeddings[shard.indices[rows]]
            _, e_grads, g_grad = mixture_grads([experts[0], experts[1]], gate_ref, (0, 1), x, emb, y)
            for j in (0, 1):
                v_e[j] = tr.momentum * v_e[j] + e_grads[j]
                experts[j] = nn.ParamVector(experts[j].values - tr.lr * v_e[j], experts[j].spec)
            v_g = tr.gate_momentum * v_g + g_grad
            gate_ref = nn.ParamVector(gate_ref.values - tr.gate_lr * v_g, gate_ref.spec)
        assert np.array_equal(pkt.experts[0], experts[0].values)
        assert np.array_equal(pkt.experts[1], experts[1].values)
        assert np.array_equal(new_gate, gate_ref.values)

    def test_unknown_method_rejected(self, ctx):
        with pytest.raises(ConfigError):
            baselines.make_stepper(ctx, "scaffold")

"""Zero-shot evaluation, routing diagnostics, scenario runner."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import dict_scoring_pass, reference_predictions, views_of
from fedjets import baselines, benchmarks, central, cli, data, evaluation, experiment, gating, nn, runtime
from fedjets.config import ScenarioRange
from fedjets.errors import ConfigError
from fedjets.metrics import MetricsRecord
from fedjets.seeding import rng_stream
from test_runtime import mini_cfg

C, D, M = 6, 6, 3
GROUPS = {0: (0, 1), 1: (2, 3), 2: (4, 5)}  # expert q <-> its two labels


def onehot_dataset(per_class=40, seed=0, scale=8.0):
    rng = rng_stream(seed, "onehot-ds")
    inputs, labels = [], []
    for c in range(C):
        x = np.zeros((per_class, D))
        x[:, c] = scale
        inputs.append(x + 0.1 * rng.normal(size=(per_class, D)))
        labels.append(np.full(per_class, c))
    return data.LabeledDataset(np.concatenate(inputs), np.concatenate(labels), C)


def specialist_expert(spec, group, scale=8.0):
    """Single-layer net: correct on its two labels, wrong elsewhere."""
    w = np.full((D, C), 0.0)
    for c in range(C):
        w[c, c] = scale if c in group else -scale
    return nn.ParamVector(np.concatenate([w.ravel(), np.zeros(C)]), spec)


def routing_gate():
    spec = gating.gate_spec(D, M, hidden=M)
    w1 = np.zeros((D, M))
    for q, group in GROUPS.items():
        for c in group:
            w1[c, q] = 10.0
    w2 = 10.0 * np.eye(M)
    values = np.concatenate([w1.ravel(), np.zeros(M), w2.ravel(), np.zeros(M)])
    return nn.ParamVector(values, spec)


def perfect_state():
    expert_spec = nn.NetSpec.mlp([D, C])
    experts = [specialist_expert(expert_spec, GROUPS[q]) for q in range(M)]
    return runtime.ServerState(experts, routing_gate())


def identity_common():
    spec = nn.NetSpec.mlp([D, D])
    params = nn.ParamVector(np.concatenate([np.eye(D).ravel(), np.zeros(D)]), spec)
    return gating.CommonExpert(params, embed_layer=0)


def zero_shot(state, common, shards, ds, k, anchors=()):
    """The FedJETs pass of `score_test_clients` on a context whose test
    clients are `shards` of `ds`, embedded by `common`, with top-`k` routing
    and the ground truth of `anchors`. Its cfg is read for `top_k` only, and
    its gate spec not at all."""
    cfg = mini_cfg()
    embeddings = gating.embed_inputs(common, ds.inputs)
    ctx = runtime.RunContext(
        cfg=dataclasses.replace(cfg, federation=dataclasses.replace(cfg.federation, top_k=k)),
        train_ds=ds,
        test_ds=ds,
        anchor_shards=list(anchors),
        normal_shards=[],
        test_shards=shards,
        common=common,
        train_embeddings=embeddings,
        test_embeddings=embeddings,
        expert_spec=state.expert_params[0].spec,
        gate_spec=None,
    )
    return evaluation.score_test_clients(ctx, state, "fedjets")


def shard_with_labels(ds, labels, n_per, client_id, kind=data.KIND_TEST, expert=None):
    rng = rng_stream(client_id, "shard")
    idx = np.concatenate([rng.choice(ds.class_index[c], size=n_per, replace=False) for c in labels])
    hist = np.bincount(ds.labels[idx], minlength=C)
    return data.ClientShard(client_id, idx, hist, kind, expert)


class TestZeroShot:
    def test_constructed_oracle_reaches_perfect_accuracy(self):
        state = perfect_state()
        ds = onehot_dataset()
        shards = [
            shard_with_labels(ds, (0, 2), 15, 100),
            shard_with_labels(ds, (3, 5), 15, 101),
            shard_with_labels(ds, (4, 5), 15, 102),
        ]
        report = zero_shot(state, identity_common(), shards, ds, k=2)
        assert report.global_acc == 1.0
        assert all(acc == 1.0 for acc in report.per_client_accuracy.values())
        # brute-force composition check: routed specialist accuracy per client
        for cid, chosen in report.chosen_experts.items():
            shard = next(s for s in shards if s.client_id == cid)
            labels = ds.labels[shard.indices]
            expect = np.array([c // 2 for c in labels])
            assert np.array_equal(chosen, expect)

    def test_single_expert_single_k_equals_plain_eval(self):
        ds = onehot_dataset(seed=3)
        expert_spec = nn.NetSpec.mlp([D, C])
        params = nn.init_params(expert_spec, rng_stream(4, "e"))
        gate_spec = gating.gate_spec(D, 1, hidden=2)
        state = runtime.ServerState([params], nn.init_params(gate_spec, rng_stream(5, "g")))
        shards = [shard_with_labels(ds, (1, 4), 20, 200)]
        report = zero_shot(state, identity_common(), shards, ds, k=1)
        plain = central.model_accuracy(params, ds.inputs[shards[0].indices], ds.labels[shards[0].indices])
        assert report.per_client_accuracy[200] == plain

    def test_chosen_experts_subset_of_selection(self):
        ds = onehot_dataset(seed=6)
        state = perfect_state()
        state.gate_params = nn.init_params(state.gate_params.spec, rng_stream(9, "rnd-gate"))
        shards = [shard_with_labels(ds, (0, 3), 20, 300), shard_with_labels(ds, (2, 5), 20, 301)]
        report = zero_shot(state, identity_common(), shards, ds, k=2)
        for cid in report.per_client_accuracy:
            assert set(report.chosen_experts[cid]) <= set(report.selections[cid])

    def test_average_equals_mean_of_per_client(self):
        ds = onehot_dataset(seed=7)
        state = perfect_state()
        shards = [shard_with_labels(ds, (0, 2), 10, 400), shard_with_labels(ds, (1, 5), 10, 401)]
        report = zero_shot(state, identity_common(), shards, ds, k=2)
        assert report.global_acc == float(
            np.mean(list(report.per_client_accuracy.values()))
        )

    def test_prediction_path_sees_inputs_only(self):
        sig = inspect.signature(gating.route)
        assert "labels" not in sig.parameters
        # shuffling labels cannot change routing or selections
        ds = onehot_dataset(seed=8)
        state = perfect_state()
        shard = shard_with_labels(ds, (0, 4), 20, 500)
        rep1 = zero_shot(state, identity_common(), [shard], ds, k=2)
        shuffled = data.LabeledDataset(
            ds.inputs, np.roll(ds.labels, 1), C, [idx for idx in ds.class_index]
        )
        rep2 = zero_shot(state, identity_common(), [shard], shuffled, k=2)
        assert np.array_equal(rep1.chosen_experts[500], rep2.chosen_experts[500])
        assert rep1.selections[500] == rep2.selections[500]

    def test_requires_gate(self):
        ds = onehot_dataset(seed=9)
        state = perfect_state()
        state.gate_params = None
        with pytest.raises(ConfigError):
            zero_shot(state, identity_common(), [], ds, k=2)


class TestRoutingReport:
    def label_map(self):
        return {c: q for q, group in GROUPS.items() for c in group}

    @staticmethod
    def routing(state, common, shards, ds, label_map, k):
        """The routing report of the FedJETs pass over `shards`, whose ground
        truth comes from one anchor per expert of `label_map`, holding that
        expert's labels."""
        experts = {}
        for lab, q in label_map.items():
            experts.setdefault(q, []).append(lab)
        anchors = [shard_with_labels(ds, labs, 1, q, kind=data.KIND_ANCHOR, expert=q) for q, labs in experts.items()]
        return zero_shot(state, common, shards, ds, k, anchors).routing

    def test_perfect_gate_zero_error(self):
        ds = onehot_dataset(seed=10)
        state = perfect_state()
        shards = [shard_with_labels(ds, (0, 2), 20, 600), shard_with_labels(ds, (1, 3), 20, 601)]
        report = self.routing(state, identity_common(), shards, ds, self.label_map(), k=2)
        assert report.average_error_rate == 0.0
        for row in report.rows:
            assert row["incorrect"] == 0

    def test_uniform_gate_chance_error(self):
        # zero gate params: uniform scores, tie-break selects experts {0,1},
        # per-sample argmax lands on expert 0; balanced groups -> 2/3 error here
        ds = onehot_dataset(per_class=100, seed=11)
        state = perfect_state()
        state.gate_params = nn.ParamVector(np.zeros_like(state.gate_params.values), state.gate_params.spec)
        shards = [
            shard_with_labels(ds, GROUPS[q], 80, 700 + q) for q in range(M)
        ]
        report = self.routing(state, identity_common(), shards, ds, self.label_map(), k=2)
        chance_error = 1.0 - 1.0 / M
        assert abs(report.average_error_rate - chance_error) <= 0.05
        total = sum(r["correct"] + r["incorrect"] for r in report.rows)
        assert total == 3 * 160

    def test_chance_error_five_experts_large_sample(self):
        # the M=5 chance level: 0.8 error over >= 2000 samples
        C10, M5 = 10, 5
        rng = rng_stream(0, "chance10")
        inputs, labels = [], []
        for c in range(C10):
            x = np.zeros((250, C10))
            x[:, c] = 8.0
            inputs.append(x + 0.1 * rng.normal(size=(250, C10)))
            labels.append(np.full(250, c))
        ds = data.LabeledDataset(np.concatenate(inputs), np.concatenate(labels), C10)
        expert_spec = nn.NetSpec.mlp([C10, C10])
        gate_sp = gating.gate_spec(C10, M5)
        experts = [nn.ParamVector(np.zeros(expert_spec.param_count()), expert_spec) for _ in range(M5)]
        state = runtime.ServerState(experts, nn.ParamVector(np.zeros(gate_sp.param_count()), gate_sp))
        common_spec = nn.NetSpec.mlp([C10, C10])
        common = gating.CommonExpert(
            nn.ParamVector(np.concatenate([np.eye(C10).ravel(), np.zeros(C10)]), common_spec),
            embed_layer=0,
        )
        shards = []
        for q in range(M5):
            idx = np.concatenate(
                [rng.choice(ds.class_index[c], size=200, replace=False) for c in (2 * q, 2 * q + 1)]
            )
            hist = np.bincount(ds.labels[idx], minlength=C10)
            shards.append(data.ClientShard(900 + q, idx, hist, data.KIND_TEST))
        label_map = {c: c // 2 for c in range(C10)}
        report = self.routing(state, common, shards, ds, label_map, k=2)
        total = sum(r["correct"] + r["incorrect"] for r in report.rows)
        assert total >= 2000
        assert abs(report.average_error_rate - 0.8) <= 0.05

    def test_counts_match_exhaustive_scan(self):
        ds = onehot_dataset(seed=12)
        state = perfect_state()
        state.gate_params = nn.init_params(state.gate_params.spec, rng_stream(13, "g"))
        shard = shard_with_labels(ds, (2, 4), 25, 800)
        report = self.routing(state, identity_common(), [shard], ds, self.label_map(), k=2)
        embeddings = gating.embed_inputs(identity_common(), ds.inputs[shard.indices])
        _, chosen = gating.route(gating.gate_scores(state.gate_params, embeddings), 2)
        truth = np.array([self.label_map()[int(l)] for l in ds.labels[shard.indices]])
        manual_correct = int(np.sum(chosen == truth))
        assert report.rows[0]["correct"] == manual_correct
        assert report.rows[0]["incorrect"] == len(shard) - manual_correct

    def test_unmapped_label_is_config_error(self):
        # a map that misses a test label gives no routing report, as `run` and `eval` have it
        ds = onehot_dataset(seed=13)
        state = perfect_state()
        shard = shard_with_labels(ds, (0, 5), 10, 900)
        partial = {0: 0, 1: 0, 2: 1, 3: 1}  # labels 4,5 missing
        assert self.routing(state, identity_common(), [shard], ds, partial, k=2) is None

    def test_ground_truth_requires_disjoint_anchors(self):
        ds = onehot_dataset(seed=14)
        a = shard_with_labels(ds, (0, 1), 5, 0, kind=data.KIND_ANCHOR, expert=0)
        b = shard_with_labels(ds, (1, 2), 5, 1, kind=data.KIND_ANCHOR, expert=1)
        assert evaluation.routing_ground_truth([a, b]) is None
        c = shard_with_labels(ds, (2, 3), 5, 1, kind=data.KIND_ANCHOR, expert=1)
        truth = evaluation.routing_ground_truth([a, c])
        assert truth == {0: 0, 1: 0, 2: 1, 3: 1}


class TestScenario:
    def test_single_full_range_matches_plain_training(self):
        cfg = mini_cfg()
        ctx = experiment.build_context(cfg)
        plain = experiment.run_training(ctx)
        normal_ids = [s.client_id for s in ctx.normal_shards]
        full = [ScenarioRange(0, cfg.federation.rounds, normal_ids)]
        scheduled = dataclasses.replace(ctx, cfg=dataclasses.replace(cfg, scenario=full).validate())
        state2, history2, _ = experiment.run_training(scheduled)
        assert [r.to_json_line() for r in plain[1]] == [r.to_json_line() for r in history2]
        for a, b in zip(plain[0].expert_params, state2.expert_params):
            assert np.array_equal(a.values, b.values)

    def test_active_ids_follow_schedule(self):
        cfg = mini_cfg(
            federation={"rounds": 4, "normals_per_round": 2},
            scenario={"ranges": [
                {"start": 0, "end": 2, "active_clients": [3, 4, 5]},
                {"start": 2, "end": 4, "active_clients": [6, 7]},
            ]},
        )
        ctx = experiment.build_context(cfg)
        anchor_ids = [s.client_id for s in ctx.anchor_shards]
        normal_ids = [s.client_id for s in ctx.normal_shards]
        assert runtime.active_ids(cfg, 1, normal_ids) == [3, 4, 5]
        assert runtime.active_ids(cfg, 1, anchor_ids) == []
        anchors = runtime.active_ids(cfg, 1, anchor_ids) or anchor_ids  # fedjets_round's anchor rule
        assert anchors == [0, 1, 2]  # schedule lists no anchors: unaffected
        assert runtime.active_ids(cfg, 3, normal_ids) == [6, 7]

    def test_anchor_ids_in_schedule_restrict_anchors(self):
        cfg = mini_cfg(
            federation={"rounds": 2, "anchors_per_round": 1},
            scenario={"ranges": [{"start": 0, "end": 2, "active_clients": [0, 3, 4, 5]}]},
        )
        ctx = experiment.build_context(cfg)
        assert runtime.active_ids(cfg, 0, [s.client_id for s in ctx.anchor_shards]) == [0]
        assert runtime.active_ids(cfg, 0, [s.client_id for s in ctx.normal_shards]) == [3, 4, 5]

    def test_empty_active_normals_is_config_error(self):
        cfg = mini_cfg(
            federation={"rounds": 2},
            scenario={"ranges": [{"start": 0, "end": 2, "active_clients": [0, 1]}]},
        )
        ctx = experiment.build_context(cfg)
        with pytest.raises(ConfigError):
            experiment.run_training(ctx)

    def test_cyclic_disjoint_active_sets_run(self):
        cfg = mini_cfg(
            federation={"rounds": 4, "normals_per_round": 2},
            scenario={"ranges": [
                {"start": 0, "end": 2, "active_clients": [3, 4]},
                {"start": 2, "end": 4, "active_clients": [5, 6]},
            ]},
        )
        ctx = experiment.build_context(cfg)
        state, history, _ = experiment.run_training(ctx)
        assert state.round == 4
        # the plans are reconstructable: rounds 0-1 can only use {3,4}
        for t in [0, 1]:
            plan = runtime.plan_round(
                t, cfg, rng_stream(cfg.seed, "plan", t), [0, 1, 2], [3, 4]
            )
            assert set(plan.normal_ids) <= {3, 4}

    @pytest.mark.parametrize("cid", [8, 999, -1])
    def test_active_id_outside_the_training_clients_is_config_error(self, cid):
        ranges = [{"start": 0, "end": 4, "active_clients": [0, 7]}]
        assert mini_cfg(scenario={"ranges": ranges}).scenario[0].active_clients == [0, 7]  # ids 0..7 are clients
        ranges[0]["active_clients"].append(cid)
        with pytest.raises(ConfigError, match=rf"client ids \[{cid}\] outside \[0, 8\)"):
            mini_cfg(scenario={"ranges": ranges})

    def test_schedule_must_tile_rounds(self):
        with pytest.raises(ConfigError):
            mini_cfg(
                federation={"rounds": 4},
                scenario={"ranges": [{"start": 0, "end": 2, "active_clients": [3]}]},
            )


class TestEvaluateRound:
    def test_fedjets_record_schema(self):
        cfg = mini_cfg()
        ctx = experiment.build_context(cfg)
        state, history, _ = experiment.run_training(ctx)
        rec = history[-1]
        assert rec.method == "fedjets"
        assert len(rec.per_expert_acc) == cfg.federation.num_experts
        assert rec.routing_acc is not None
        assert 0.0 <= rec.global_acc <= 1.0

    def test_fedavg_record_has_single_model(self):
        cfg = mini_cfg(federation={"method": "fedavg"})
        ctx = experiment.build_context(cfg)
        _, history, _ = experiment.run_training(ctx)
        assert len(history[-1].per_expert_acc) == 1
        assert history[-1].routing_acc is None

    @pytest.mark.parametrize("stack_rows", [1024, runtime.STACK_ROWS, 30])
    def test_gate_side_runs_once_per_test_stack(self, monkeypatch, stack_rows):
        # FedJETs routes once per stack on its gate's one forward on the test embeddings, FedMix
        # forwards a stack's test gates once; every method forwards each server network once on the test set
        monkeypatch.setattr(runtime, "STACK_ROWS", stack_rows)
        ctx = experiment.build_context(mini_cfg())
        sizes = Counter(len(s) for s in ctx.test_shards)
        stacks = sum(math.ceil(t / max(1, stack_rows // n)) for n, t in sizes.items())
        assert stacks == (2 if stack_rows == 30 else 1)  # mini: two test clients of 30 rows
        traces, routes = [], []
        forward_trace, route = nn._forward_trace, gating.route
        monkeypatch.setattr(nn, "_forward_trace", lambda *a: traces.append(a) or forward_trace(*a))
        monkeypatch.setattr(gating, "route", lambda *a, **k: routes.append(a) or route(*a, **k))
        for method in METHODS:
            state = baselines.make_stepper(ctx, method)[0]
            traces.clear()
            routes.clear()
            evaluation.evaluate_round(ctx, state, method, 1, 0.0, 0.0)
            experts = [a for a in traces if a[0] == ctx.expert_spec]
            assert len(experts) == state.num_experts, method
            assert all(views_of(a[1], p.values) for a, p in zip(experts, state.expert_params)), method
            assert all(a[2].shape[0] == len(ctx.test_ds) for a in experts), method
            gates = [a for a in traces if a[0] == ctx.gate_spec]
            assert len(traces) == len(experts) + len(gates), method
            if method == "fedjets":
                [(_, layers, emb)] = gates
                assert views_of(layers, state.gate_params.values) and emb is ctx.test_embeddings
            else:
                assert len(gates) == (stacks if method == "fedmix" else 0), method
                assert sum(a[2].shape[0] for a in gates) == (len(ctx.test_shards) if gates else 0), method
            assert len(routes) == (stacks if method == "fedjets" else 0), method

    def test_labels_taken_once_per_network(self, monkeypatch):
        # per_expert_acc, FedJETs' label table and the FedAvg/FedProx predictions read one argmax per network
        taken = []

        class Logits(np.ndarray):
            """A network's test-set output that records each argmax taken on it."""

            def argmax(self, *args, **kwargs):
                taken.append(self)
                return np.asarray(self).argmax(*args, **kwargs)

        ctx = experiment.build_context(mini_cfg())
        outs, forward = [], nn.forward

        def spy(spec, *args):
            out = forward(spec, *args)
            if spec == ctx.expert_spec:
                outs.append(out.view(Logits))
                return outs[-1]
            return out

        monkeypatch.setattr(nn, "forward", spy)
        for method in METHODS:
            state = baselines.make_stepper(ctx, method)[0]
            outs.clear()
            taken.clear()
            record = evaluation.evaluate_round(ctx, state, method, 1, 0.0, 0.0)
            assert len(outs) == state.num_experts, method
            assert [sum(a is out for a in taken) for out in outs] == [1] * len(outs), method
            want = [float(np.mean(np.asarray(out).argmax(axis=1) == ctx.test_ds.labels)) for out in outs]
            assert record.per_expert_acc == want and all(type(v) is float for v in record.per_expert_acc), method

    def test_forwards_per_evaluation(self, monkeypatch):
        # M expert forwards and, under FedJETs, one gate forward per evaluation; FedMix forwards its
        # test gates once per stack on a context's first evaluation only
        ctx = experiment.build_context(mini_cfg())
        stacks = len(evaluation.client_stacks(ctx.test_shards, ctx.test_ds))
        calls, forward = [], nn.forward
        monkeypatch.setattr(nn, "forward", lambda *a: calls.append(a[0]) or forward(*a))
        for method in METHODS:
            state = baselines.make_stepper(ctx, method)[0]
            gates = {"fedjets": [1, 1], "fedmix": [stacks, 0]}.get(method, [0, 0])
            for gate_forwards in gates:
                calls.clear()
                evaluation.evaluate_round(ctx, state, method, 1, 0.0, 0.0)
                assert len(calls) == state.num_experts + gate_forwards, method
                assert calls.count(ctx.gate_spec) == gate_forwards, method

    def test_test_labels_gathered_once_per_context(self):
        # the first evaluation gathers each stack's test labels; later ones score on the same arrays
        gathered = []

        class Labels(np.ndarray):
            """The test set's labels, recording each index taken of them."""

            def __getitem__(self, key):
                gathered.append(key)
                return super().__getitem__(key)

        ctx = experiment.build_context(mini_cfg())
        test_ds = copy.copy(ctx.test_ds)
        test_ds.labels = test_ds.labels.view(Labels)
        ctx = dataclasses.replace(ctx, test_ds=test_ds)
        for i, method in enumerate(METHODS):
            state = baselines.make_stepper(ctx, method)[0]
            evaluation.evaluate_round(ctx, state, method, 1, 0.0, 0.0)
            assert len(gathered) == (len(ctx.test_stacks) if i == 0 else 0), method
            labels = [s.labels for s in ctx.test_stacks]
            gathered.clear()
            evaluation.evaluate_round(ctx, state, method, 1, 0.0, 0.0)
            assert gathered == [], method
            assert all(s.labels is a for s, a in zip(ctx.test_stacks, labels, strict=True)), method


METHODS = ("fedjets", "fedavg", "fedprox", "avg_ensemble", "fedmix")


@pytest.fixture(scope="module")
def trained():
    """The mini context and every method's state after the mini config's rounds."""
    ctx = experiment.build_context(mini_cfg())
    states = {}
    for method in METHODS:
        state, step = baselines.make_stepper(ctx, method)
        for t in range(ctx.cfg.federation.rounds):
            state, _ = step(state, t)
        states[method] = state
    return ctx, states


def uneven_overlapping_shards(ctx):
    """Test shards of 1 to 37 rows that share rows with one another (and
    some that repeat a row), three sizes held by two clients each, in a
    replaced context (no test side made yet)."""
    n = len(ctx.test_ds)
    rng = rng_stream(3, "uneven-shards")
    index_sets = [
        np.array([n - 1]),
        np.arange(0, 23),
        np.arange(11, 48),
        rng.choice(n, size=9, replace=False),
        np.array([5, 5, 17, 40, 5]),
        rng.choice(n, size=30, replace=True),
        np.array([0]),
        np.arange(23, 46),
        rng.choice(n, size=9, replace=True),
    ]
    shards = []
    for i, idx in enumerate(index_sets):
        hist = np.bincount(ctx.test_ds.labels[idx], minlength=ctx.test_ds.num_classes)
        shards.append(data.ClientShard(500 + i, idx, hist, data.KIND_TEST))
    return dataclasses.replace(ctx, test_shards=shards)


class TestPredictionEquality:
    """Gathering each client's rows from one whole-test-set forward per
    network, the gate on the test set's one embedding included, predicts the
    same routes and labels as forwarding every network, the common expert
    included, on each client's own rows (the module's stated tolerance:
    routes and labels equal, not logits)."""

    @staticmethod
    def predictions(ctx, state, method):
        """Each test client's labels and route from the stacked scoring path."""
        outputs = evaluation.expert_outputs(state.expert_params, ctx.test_ds.inputs)
        predict = evaluation.client_predictor(ctx, state, method, *outputs)
        out = {}
        for stack in evaluation.client_stacks(ctx.test_shards, ctx.test_ds):
            labels, route = predict(stack)
            routes = [None] * len(stack.shards) if route is None else zip(map(tuple, route[0].tolist()), route[1])
            out.update(zip((s.client_id for s in stack.shards), zip(labels, routes)))
        return out

    @pytest.mark.parametrize("shards", ["mini", "uneven-overlapping", "uneven-overlapping-cut"])
    @pytest.mark.parametrize("method", METHODS)
    def test_labels_equal_per_client_forward(self, trained, monkeypatch, method, shards):
        ctx, states = trained
        if shards.endswith("-cut"):  # groups cut into several stacks
            monkeypatch.setattr(runtime, "STACK_ROWS", 9)
        ctx = dataclasses.replace(ctx) if shards == "mini" else uneven_overlapping_shards(ctx)
        state = states[method]
        got, want = self.predictions(ctx, state, method), reference_predictions(ctx, state, method)
        assert sorted(got) == sorted(want) == sorted(s.client_id for s in ctx.test_shards)
        for cid, (labels, route) in want.items():
            assert got[cid][0].dtype.kind == "i"
            assert np.array_equal(got[cid][0], labels), (method, cid)
            if route is None:
                assert got[cid][1] is None, (method, cid)
            else:  # FedJETs: the same top-K and the same expert for every sample
                assert got[cid][1][0] == route[0] and np.array_equal(got[cid][1][1], route[1]), (method, cid)
        # the scored pass reads the same labels
        labels = ctx.test_ds.labels
        shards = sorted(ctx.test_shards, key=lambda s: s.client_id)
        per_acc = [float(np.mean(want[s.client_id][0] == labels[s.indices])) for s in shards]
        assert evaluation.score_test_clients(ctx, state, method).global_acc == float(np.mean(per_acc))


class TestStackedGateSide:
    """FedMix forwards each stack's test gates once, and every client gets bit
    for bit the scores of `gating.gate_scores` of its own gate on its own rows
    of the test embeddings. FedJETs forwards its gate once, on all of them,
    and each client's route equals its own forward's."""

    @pytest.mark.parametrize("stack_rows", [1024, 9])
    @pytest.mark.parametrize("method", ["fedjets", "fedmix"])
    def test_stacked_gate_scores_equal_per_client(self, trained, monkeypatch, method, stack_rows):
        ctx, states = trained
        monkeypatch.setattr(runtime, "STACK_ROWS", stack_rows)
        ctx = uneven_overlapping_shards(ctx)
        stacks = evaluation.client_stacks(ctx.test_shards, ctx.test_ds)
        sizes = Counter(len(s) for s in ctx.test_shards)
        assert max(sizes.values()) > 1  # some stack holds more than one client ...
        assert len(stacks) == (len(sizes) if stack_rows == 1024 else len(sizes) + 2)  # ... or is cut in two
        calls, forward = [], nn.forward

        def spy(*args):
            calls.append((args, forward(*args)))
            return calls[-1][1]

        monkeypatch.setattr(nn, "forward", spy)
        evaluation.score_test_clients(ctx, states[method], method)
        gate_calls = [(a, out) for a, out in calls if a[0] == ctx.gate_spec]
        if method == "fedjets":
            gate = states[method].gate_params
            [((_, values, emb), scores)] = gate_calls
            assert values is gate.values and emb is ctx.test_embeddings
            for stack in stacks:
                for shard, rows in zip(stack.shards, stack.rows):
                    own = gating.route(gating.gate_scores(gate, ctx.test_embeddings[rows]), ctx.cfg.federation.top_k)
                    got = gating.route(scores[rows], ctx.cfg.federation.top_k)
                    assert all(np.array_equal(a, b) for a, b in zip(got, own)), shard.client_id
            return
        assert len(gate_calls) == len(stacks)
        assert [s.shards for s in ctx.test_stacks] == [s.shards for s in stacks]
        for stack, ((_, _, emb), scores) in zip(ctx.test_stacks, gate_calls):
            assert emb.shape[:2] == stack.rows.shape and scores.shape[:2] == stack.rows.shape
            kept = stack.fedmix_weights  # [M, T, n]
            assert kept.shape == (ctx.cfg.federation.num_experts, *stack.rows.shape) and kept.flags.c_contiguous
            for t, (shard, row) in enumerate(zip(stack.shards, scores)):
                cid = shard.client_id
                gate = nn.init_params(ctx.gate_spec, rng_stream(ctx.cfg.seed, "fedmix-test-gate", cid))
                assert np.array_equal(row, gating.gate_scores(gate, ctx.test_embeddings[shard.indices])), cid
                assert np.array_equal(kept[:, t].T, row), cid

    @pytest.mark.parametrize("logits_from", ["trained", "tied"])
    @pytest.mark.parametrize("stack_rows", [1024, 9])
    def test_class_major_fedmix_labels_equal_expert_order_reference(
        self, trained, monkeypatch, stack_rows, logits_from
    ):
        # gathering `[T, n, C]` logits and summing the weighted experts in expert order gives the same labels;
        # a tie goes to the lowest class, as `argmax(axis=0)` of the class-major mix gives it
        ctx, states = trained
        monkeypatch.setattr(runtime, "STACK_ROWS", stack_rows)
        ctx = uneven_overlapping_shards(ctx)
        state = states["fedmix"]
        logits, labels = evaluation.expert_outputs(state.expert_params, ctx.test_ds.inputs)
        if logits_from == "tied":  # 0/1 logits: two classes with equal logits under every expert tie in the mix
            r = rng_stream(7, "tied-logits")
            logits = [r.integers(0, 2, size=out.shape).astype(np.float64) for out in logits]
        predict = evaluation.client_predictor(ctx, state, "fedmix", logits, labels)
        stacks = evaluation.client_stacks(ctx.test_shards, ctx.test_ds)
        ties = 0
        for stack in stacks:
            got, route = predict(stack)
            weights = stack.fedmix_weights.transpose(1, 2, 0)  # [T, n, M], drawn by the prediction
            idx = stack.rows
            combined = weights[..., 0:1] * logits[0][idx]
            for k in range(1, len(logits)):
                combined = combined + weights[..., k : k + 1] * logits[k][idx]
            assert route is None and got.shape == idx.shape
            assert np.array_equal(got, combined.argmax(axis=-1))
            mix = combined.reshape(-1, combined.shape[-1]).T  # [C, T*n]
            assert np.array_equal(got.reshape(-1), mix.argmax(axis=0))
            ties += int(((mix == mix.max(axis=0)).sum(axis=0) > 1).sum())
        assert ties > 0 or logits_from == "trained"
        flat = [nn.ParamVector(np.zeros_like(p.values), p.spec) for p in state.expert_params]  # every class ties
        outputs = evaluation.expert_outputs(flat, ctx.test_ds.inputs)
        predict = evaluation.client_predictor(ctx, runtime.ServerState(flat, None), "fedmix", *outputs)
        assert all(not predict(stack)[0].any() for stack in stacks)


def fedmix_weights_by_client(ctx):
    """Each test client's `[n, M]` FedMix gate weights, read from the context's `[M, T, n]` stacks."""
    return {s.client_id: st.fedmix_weights[:, t].T for st in ctx.test_stacks for t, s in enumerate(st.shards)}


class TestFedMixTestGates:
    def test_drawn_once_per_run_context(self, monkeypatch):
        drawn = []
        init_params = nn.init_params
        monkeypatch.setattr(nn, "init_params", lambda spec, rng: drawn.append(spec) or init_params(spec, rng))
        ctx = experiment.build_context(mini_cfg())
        assert ctx.test_stacks is None and ctx.gate_spec not in drawn
        state = baselines.make_stepper(ctx, "fedmix")[0]
        drawn.clear()
        first = evaluation.evaluate_round(ctx, state, "fedmix", 1, 0.0, 0.0)
        assert drawn == [ctx.gate_spec] * len(ctx.test_shards)
        drawn.clear()
        weights = [s.fedmix_weights for s in ctx.test_stacks]
        assert evaluation.evaluate_round(ctx, state, "fedmix", 1, 0.0, 0.0) == first
        assert drawn == [] and all(s.fedmix_weights is w for s, w in zip(ctx.test_stacks, weights, strict=True))

        def own_forwards(c):
            """Each test client's stream-drawn gate forwarded alone on its rows of the test embeddings."""
            return {
                s.client_id: nn.forward(
                    c.gate_spec,
                    init_params(c.gate_spec, rng_stream(c.cfg.seed, "fedmix-test-gate", s.client_id)).values,
                    c.test_embeddings[s.indices],
                )
                for s in c.test_shards
            }

        want = own_forwards(ctx)
        got = fedmix_weights_by_client(ctx)
        assert sorted(got) == sorted(want)
        assert all(np.array_equal(got[cid], w) for cid, w in want.items())
        # a replaced context, here with a changed cfg, draws again, from its own seed's streams
        other = dataclasses.replace(ctx, cfg=mini_cfg(seed=6))
        assert other.test_stacks is None
        evaluation.evaluate_round(other, state, "fedmix", 1, 0.0, 0.0)
        assert drawn == [ctx.gate_spec] * len(ctx.test_shards)
        want6 = own_forwards(other)
        got6 = fedmix_weights_by_client(other)
        assert sorted(got6) == sorted(want6)
        assert all(np.array_equal(got6[cid], w) for cid, w in want6.items())
        assert not any(np.array_equal(want[cid], want6[cid]) for cid in want)
        assert all(s.fedmix_weights is w for s, w in zip(ctx.test_stacks, weights))  # the first context keeps its own


@pytest.fixture(scope="module")
def synth10():
    """The synth-10 context with 100 unseen test clients and every method's state after 2 rounds."""
    ctx = experiment.build_context(benchmarks.synth10_config(data={"num_test_clients": 100}, federation={"rounds": 2}))
    states = {}
    for method in METHODS:
        state, step = baselines.make_stepper(ctx, method)
        for t in range(ctx.cfg.federation.rounds):
            state, _ = step(state, t)
        states[method] = state
    return ctx, states


def eval_report(scores, method: str, seed: int, round_idx: int) -> tuple[str, str | None]:
    """The text of `fedjets eval`'s report and routing CSV, built from a pass's views by client id."""
    report = {"method": method, "seed": seed, "round": round_idx, "global_accuracy": scores.global_acc}
    csv = None
    if scores.selections is not None:
        report["zero_shot"] = {
            "average_accuracy": scores.global_acc,
            "per_client": {
                str(cid): {
                    "accuracy": acc,
                    "selected_experts": list(scores.selections[cid]),
                    "chosen_expert_per_sample": scores.chosen_experts[cid].tolist(),
                }
                for cid, acc in scores.per_client_accuracy.items()
            },
        }
        report["routing"] = None
        if scores.routing is not None:
            report["routing"] = {"average_error_rate": scores.routing.average_error_rate, "rows": scores.routing.rows}
            csv = scores.routing.to_csv()
    return json.dumps(report, indent=2, sort_keys=True) + "\n", csv


class TestClientOrderedPass:
    """The pass fills arrays in client order and derives the views by client
    id on read: every view, the mean accuracy and the routing average equal
    those of the pass that built per-client dicts and sorted them, exactly."""

    @pytest.mark.parametrize("shards", ["synth10-100", "uneven-cut"])
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_the_dict_building_pass(self, synth10, trained, monkeypatch, method, shards):
        if shards == "synth10-100":
            ctx, states = synth10
            ctx = dataclasses.replace(ctx)
            assert len(ctx.test_shards) == 100
        else:  # 9 clients of 6 sizes: the stacks go by size, not by client id, and the size-23 pair is cut in two
            monkeypatch.setattr(runtime, "STACK_ROWS", 30)
            ctx, states = trained
            ctx = uneven_overlapping_shards(ctx)
        state = states[method]
        got = evaluation.score_test_clients(ctx, state, method)
        if shards == "uneven-cut":
            order = [s.client_id for stack in ctx.test_stacks for s in stack.shards]
            assert order != sorted(order)
            assert Counter(stack.rows.shape[1] for stack in ctx.test_stacks)[23] == 2
        want = dict_scoring_pass(dataclasses.replace(ctx), state, method)
        assert got.global_acc == want.global_acc
        assert list(got.per_client_accuracy.items()) == list(want.per_client_accuracy.items())
        if method != "fedjets":
            assert got.selections is got.chosen_experts is got.routing is want.routing is None
        else:
            assert list(got.selections.items()) == list(want.selections.items())
            assert list(got.chosen_experts) == list(want.chosen_experts)
            assert all(np.array_equal(got.chosen_experts[cid], c) for cid, c in want.chosen_experts.items())
            assert want.routing is not None
            assert got.average_error_rate == got.routing.average_error_rate == want.routing.average_error_rate
            assert got.routing.rows == want.routing.rows
            assert got.routing.to_csv() == want.routing.to_csv()
        record = evaluation.evaluate_round(ctx, state, method, 7, 11.0, 13.0)
        per_expert = (evaluation.expert_outputs(state.expert_params, ctx.test_ds.inputs)[1] == ctx.test_ds.labels)
        routing_acc = None if want.routing is None else 1.0 - want.routing.average_error_rate
        want_record = MetricsRecord(7, method, want.global_acc, per_expert.mean(axis=1).tolist(), routing_acc, 11.0, 13.0)
        assert record.to_json_line() == want_record.to_json_line()

    def test_evaluate_round_builds_no_per_client_view(self, synth10, monkeypatch):
        ctx, states = synth10
        ctx = dataclasses.replace(ctx)
        built, read, passes, RoutingReport = [], [], [], evaluation.RoutingReport
        monkeypatch.setattr(evaluation, "RoutingReport", lambda *args: built.append(args))
        for name in ("shards", "per_client_accuracy", "selections", "chosen_experts", "routing"):
            monkeypatch.setattr(evaluation.ScoringPass, name, property(lambda p, name=name: read.append(name)))
        score = evaluation.score_test_clients
        monkeypatch.setattr(evaluation, "score_test_clients", lambda *args: passes.append(score(*args)) or passes[-1])
        records = {m: evaluation.evaluate_round(ctx, states[m], m, 2, 0.0, 0.0) for m in METHODS}
        assert records["fedjets"].routing_acc is not None
        assert built == [] and read == [] and len(passes) == len(METHODS)
        for p in passes:  # nothing keyed by client: the pass holds arrays, the stacks and floats
            assert not any(isinstance(v, (dict, RoutingReport)) for v in vars(p).values())

    def test_eval_writes_the_dict_building_report(self, tmp_path):
        cfg = benchmarks.synth10_config(data={"num_test_clients": 100}, federation={"rounds": 2})
        out = tmp_path / "run"
        experiment.run_to_directory(cfg, out)
        report = tmp_path / "eval.json"
        argv = ["eval", "--config", str(out / "config.echo.json"), "--state", str(out / "state.ckpt")]
        assert cli.main([*argv, "--report", str(report)]) == 0
        state, _ = experiment.load_run_state(out / "state.ckpt")
        want = dict_scoring_pass(experiment.build_context(cfg), state, "fedjets")
        text, csv = eval_report(want, "fedjets", cfg.seed, state.round)
        assert csv is not None
        assert report.read_text() == text
        assert report.with_suffix(".routing.csv").read_text() == csv

"""Common-expert embeddings, gate scoring, top-K selection, and the
reference anchor loss."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    central_diff,
    gate_independent_loss_grad,
    loss_value,
    min_hidden_preact,
    rel_error,
    row_wise_route,
    topk_ids,
)
from fedjets import benchmarks, data, experiment, gating, nn
from fedjets.errors import ConfigError, NumericError
from fedjets.seeding import rng_stream


def identity_common(dim):
    spec = nn.NetSpec.mlp([dim, dim])
    params = nn.ParamVector(np.concatenate([np.eye(dim).ravel(), np.zeros(dim)]), spec)
    return gating.CommonExpert(params, embed_layer=0)


def random_common(seed, dims, embed_layer=None):
    spec = nn.NetSpec.mlp(dims)
    params = nn.init_params(spec, rng_stream(seed, "common"))
    return gating.CommonExpert.from_net(params, embed_layer)


def random_gate(seed, embed_dim, m, hidden=None):
    spec = gating.gate_spec(embed_dim, m, hidden)
    return nn.init_params(spec, rng_stream(seed, "gate"))


def zero_gate(embed_dim, m):
    spec = gating.gate_spec(embed_dim, m)
    return nn.ParamVector(np.zeros(spec.param_count()), spec)


def synth10_context(seed, partition):
    return experiment.build_context(benchmarks.synth10_config(seed=seed, data={"partition_strategy": partition}))


class TestEmbedding:
    def test_identity_net_embeds_raw_inputs(self, rng):
        common = identity_common(5)
        ds = data.synth_dataset(3, 5, 10, 2.0, 1)
        shard = data.partition_quantity(ds, 1, 3, 0)[0]
        emb = gating.embed_inputs(common, ds.inputs)  # the whole set, as a run context embeds it
        assert np.array_equal(emb[shard.indices], ds.inputs[shard.indices])
        assert np.array_equal(emb, ds.inputs)

    def test_repeated_call_identical(self):
        common = random_common(2, [6, 8, 8, 4])
        ds = data.synth_dataset(4, 6, 10, 2.0, 2)
        a = gating.embed_inputs(common, ds.inputs)
        b = gating.embed_inputs(common, ds.inputs)
        assert np.array_equal(a, b)

    def test_matches_truncated_forward_oracle(self, rng):
        common = random_common(3, [6, 8, 7, 4])  # penultimate: layer 1, width 7
        assert common.embed_layer == 1 and common.embed_dim == 7
        x = rng.normal(size=(9, 6))
        (w0, b0), (w1, b1), _ = nn.unpack(common.params.spec, common.params.values)
        manual = np.maximum(np.maximum(x @ w0 + b0, 0.0) @ w1 + b1, 0.0)
        assert np.max(np.abs(gating.embed_inputs(common, x) - manual)) < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        common = random_common(4, [6, 8, 4])
        with pytest.raises(ConfigError):
            gating.embed_inputs(common, rng.normal(size=(3, 5)))

    def test_training_set_embedding_covers_every_row(self):
        # one row per training sample, in a shard or not, so every shard reads its rows
        ctx = synth10_context(1, "quantity")
        assert ctx.train_embeddings.shape == (len(ctx.train_ds.labels), ctx.common.embed_dim)
        for s in ctx.anchor_shards + ctx.normal_shards:
            assert ctx.train_embeddings[s.indices].shape == (len(s), ctx.common.embed_dim)


class TestWholeSetTolerance:
    """A training client's rows of the one training-set embedding against the
    client's own forward: equal bit for bit on synth-10's quantity partition;
    within 1e-12 on its Dirichlet one, whose one-row client embedded alone is a
    matrix-vector product and in the whole set one row of a matrix product."""

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_quantity_clients_read_their_own_forward_bit_for_bit(self, seed):
        ctx = synth10_context(seed, "quantity")
        for s in ctx.anchor_shards + ctx.normal_shards:
            own = gating.embed_inputs(ctx.common, ctx.train_ds.inputs[s.indices])
            assert np.array_equal(ctx.train_embeddings[s.indices], own), f"client {s.client_id}"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dirichlet_clients_agree_within_1e_12(self, seed):
        ctx = synth10_context(seed, "dirichlet")
        assert min(len(s) for s in ctx.normal_shards) == 1  # the gemv case is present
        for s in ctx.anchor_shards + ctx.normal_shards:
            own = gating.embed_inputs(ctx.common, ctx.train_ds.inputs[s.indices])
            assert np.max(np.abs(ctx.train_embeddings[s.indices] - own)) <= 1e-12, f"client {s.client_id}"


class TestGateScores:
    def test_zero_params_uniform(self, rng):
        gate = zero_gate(6, 5)
        scores = gating.gate_scores(gate, rng.normal(size=(7, 6)))
        assert np.max(np.abs(scores - 0.2)) < 1e-12

    def test_rows_sum_to_one(self, rng):
        gate = random_gate(6, 6, 4)
        scores = gating.gate_scores(gate, rng.normal(size=(11, 6)))
        assert np.max(np.abs(scores.sum(axis=1) - 1.0)) < 1e-9

    def test_matches_forward_softmax_composition(self, rng):
        gate = random_gate(7, 6, 4)
        x = rng.normal(size=(5, 6))
        plain_spec = nn.NetSpec.mlp(gate.spec.layer_dims)  # same net, logits head
        plain = nn.ParamVector(gate.values.copy(), plain_spec)
        oracle = nn.softmax(nn.forward(plain_spec, plain.values, x))
        assert np.max(np.abs(gating.gate_scores(gate, x) - oracle)) < 1e-12

    def test_gate_requires_softmax_head(self):
        spec = nn.NetSpec.mlp([6, 8, 4])
        with pytest.raises(ConfigError):
            gating.gate_scores(nn.ParamVector(np.zeros(spec.param_count()), spec), np.zeros((2, 6)))


class TestSelectTopK:
    def test_uniform_scores_tie_break_lowest_indices(self, rng):
        gate = zero_gate(6, 5)
        sel = topk_ids(gating.gate_scores(gate, rng.normal(size=(10, 6))), 2)
        assert sel == (0, 1)

    def test_dominant_expert_always_selected(self):
        # craft embeddings whose gate scores put ~0.9 on expert 3
        rng = rng_stream(12, "dom")
        gate = random_gate(12, 6, 5)
        best = None
        for _ in range(500):
            x = rng.normal(size=(1, 6)) * 3
            s = gating.gate_scores(gate, x)[0]
            if best is None or s[3] > best[1]:
                best = (x, s[3])
            if s[3] > 0.9:
                break
        x, score = best
        assert score > 0.5, "could not craft a dominant-expert embedding"
        emb = np.repeat(x, 8, axis=0)
        sel = topk_ids(gating.gate_scores(gate, emb), 2)
        # brute-force oracle: column sums sorted
        agg = gating.gate_scores(gate, emb).sum(axis=0)
        order = sorted(range(5), key=lambda i: (-agg[i], i))
        assert sel == tuple(sorted(order[:2]))
        assert 3 in sel

    def test_k_equals_m_selects_all(self, rng):
        gate = random_gate(13, 6, 4)
        sel = topk_ids(gating.gate_scores(gate, rng.normal(size=(6, 6))), 4)
        assert sel == (0, 1, 2, 3)

    def test_k_out_of_range(self, rng):
        gate = random_gate(14, 6, 4)
        with pytest.raises(ConfigError):
            topk_ids(gating.gate_scores(gate, rng.normal(size=(6, 6))), 5)

    def test_permuting_expert_columns_permutes_selection(self, rng):
        gate = random_gate(15, 6, 5)
        emb = rng.normal(size=(12, 6))
        sel = topk_ids(gating.gate_scores(gate, emb), 2)
        perm = np.array([3, 0, 4, 1, 2])  # expert i -> position perm[i]
        permuted_values = gate.values.copy()
        for out in nn.unpack(gate.spec, permuted_values)[-1]:  # the head's views: weights, then bias
            out[..., perm] = out.copy()
        gate_p = nn.ParamVector(permuted_values, gate.spec)
        sel_p = topk_ids(gating.gate_scores(gate_p, emb), 2)
        assert sel_p == tuple(sorted(int(perm[i]) for i in sel))

    def test_same_inputs_same_selection(self, rng):
        gate = random_gate(16, 6, 5)
        emb = rng.normal(size=(9, 6))
        a = topk_ids(gating.gate_scores(gate, emb), 3)
        b = topk_ids(gating.gate_scores(gate, emb), 3)
        assert a == b


def lexsort_route(scores: np.ndarray, k: int):
    """One client's route by the per-client rule `gating.route` replaced: a
    lexsort on (descending column sum, ascending id), then each sample's
    argmax among the selected columns."""
    order = np.lexsort((np.arange(scores.shape[1]), -scores.sum(axis=0)))
    cols = np.array(sorted(order[:k].tolist()), dtype=np.int64)
    return cols, cols[scores[:, cols].argmax(axis=1)]


class TestStackedRoute:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stack_equals_per_client_lexsort(self, data_):
        t, n, m = (data_.draw(st.integers(1, hi)) for hi in (4, 6, 5))
        k = data_.draw(st.integers(1, m))
        # few distinct values, so exact column-sum ties are common
        values = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0 / 3.0])
        scores = data_.draw(hnp.arrays(np.float64, (t, n, m), elements=values))
        experts, chosen = gating.route(scores, k)
        assert experts.shape == (t, k) and chosen.shape == (t, n)
        for b in range(t):
            want_experts, want_chosen = lexsort_route(scores[b], k)
            assert np.array_equal(experts[b], want_experts)
            assert np.array_equal(chosen[b], want_chosen)
            assert topk_ids(scores[b], k) == tuple(want_experts.tolist())

    @pytest.mark.parametrize("lead", [(1,), (7,), (66,), (1, 1), (3, 7), (62, 66)], ids=str)
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_equals_the_row_wise_rule(self, m, lead):
        # scores rounded to 0.1: the sums depend on their order, and samples and sums tie often
        for trial in range(4):
            scores = np.round(rng_stream(trial, "tied-scores", m, *lead).dirichlet(np.ones(m), size=lead), 1)
            for k in range(1, m + 1):
                got, want = gating.route(scores, k), row_wise_route(scores, k)
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (trial, k)

    def test_stacked_scores_out_of_range_k(self):
        with pytest.raises(ConfigError, match="top_k 4 out of range for 3 experts"):
            gating.route(np.full((2, 5, 3), 1.0 / 3.0), 4)


def test_overflowing_gate_scores_name_the_output():
    spec = gating.gate_spec(2, 3)
    gate = nn.ParamVector(np.full(spec.param_count(), 1e200), spec)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as err:
            gating.gate_scores(gate, np.ones((4, 2)))
    assert (err.value.message, err.value.context, err.value.layer) == ("non-finite network output", "forward", None)


class TestIndependentLoss:
    def test_saturated_gate_small_loss_and_gradient(self, rng):
        spec = gating.gate_spec(6, 5)
        values = np.zeros(spec.param_count())
        values[-5:] = [0.0, 0.0, 0.0, 50.0, 0.0]  # output bias pins expert 3
        gate = nn.ParamVector(values, spec)
        emb = rng.normal(size=(10, 6))
        loss, grad = gate_independent_loss_grad(gate, emb, 3)
        assert loss < 1e-6
        assert np.linalg.norm(grad) < 1e-6

    def test_zero_params_loss_is_log_m(self, rng):
        gate = zero_gate(6, 5)
        loss, _ = gate_independent_loss_grad(gate, rng.normal(size=(8, 6)), 2)
        assert abs(loss - np.log(5)) < 1e-12

    def test_gradient_matches_central_differences(self):
        for seed in range(3):
            for attempt in range(100):
                r = rng_stream(seed, "fd-gate", attempt)
                gate = random_gate(int(r.integers(1 << 30)), 5, 4, hidden=6)
                emb = r.normal(size=(5, 5))
                if min_hidden_preact(gate.spec, gate, emb) >= 0.05:
                    break
            loss, grad = gate_independent_loss_grad(gate, emb, 1)
            labels = np.full(5, 1, dtype=np.int64)
            fd = central_diff(lambda v: loss_value(gate.spec, nn.ParamVector(v, gate.spec), emb, labels), gate.values)
            assert rel_error(grad, fd) < 1e-4

    def test_expert_index_validated(self, rng):
        gate = random_gate(18, 6, 4)
        with pytest.raises(ConfigError):
            gate_independent_loss_grad(gate, rng.normal(size=(3, 6)), 4)

    def test_training_strictly_decreases_loss(self):
        # 50 full-batch steps at lr 0.001 on a fixed shard, several seeds
        for seed in [0, 1, 2]:
            r = rng_stream(seed, "gate-train")
            gate = random_gate(seed + 40, 6, 5)
            emb = r.normal(size=(30, 6))
            velocity = np.zeros_like(gate.values)
            prev = None
            for _ in range(50):
                loss, grad = gate_independent_loss_grad(gate, emb, seed % 5)
                if prev is not None:
                    assert loss < prev
                prev = loss
                nn.sgdm_step(gate.values, velocity, grad, 0.001, 0.0)

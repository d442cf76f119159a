"""Dense-net engine: forward, softmax, cross-entropy, backprop, mixture,
SGDM, and the checkpoint format."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    ce_grad,
    central_diff,
    cross_entropy,
    kink_safe_net,
    loss_value,
    mixture_forward,
    one_hot,
    rel_error,
)
from fedjets import benchmarks, central, checkpoint, data, experiment, nn, runtime
from fedjets.errors import ArtifactError, ConfigError, NumericError
from fedjets.seeding import rng_stream


def make_net(seed, dims, head="logits"):
    spec = nn.NetSpec.mlp(dims, head=head)
    return spec, nn.init_params(spec, rng_stream(seed, "net"))


class TestNetSpec:
    def test_rejects_single_dim(self):
        with pytest.raises(ConfigError):
            nn.NetSpec.mlp([4])

    def test_rejects_zero_dim(self):
        with pytest.raises(ConfigError):
            nn.NetSpec.mlp([4, 0, 2])

    def test_param_count(self):
        spec = nn.NetSpec.mlp([3, 5, 2])
        assert spec.param_count() == 3 * 5 + 5 + 5 * 2 + 2

    def test_activation_arity_checked(self):
        with pytest.raises(ConfigError):
            nn.NetSpec((4, 3, 2), ("relu", "relu"))

    def test_equal_dicts_give_one_shared_spec(self):
        d = {"layer_dims": [7, 9, 3], "activations": ["relu"], "head": "softmax"}
        spec = nn.NetSpec.from_dict(d)
        assert nn.NetSpec.from_dict(dict(d, layer_dims=[7, 9, 3])) is spec
        assert nn.NetSpec.from_dict(spec.to_dict()) is spec
        assert spec == nn.NetSpec.mlp([7, 9, 3], head="softmax") and spec.param_count() == 7 * 9 + 9 + 9 * 3 + 3

    @pytest.mark.parametrize("change", [{"head": "logits"}, {"layer_dims": [7, 9, 4]}, {"activations": ["identity"]}])
    def test_another_architecture_gives_another_spec(self, change):
        d = {"layer_dims": [7, 9, 3], "activations": ["relu"], "head": "softmax"}
        other = nn.NetSpec.from_dict(dict(d, **change))
        assert other is not nn.NetSpec.from_dict(d) and other != nn.NetSpec.from_dict(d)
        assert other.to_dict() == dict(d, **change)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"layer_dims": [True, 2]}, "layer_dims must be a list of ints, got [True, 2]"),
            ({"layer_dims": [1.0, 2]}, "layer_dims must be a list of ints, got [1.0, 2]"),
            ({"head": 1}, "activations and head must be strings, got [] and 1"),
            ({"head": None}, "net spec dict missing key 'head'"),
            ({"head": "probs"}, "unknown output head 'probs'"),
        ],
        ids=["bool-dim", "float-dim", "int-head", "missing-head", "unknown-head"],
    )
    def test_strict_rejections_outlast_a_shared_spec(self, change, message):
        # the int spec that each input equals as a cache key is shared first
        d = {"layer_dims": [1, 2], "activations": [], "head": "logits"}
        assert nn.NetSpec.from_dict(d) is nn.NetSpec.from_dict(dict(d))
        bad = {key: value for key, value in dict(d, **change).items() if value is not None}
        for _ in range(2):
            with pytest.raises(ConfigError) as err:
                nn.NetSpec.from_dict(bad)
            assert str(err.value) == message

    def test_experts_of_a_loaded_state_share_one_spec(self, tmp_path):
        ctx = experiment.build_context(benchmarks.synth10_config())
        state = runtime.init_server_state(ctx)
        experiment.save_run_state(tmp_path / "state.ckpt", state, ctx.cfg)
        loaded, _ = experiment.load_run_state(tmp_path / "state.ckpt")
        again, _ = experiment.load_run_state(tmp_path / "state.ckpt")
        experts = loaded.expert_params + again.expert_params
        assert len(experts) == 2 * state.num_experts and all(p.spec is experts[0].spec for p in experts)
        assert experts[0].spec == ctx.expert_spec and again.gate_params.spec is loaded.gate_params.spec


class TestParamVector:
    def test_construction_checks_shape_length_and_finiteness(self):
        spec = nn.NetSpec.mlp([3, 2])  # 8 parameters
        with pytest.raises(ConfigError):
            nn.ParamVector(np.zeros((2, 4)), spec)
        with pytest.raises(ConfigError):
            nn.ParamVector(np.zeros(7), spec)
        with pytest.raises(NumericError):
            nn.ParamVector(np.full(8, np.nan), spec)
        assert nn.ParamVector(np.zeros(8), spec).spec is spec

    def test_engine_rejects_params_of_another_spec(self, rng):
        spec = nn.NetSpec.mlp([3, 4, 2])
        params = nn.init_params(nn.NetSpec.mlp([3, 5, 2]), rng)  # rows of another length
        with pytest.raises(ConfigError):
            nn.forward(spec, params.values, rng.normal(size=(2, 3)))


class TestForward:
    def test_identity_net_returns_inputs(self):
        # one linear layer, weights = identity, zero bias
        spec = nn.NetSpec.mlp([3, 3])
        params = nn.ParamVector(
            np.concatenate([np.eye(3).ravel(), np.zeros(3)]), spec
        )
        x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        assert np.array_equal(nn.forward(spec, params.values, x), x)

    def test_zero_params_zero_logits(self, rng):
        spec = nn.NetSpec.mlp([4, 6, 3])
        params = nn.ParamVector(np.zeros(spec.param_count()), spec)
        x = rng.normal(size=(5, 4))
        assert np.all(nn.forward(spec, params.values, x) == 0.0)

    def test_matches_hand_rolled_two_layer(self, rng):
        spec, params = make_net(7, [4, 6, 3])
        x = rng.normal(size=(8, 4))
        (w0, b0), (w1, b1) = nn.unpack(spec, params.values)
        manual = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
        assert np.max(np.abs(nn.forward(spec, params.values, x) - manual)) < 1e-6

    def test_dimension_mismatch_is_config_error(self, rng):
        spec, params = make_net(7, [4, 6, 3])
        with pytest.raises(ConfigError):
            nn.forward(spec, params.values, rng.normal(size=(5, 3)))

    @pytest.mark.parametrize("rows", [(7,), (2, 9)])
    def test_unpack_checks_the_row_length(self, rows):
        spec = nn.NetSpec.mlp([4, 6, 3])
        with pytest.raises(ConfigError, match=r"parameter rows .* do not match spec \(51,\)"):
            nn.unpack(spec, np.zeros(rows))

    @pytest.mark.parametrize("stack", [None, 3])
    def test_layer_views_share_the_rows(self, stack):
        # an in-place step on the rows shows in views bound before it
        spec = nn.NetSpec.mlp([4, 6, 3])
        values = rng_stream(4, "views").normal(size=(stack or 1, spec.param_count()))
        values = values if stack else values[0]
        layers = nn.unpack(spec, values)
        nn.sgdm_step(values, np.zeros_like(values), np.ones_like(values), 0.5, 0.0)
        fresh = nn.unpack(spec, values)
        assert all(np.shares_memory(part, values) for w, b in layers for part in (w, b))
        assert [(w.tobytes(), b.tobytes()) for w, b in layers] == [(w.tobytes(), b.tobytes()) for w, b in fresh]

    @pytest.mark.parametrize("stack", [None, 3])
    def test_softmax_head_is_the_softmax_of_the_pre_head_output(self, stack):
        # the head is written in place over the top activation; the oracle computes that output itself
        spec = nn.NetSpec.mlp([4, 6, 5, 3], head="softmax")
        r = rng_stream(5, "softmax-head")
        values = r.normal(size=(stack or 1, spec.param_count()))
        x = r.normal(size=(stack or 1, 7, 4))
        values, x = (values, x) if stack else (values[0], x[0])
        h = x
        for l, (w, b) in enumerate(nn.unpack(spec, values)):
            h = h @ w + b
            if l < spec.num_layers - 1:
                h = np.maximum(h, 0.0)
        out, trace = nn.forward_with_trace(spec, nn.unpack(spec, values), x)
        assert out.tobytes() == nn.softmax(h).tobytes()
        assert out is trace.acts[-1]

    def test_deterministic(self, rng):
        spec, params = make_net(3, [4, 5, 3])
        x = rng.normal(size=(6, 4))
        assert np.array_equal(nn.forward(spec, params.values, x), nn.forward(spec, params.values, x))

    @pytest.mark.parametrize("head", ["logits", "softmax"])
    def test_output_overflow_names_the_output(self, head):
        # finite parameters whose logits overflow to inf (the softmax head then gives NaN)
        spec = nn.NetSpec.mlp([2, 3, 2], head=head)
        params = nn.ParamVector(np.full(spec.param_count(), 1e200), spec)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as err:
                nn.forward(spec, params.values, np.ones((1, 2)))
        assert (err.value.message, err.value.context, err.value.layer) == ("non-finite network output", "forward", None)


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.allclose(nn.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_large_logits_no_overflow(self):
        out = nn.softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 0.999999 and out[0, 1] < 1e-6

    def test_matches_exp_sum_oracle(self, rng):
        z = rng.normal(size=5)
        expect = np.exp(z) / np.exp(z).sum()
        assert np.max(np.abs(nn.softmax(z[None, :]) - expect)) < 1e-9

    @pytest.mark.parametrize("lead", [(6,), (1000,), (3, 6), (10, 36)], ids=str)
    @pytest.mark.parametrize("c", [1, 2, 5, 10])
    def test_bit_for_bit_the_row_max_formula(self, c, lead):
        r = rng_stream(c, "softmax-ties", *lead)
        tied = np.round(r.normal(size=(*lead, c)), 0)  # rows whose max ties
        zeros = np.where(r.random((*lead, c)) < 0.5, -0.0, 0.0)
        huge = r.choice([-1e300, -1e30, 0.0, 1e30, 1e300], size=(*lead, c))
        for z in (tied, zeros, huge):
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            assert nn.softmax(z).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()

    def test_rows_sum_to_one_and_shift_invariant(self, rng):
        for trial in range(25):
            z = rng_stream(trial, "sm").normal(size=(4, 7)) * 10
            p = nn.softmax(z)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
            shifted = nn.softmax(z + rng_stream(trial, "shift").normal() * 5)
            assert np.max(np.abs(p - shifted)) < 1e-9
            assert np.all(p > 0.0) and np.all(p < 1.0)


@pytest.mark.parametrize("rows", [1, 2, 5, 10, 300])
def test_first_argmax_is_the_leading_axis_argmax(rows):
    r = rng_stream(rows, "first-argmax")
    for a in (np.round(r.normal(size=(rows, 40)), 0), r.choice([-np.inf, -0.0, 0.0, np.inf], size=(rows, 3, 8))):
        got = nn.first_argmax(a)
        assert got.dtype == np.intp and np.array_equal(got, a.argmax(axis=0))


class TestCrossEntropy:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(4)[[0, 2, 3]]
        assert cross_entropy(probs, np.array([0, 2, 3])) == 0.0

    def test_uniform_is_log_c(self):
        probs = np.full((6, 4), 0.25)
        labels = np.array([0, 1, 2, 3, 0, 1])
        assert abs(cross_entropy(probs, labels) - np.log(4)) < 1e-12

    def test_matches_direct_sum_oracle(self, rng):
        raw = rng.uniform(0.01, 1.0, size=(5, 6))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 6, size=5)
        manual = -sum(np.log(probs[i, labels[i]]) for i in range(5)) / 5
        assert abs(cross_entropy(probs, labels) - manual) < 1e-12

    def test_clamp_keeps_loss_finite(self):
        probs = np.array([[1.0, 0.0]])
        assert np.isfinite(cross_entropy(probs, np.array([1])))


class TestBackward:
    def test_zero_weight_linear_net_bias_gradient(self):
        # zero net -> uniform softmax; dL/db = mean(p - onehot)
        spec = nn.NetSpec.mlp([3, 4])
        params = nn.ParamVector(np.zeros(spec.param_count()), spec)
        x = np.array([[1.0, 2.0, -1.0], [-1.0, -2.0, 1.0]])  # symmetric batch
        labels = np.array([0, 1])
        grad = ce_grad(spec, params, x, labels, "ce_on_logits")
        _, bias_grad = nn.unpack(spec, grad)[0]
        onehot = np.eye(4)[labels]
        expect = (np.full((2, 4), 0.25) - onehot).mean(axis=0)
        assert np.max(np.abs(bias_grad - expect)) < 1e-12
        fd = central_diff(
            lambda v: loss_value(spec, nn.ParamVector(v, params.spec), x, labels),
            params.values,
        )
        assert rel_error(grad, fd) < 1e-4

    def test_gradient_near_zero_at_minimum(self):
        # hugely confident correct logits: loss and gradient both ~ 0
        spec = nn.NetSpec.mlp([2, 2])
        params = nn.ParamVector(
            np.concatenate([np.array([[40.0, -40.0], [-40.0, 40.0]]).ravel(), np.zeros(2)]),
            spec,
        )
        grad = ce_grad(spec, params, np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), "ce_on_logits")
        assert np.linalg.norm(grad) < 1e-8

    @pytest.mark.parametrize("kind,head", [("ce_on_logits", "logits"), ("ce_on_mixture", "softmax")])
    def test_matches_central_differences(self, kind, head):
        # relu kinks would invalidate the h=1e-4 stencil; nets are drawn
        # kink-safe (see conftest)
        for seed in range(4):
            spec, params, x, y = kink_safe_net(seed, [5, 8, 4], head=head)
            grad = ce_grad(spec, params, x, y, kind)
            fd = central_diff(
                lambda v: loss_value(spec, nn.ParamVector(v, params.spec), x, y),
                params.values,
            )
            assert rel_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("stack", [None, 2])
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_backprop_leaves_the_output_gradient_unchanged(self, stack, activation):
        spec = nn.NetSpec.mlp([4, 6, 5, 3], activation)
        r = rng_stream(6, "output-grad")
        values = r.normal(size=(stack or 1, spec.param_count()))
        x, g = r.normal(size=(stack or 1, 7, 4)), r.normal(size=(stack or 1, 7, 3))
        values, x, g = (values, x, g) if stack else (values[0], x[0], g[0])
        before = g.tobytes()
        _, trace = nn.forward_with_trace(spec, nn.unpack(spec, values), x)
        nn.backprop(spec, trace, g)
        assert g.tobytes() == before

    @pytest.mark.parametrize("stack", [None, 2])
    def test_ce_grad_is_backprop_of_the_one_hot_gradient(self, stack):
        # the loss gradient subtracts 1.0 at each label in place: bit for bit (softmax - one_hot) / n
        spec = nn.NetSpec.mlp([4, 6, 3])
        r = rng_stream(7, "one-hot")
        values = r.normal(size=(stack or 1, spec.param_count()))
        x, y = r.normal(size=(stack or 1, 5, 4)), r.integers(0, 3, size=(stack or 1, 5))
        values, x, y = (values, x, y) if stack else (values[0], x[0], y[0])
        layers = nn.unpack(spec, values)
        probs, grad = nn.ce_grad(spec, layers, x, y, "ce_on_logits")
        out, trace = nn.forward_with_trace(spec, layers, x)
        want = nn.softmax(out)
        assert probs.tobytes() == want.tobytes()
        assert grad.tobytes() == nn.backprop(spec, trace, (want - one_hot(y, 3)) / 5).tobytes()

    def test_ce_grad_runs_one_forward(self, monkeypatch):
        spec, params, x, y = kink_safe_net(3, [5, 8, 4])
        traces = []
        forward_trace = nn._forward_trace
        monkeypatch.setattr(nn, "_forward_trace", lambda *a: traces.append(a) or forward_trace(*a))
        layers = nn.unpack(spec, params.values)
        nn.ce_grad(spec, layers, x, y, "ce_on_logits")
        assert len(traces) == 1 and traces[0][1] is layers

    def test_top_layer_overflow_names_top_layer(self):
        # every layer's gradient turns non-finite; backprop reaches the top
        # layer first, so that is the one the scan names
        spec = nn.NetSpec.mlp([2, 3, 3, 2])
        params = nn.ParamVector(np.full(spec.param_count(), 1e200), spec)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = ce_grad(spec, params, np.array([[1.0, 1.0]]), np.array([0]), "ce_on_logits")
        err = nn.Scan().grads(spec, grad[None]).failures[0]
        assert (err.message, err.layer) == (nn.NONFINITE_GRADIENT, spec.num_layers - 1)

    def test_non_finite_gradient_names_layer(self):
        spec = nn.NetSpec.mlp([2, 2, 2])
        params = nn.ParamVector(np.full(spec.param_count(), 1e200), spec)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = ce_grad(spec, params, np.array([[1.0, 1.0]]), np.array([0]), "ce_on_logits")
        assert nn.Scan().grads(spec, grad[None]).failures[0].layer is not None


class TestReluMask:
    """The trace keeps no pre-activation: backprop masks a ReLU on its
    activation being > 0. That mask has the bits of one taken on the
    pre-activation at 0.0, -0.0, -1e-300 and NaN, on one network and on a stack."""

    SPEC = nn.NetSpec.mlp([3, 6, 2])
    EDGES = np.array([0.0, -0.0, -1e-300, np.nan])

    @staticmethod
    def _values(stack: int | None):
        rng = rng_stream(7, "relu-mask")
        rows = rng.normal(size=(stack or 1, TestReluMask.SPEC.param_count()))
        x = rng.normal(size=(stack or 1, 5, 3))
        g = rng.normal(size=(stack or 1, 5, 2))
        return (rows, x, g) if stack else (rows[0], x[0], g[0])

    @staticmethod
    def _oracle(values, x, pre, out_grad):
        """Backprop of the one-hidden-layer SPEC, masking on `pre > 0`."""
        w1 = nn.unpack(TestReluMask.SPEC, values)[1][0]
        h = np.maximum(pre, 0.0)
        dz = (out_grad @ w1.swapaxes(-1, -2)) * (pre > 0.0)
        parts = (x.swapaxes(-1, -2) @ dz, dz.sum(axis=-2), h.swapaxes(-1, -2) @ out_grad, out_grad.sum(axis=-2))
        return np.concatenate([p.reshape(*out_grad.shape[:-2], -1) for p in parts], axis=-1)

    @pytest.mark.parametrize("stack", [None, 2])
    def test_given_preactivations(self, stack):
        # -0.0 never leaves a matmul plus a bias, so the trace is built here
        # as the forward writes it: the ReLU of the pre-activation
        values, x, g = self._values(stack)
        layers = nn.unpack(self.SPEC, values)
        (w0, b0), (w1, b1) = layers
        pre = x @ w0 + b0
        pre[..., :4] = self.EDGES
        assert np.signbit(pre[..., 1]).all() and np.isnan(pre[..., 3]).all()
        act = np.maximum(pre, 0.0)
        trace = nn.Trace(layers, [x, act, act @ w1 + b1])
        got = nn.backprop(self.SPEC, trace, g)
        assert got.tobytes() == self._oracle(values, x, pre, g).tobytes()

    @pytest.mark.parametrize("stack", [None, 2])
    def test_through_the_forward(self, stack):
        # zero weights into units 0-3 leave the bias as their pre-activation
        values, x, g = self._values(stack)
        (w0, b0), _ = nn.unpack(self.SPEC, values)
        w0[..., :4] = 0.0
        b0[..., :4] = self.EDGES
        pre = x @ w0 + b0  # the oracle's own pre-activations
        assert (pre[..., 2] == -1e-300).all() and np.isnan(pre[..., 3]).all()
        _, trace = nn.forward_with_trace(self.SPEC, nn.unpack(self.SPEC, values), x)
        assert len(trace.acts) == self.SPEC.num_layers + 1  # one array per layer, the input first
        assert trace.acts[1].tobytes() == np.maximum(pre, 0.0).tobytes()
        got = nn.backprop(self.SPEC, trace, g)
        assert got.tobytes() == self._oracle(values, x, pre, g).tobytes()


class TestMixtureForward:
    def test_single_expert_weight_one(self, rng):
        spec, params = make_net(11, [4, 6, 3])
        x = rng.normal(size=(5, 4))
        w = np.ones((5, 1))
        assert np.array_equal(
            mixture_forward(spec, [params], w, x), nn.forward(spec, params.values, x)
        )

    def test_identical_experts_convexity(self, rng):
        spec, params = make_net(12, [4, 6, 3])
        x = rng.normal(size=(5, 4))
        w = np.column_stack([np.full(5, 0.3), np.full(5, 0.7)])
        combined = mixture_forward(spec, [params, params], w, x)
        assert np.max(np.abs(combined - nn.forward(spec, params.values, x))) < 1e-12

    def test_matches_per_sample_sum_oracle(self, rng):
        spec, p1 = make_net(13, [4, 6, 3])
        _, p2 = make_net(14, [4, 6, 3])
        x = rng.normal(size=(6, 4))
        w = rng.uniform(0.1, 0.9, size=(6, 2))
        combined = mixture_forward(spec, [p1, p2], w, x)
        f1, f2 = nn.forward(spec, p1.values, x), nn.forward(spec, p2.values, x)
        manual = np.stack(
            [w[j, 0] * f1[j] + w[j, 1] * f2[j] for j in range(6)]
        )
        assert np.max(np.abs(combined - manual)) < 1e-12

    def test_one_hot_weights_reproduce_selected_expert(self, rng):
        spec, p1 = make_net(15, [4, 6, 3])
        _, p2 = make_net(16, [4, 6, 3])
        x = rng.normal(size=(5, 4))
        w = np.column_stack([np.zeros(5), np.ones(5)])
        assert np.array_equal(
            mixture_forward(spec, [p1, p2], w, x), nn.forward(spec, p2.values, x)
        )

    def test_zero_experts_rejected(self, rng):
        with pytest.raises(ConfigError):
            mixture_forward(nn.NetSpec.mlp([4, 3]), [], np.ones((2, 0)), rng.normal(size=(2, 4)))


class TestSGDM:
    def test_zero_momentum_is_plain_sgd(self, rng):
        _, params = make_net(20, [3, 4])
        grad = rng.normal(size=params.values.size)
        p, v = params.values.copy(), np.zeros_like(params.values)
        nn.sgdm_step(p, v, grad, 0.1, 0.0)
        assert np.array_equal(p, params.values - 0.1 * grad)

    def test_zero_grad_zero_velocity_no_change(self):
        _, params = make_net(21, [3, 4])
        p, v = params.values.copy(), np.zeros_like(params.values)
        nn.sgdm_step(p, v, np.zeros_like(p), 0.1, 0.9)
        assert np.array_equal(p, params.values)
        assert np.all(v == 0.0)

    def test_two_steps_match_unrolled_recurrence(self, rng):
        _, params = make_net(22, [3, 4])
        g1 = rng.normal(size=params.values.size)
        g2 = rng.normal(size=params.values.size)
        p, v = params.values.copy(), np.zeros_like(params.values)
        nn.sgdm_step(p, v, g1, 0.05, 0.9)
        nn.sgdm_step(p, v, g2, 0.05, 0.9)
        v1 = g1
        v2 = 0.9 * v1 + g2
        expect = params.values - 0.05 * v1 - 0.05 * v2
        assert np.max(np.abs(p - expect)) < 1e-12
        assert np.array_equal(v, v2)

    def test_steps_in_place_bit_identical_to_recurrence(self, rng):
        _, params = make_net(23, [3, 4])
        p, v = params.values.copy(), np.zeros_like(params.values)
        ref_p, ref_v = params.values.copy(), np.zeros_like(params.values)
        for _ in range(3):
            g = rng.normal(size=p.size)
            nn.sgdm_step(p, v, g, 0.05, 0.9)
            ref_v = 0.9 * ref_v + g
            ref_p = ref_p - 0.05 * ref_v
        assert np.array_equal(p, ref_p) and np.array_equal(v, ref_v)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            nn.sgdm_step(np.zeros(3), np.zeros(3), np.zeros(4), 0.1, 0.9)

    def test_lr_must_be_positive(self):
        # the rates are checked once, by the config or on entry to pretraining
        for lr in [0.0, -0.1, float("nan"), float("inf")]:
            with pytest.raises(ConfigError):
                self._pretrain(lr=lr)

    def test_momentum_range_checked(self):
        for momentum in [1.0, -0.1, float("nan")]:
            with pytest.raises(ConfigError):
                self._pretrain(momentum=momentum)

    @staticmethod
    def _pretrain(lr=0.1, momentum=0.9):
        ds = data.LabeledDataset(np.zeros((4, 3)), np.array([0, 1, 2, 3]), 4)
        return central.pretrain(nn.NetSpec.mlp([3, 4]), ds, ds, 1.0, 1, lr, momentum, 2, 0)


class TestCheckpoint:
    def test_file_roundtrip_bytes_identical(self, tmp_path, rng):
        spec, params = make_net(30, [4, 6, 3])
        path = tmp_path / "net.ckpt"
        checkpoint.save_net(path, params, {"note": "x", "acc": 0.75})
        raw1 = path.read_bytes()
        params2, meta = checkpoint.load_net(path)
        checkpoint.save_net(path, params2, meta)
        assert path.read_bytes() == raw1
        assert params2.spec == spec and meta["acc"] == 0.75

    def test_float64_values_roundtrip_exactly(self, tmp_path):
        spec = nn.NetSpec.mlp([3, 2])
        values = np.array([np.pi, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, 0.1, 1 / 3], dtype=np.float64)
        params = nn.ParamVector(values, spec)
        path = tmp_path / "values.ckpt"
        checkpoint.save_net(path, params)
        loaded, _ = checkpoint.load_net(path)
        assert loaded.values.tobytes() == values.tobytes()  # bit for bit, -0.0 included

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ArtifactError):
            checkpoint.load_net(path)

    def test_truncated_values_rejected(self, tmp_path):
        spec, params = make_net(31, [4, 3])
        path = tmp_path / "trunc.ckpt"
        checkpoint.save_net(path, params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ArtifactError):
            checkpoint.load_net(path)

    def test_state_container_roundtrip(self, tmp_path):
        spec, p1 = make_net(32, [4, 6, 3])
        gspec, g = make_net(33, [6, 8, 2])
        path = tmp_path / "state.ckpt"
        checkpoint.save_state(path, [("expert_0", p1), ("gate", g)], {"round": 7})
        nets, meta = checkpoint.load_state(path)
        assert [n[0] for n in nets] == ["expert_0", "gate"]
        assert meta["round"] == 7
        assert np.array_equal(nets[0][1].values, p1.values)
        assert np.array_equal(nets[1][1].values, g.values)
        assert (nets[0][1].spec, nets[1][1].spec) == (spec, gspec)


class TestPurity:
    def test_backward_bit_identical_on_repeat(self):
        spec, params, x, y = kink_safe_net(99, [4, 6, 3])
        g1 = ce_grad(spec, params, x, y, "ce_on_logits")
        g2 = ce_grad(spec, params, x, y, "ce_on_logits")
        assert np.array_equal(g1, g2)
        # inputs untouched
        assert np.all(np.isfinite(params.values))

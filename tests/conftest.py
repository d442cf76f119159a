"""Shared helpers: finite-difference oracles and kink-safe random nets."""

from __future__ import annotations

import numpy as np
import pytest

from fedjets import nn
from fedjets.seeding import rng_stream


def central_diff(loss_fn, values: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar loss over a flat vector."""
    grad = np.zeros_like(values)
    for i in range(values.size):
        up = values.copy()
        up[i] += h
        down = values.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max relative error, normalized by the gradient scale (absolute for
    gradients smaller than 1)."""
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def min_hidden_preact(spec: nn.NetSpec, params: nn.ParamVector, inputs: np.ndarray) -> float:
    """Smallest |pre-activation| over all hidden relu units for this batch."""
    pre = nn._forward_trace(spec, params, inputs).pre_acts
    hidden = [np.abs(z) for z, act in zip(pre[:-1], spec.activations) if act == "relu"]
    if not hidden:
        return np.inf
    return float(min(np.min(h) for h in hidden))


def kink_safe_net(seed: int, dims, head: str = "logits", n: int = 6, margin: float = 0.05):
    """Random net + batch with every relu pre-activation at least `margin`
    from zero, so an h=1e-4 central-difference stencil cannot cross a kink.
    Redraws deterministically until safe."""
    spec = nn.NetSpec.mlp(dims, head=head)
    for attempt in range(200):
        rng = rng_stream(seed, "kink-safe", attempt)
        params = nn.init_params(spec, rng)
        inputs = rng.normal(size=(n, spec.input_dim))
        labels = rng.integers(0, spec.output_dim, size=n)
        if min_hidden_preact(spec, params, inputs) >= margin:
            return spec, params, nn.Batch(inputs, labels)
    raise AssertionError("could not draw a kink-safe net; loosen the margin")


@pytest.fixture
def rng():
    return rng_stream(20240)

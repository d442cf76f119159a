"""Tour of the dense-network engine: forward, loss gradients, SGDM.

Builds a small classifier on Gaussian blobs, verifies the analytic
gradient against central finite differences, then trains it for a few
hundred steps.
"""

import numpy as np

from fedjets import central, data, nn
from fedjets.seeding import rng_stream

print("=== dense-net engine ===")

ds = data.synth_dataset(num_classes=4, dim=8, per_class=120, separation=4.0, seed=0)
holdout = data.synth_dataset(4, 8, 60, 4.0, seed=1, means_seed=0)
spec = nn.NetSpec.mlp([8, 16, 4])
params = nn.init_params(spec, rng_stream(0, "demo-net"))
print(f"network {spec.layer_dims}, {spec.param_count()} parameters")

x, y = ds.inputs[:16], ds.labels[:16]


def batch_loss(values):
    """Mean cross-entropy on (x, y), from the softmax probabilities `ce_grad` returns."""
    probs = nn.ce_grad(spec, nn.unpack(spec, values), x, y, "ce_on_logits")[0]
    return float(-np.mean(np.log(probs[np.arange(len(y)), y])))


# ce_grad: one forward and one backprop, on the layer views of a [P] row here or of a [B, P] stack
layers = nn.unpack(spec, params.values)  # views: sgdm_step's in-place writes show in them
_, grad = nn.ce_grad(spec, layers, x, y, "ce_on_logits")
print(f"initial batch loss {batch_loss(params.values):.4f} (uniform would be {np.log(4):.4f})")

# spot-check the gradient with central differences on a few coordinates
rng = rng_stream(0, "demo-fd")
coords = rng.choice(params.values.size, size=8, replace=False)
h = 1e-5
worst = 0.0
for i in coords:
    up, down = params.values.copy(), params.values.copy()
    up[i] += h
    down[i] -= h
    fd = (batch_loss(up) - batch_loss(down)) / (2 * h)
    worst = max(worst, abs(fd - grad[i]))
print(f"finite-difference spot check, worst abs deviation: {worst:.2e}")

velocity = np.zeros_like(params.values)  # SGDM steps params and velocity in place
order = rng.permutation(len(ds))
for step in range(300):
    rows = order[(step * 16) % (len(ds) - 16) : (step * 16) % (len(ds) - 16) + 16]
    _, g = nn.ce_grad(spec, layers, ds.inputs[rows], ds.labels[rows], "ce_on_logits")
    nn.sgdm_step(params.values, velocity, g, lr=0.05, momentum=0.9)

acc = central.model_accuracy(params, holdout.inputs, holdout.labels)
print(f"accuracy after 300 SGDM steps: {acc:.3f}")

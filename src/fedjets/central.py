"""Centralized training on the pooled dataset.

Used to produce the frozen common expert (train until a held-out accuracy
target is met or an epoch cap runs out) and as the reference trajectory in
conservation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .data import LabeledDataset
from .errors import ConfigError
from .seeding import rng_stream


def model_accuracy(params: nn.ParamVector, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax predictions matching the labels."""
    out = nn.forward(params.spec, params.values, inputs)
    return float(np.mean(out.argmax(axis=1) == labels))


@dataclass
class PretrainResult:
    params: nn.ParamVector
    accuracy: float
    epochs: int
    reached_target: bool


def pretrain(
    spec: nn.NetSpec,
    train_ds: LabeledDataset,
    holdout_ds: LabeledDataset,
    target_accuracy: float,
    max_epochs: int,
    lr: float,
    momentum: float,
    batch_size: int,
    seed: int,
) -> PretrainResult:
    """SGDM on the pooled training set until held-out accuracy >= target.

    The held-out accuracy is checked before the first epoch too, so a
    chance-level target returns the freshly initialized network.
    """
    if not (0.0 < lr < math.inf and 0.0 <= momentum < 1.0):
        raise ConfigError(f"need a finite lr > 0 and momentum in [0, 1), got lr={lr}, momentum={momentum}")
    rng = rng_stream(seed, "pretrain")
    params = nn.init_params(spec, rng)
    velocity = np.zeros_like(params.values)
    layers = nn.unpack(spec, params.values)  # bound once: sgdm_step writes the values in place
    n = len(train_ds)

    acc = model_accuracy(params, holdout_ds.inputs, holdout_ds.labels)
    epochs = 0
    while acc < target_accuracy and epochs < max_epochs:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            _, grad = nn.ce_grad(spec, layers, train_ds.inputs[rows], train_ds.labels[rows], "ce_on_logits")
            if failures := nn.Scan().grads(spec, grad[None]).failures:
                raise failures[0].within(f"pretrain | epoch {epochs}")
            nn.sgdm_step(params.values, velocity, grad, lr, momentum)
        epochs += 1
        acc = model_accuracy(params, holdout_ds.inputs, holdout_ds.labels)
    params.check_finite()
    return PretrainResult(params, acc, epochs, acc >= target_accuracy)

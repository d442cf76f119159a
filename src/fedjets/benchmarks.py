"""Canned benchmark configurations.

`synth10` is the desk-scale reference task: 10 Gaussian classes in 16
dimensions, separation high enough that a centrally trained two-layer net
clears 95% test accuracy; 60 training clients (5 of them disjoint
two-label anchors), 10 unseen test clients, 5 experts with top-2 dispatch,
300 rounds.
"""

from __future__ import annotations

import copy

from . import config

# Separation 4.0 keeps a centrally trained net above 95% test accuracy
# while leaving the 10-class problem hard enough that monolithic federated
# training visibly suffers under label-skewed clients at this client lr;
# the experts' two-label subproblems stay easy either way.
SYNTH10 = {
    "seed": 1,
    "data": {
        "num_classes": 10,
        "dim": 16,
        "train_per_class": 200,
        "test_per_class": 100,
        "separation": 4.0,
        "num_clients": 60,
        "num_test_clients": 10,
        "partition_strategy": "quantity",
        "labels_per_client": 4,
        "test_labels_per_client": 2,
        "labels_per_anchor": 2,
        "anchor_disjoint": True,
    },
    "model": {
        "expert_dims": [16, 32, 32, 10],
        "pretrain_target_accuracy": 0.93,
        "pretrain_max_epochs": 60,
    },
    "federation": {
        "method": "fedjets",
        "rounds": 300,
        "num_experts": 5,
        "top_k": 2,
        "anchors_per_round": 5,
        "normals_per_round": 5,
        "expert_init": "scratch",
    },
    "training": {
        "lr": 0.2,
        "momentum": 0.9,
        "gate_lr": 0.05,
        "batch_size": 64,
        "local_iterations": 20,
    },
    "eval": {"interval": 10},
}


def synth10_dict(**overrides) -> dict:
    """Deep copy of the synth-10 config dict with section-level overrides,
    e.g. synth10_dict(federation={"method": "fedavg"}, seed=7)."""
    raw = copy.deepcopy(SYNTH10)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    return raw


def synth10_config(**overrides) -> config.RunConfig:
    return config.from_dict(synth10_dict(**overrides))

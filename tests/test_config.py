"""Config bounds: every int and float field of the five sections declares its
bound beside its default, `validate` refuses a value just outside it before
anything is built, naming the dotted field, and the README states each bound
in the words of its declaration."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from fedjets import benchmarks, cli, experiment
from fedjets import config as config_mod
from test_cli import write_mini_config

ROOT = Path(__file__).resolve().parents[1]
SECTIONS = ("data", "model", "federation", "training", "eval")
FIELDS = {
    f"{name}.{spec.name}": spec
    for name in SECTIONS
    for spec in dataclasses.fields(config_mod.RunConfig.__dataclass_fields__[name].default_factory)
}
# numeric fields, or ends of a bound, that no declaration states, and why
UNBOUNDED = {
    "seed": "any int: seeding masks it to 32 bits, so --seed -1 runs",
    "data.separation": "no upper end: a larger separation only makes the classes easier",
}


def just_outside(bound: str, annotation: str) -> list:
    """The values next to a declared bound on its refused side."""
    num = int if annotation.startswith("int") else float
    if m := re.fullmatch(r"at least (\S+)", bound):
        lo = num(m[1])
        return [lo - 1 if num is int else math.nextafter(lo, -math.inf)]
    if m := re.fullmatch(r"> (\S+)", bound):
        return [num(m[1])]
    if m := re.fullmatch(r"in \[(\S+), (\S+)([)\]])", bound):
        lo, hi = float(m[1]), float(m[2])
        return [math.nextafter(lo, -math.inf), hi if m[3] == ")" else math.nextafter(hi, math.inf)]
    assert re.fullmatch(r'"\w+"( \| "\w+")*', bound), bound
    return ["no_such_option"]


def test_every_numeric_field_declares_a_bound_or_says_why_not(tmp_path):
    numeric = [key for key, spec in FIELDS.items() if re.match(r"(int|float)\b", spec.type)]
    assert [key for key in numeric if "bound" not in FIELDS[key].metadata] == []
    assert set(UNBOUNDED) <= {"seed", *numeric}
    # the top-level seed is the one numeric field outside the five sections
    assert config_mod.RunConfig.__dataclass_fields__["seed"].type == "int"
    assert config_mod.load(write_mini_config(tmp_path / "c.json"), seed=-1).seed == -1


def test_defaults_lie_inside_their_bounds():
    config_mod.RunConfig().validate()


OUTSIDE = [
    (key, value)
    for key, spec in FIELDS.items()
    if "bound" in spec.metadata
    for value in just_outside(spec.metadata["bound"], spec.type)
]


@pytest.mark.parametrize(
    "key, value",
    [
        *OUTSIDE,
        # overrides that once exited 2 without naming their field, one only after pretraining
        ("data.num_classes", 0),
        ("data.train_per_class", 0),
        ("data.separation", -4),
        ("model.embed_layer", 7),
    ],
    ids=str,
)
def test_a_value_just_outside_its_bound_is_exit_2_naming_the_field(tmp_path, capsys, monkeypatch, key, value):
    def no_context(cfg):
        raise AssertionError("an out-of-bound value must be refused before build_context")

    monkeypatch.setattr(experiment, "build_context", no_context)
    cfg_path = write_mini_config(tmp_path / "c.json")
    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", f"{key}={json.dumps(value)}"])
    assert rc == 2
    assert f"config error: {key} must be " in capsys.readouterr().err


def test_readme_schema_states_every_field_and_its_bound():
    """Each section's fields appear in the README's "Config schema" section in
    declaration order, each followed, before the next field, by its bound."""
    readme = (ROOT / "README.md").read_text()
    schema = " ".join(readme.split("\n## Config schema\n")[1].split("\n## ")[0].split())
    missing = []
    for name in SECTIONS:
        start = schema.index(f"- `{name}`:")
        keys = [key for key in FIELDS if key.startswith(f"{name}.")]
        spots = []
        for key in keys:
            at = schema.find(f"`{key.split('.')[1]}`", spots[-1] if spots else start)
            if at < 0:
                missing.append(key)
                break
            spots.append(at)
        else:
            end = schema.find("- `", spots[-1])
            for key, a, b in zip(keys, spots, [*spots[1:], end if end > 0 else len(schema)]):
                bound = FIELDS[key].metadata.get("bound")
                if bound is not None and bound not in schema[a:b]:
                    missing.append(f"{key}: {bound}")
    assert missing == []


PAIR = "federation.anchors_per_round + federation.normals_per_round"


NUM_EXPERTS, NUM_CLASSES = "federation.num_experts (5)", "data.num_classes (10)"


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["federation.top_k=6"], f"federation.top_k must be at most {NUM_EXPERTS}; got 6"),
        (["federation.anchors_per_round=6"], f"federation.anchors_per_round must be at most {NUM_EXPERTS}; got 6"),
        (["federation.normals_per_round=56"], f"{PAIR} must be at most data.num_clients (60); got 61"),
        (["federation.anchors_per_round=0", "federation.normals_per_round=0"], f"{PAIR} must be at least 1; got 0"),
        (["data.num_clients=5", "federation.normals_per_round=0"],
         f"data.num_clients must be above {NUM_EXPERTS}; got 5"),
        (["data.labels_per_client=11"], f"data.labels_per_client must be at most {NUM_CLASSES}; got 11"),
        (["data.test_labels_per_client=11"], f"data.test_labels_per_client must be at most {NUM_CLASSES}; got 11"),
        (["data.test_samples_per_client=1"],
         "data.test_samples_per_client must be at least data.test_labels_per_client (2); got 1"),
        # with no test label count of their own, test clients draw data.labels_per_client labels
        (["data.test_labels_per_client=null", "data.test_samples_per_client=3"],
         "data.test_samples_per_client must be at least data.labels_per_client (4); got 3"),
        (["data.labels_per_anchor=3"],
         f"federation.num_experts * data.labels_per_anchor must be at most {NUM_CLASSES} with data.anchor_disjoint; "
         "got 15"),
        (["data.samples_per_client=1"],
         "data.samples_per_client must be at least data.labels_per_client (4) with data.partition_strategy "
         "'quantity'; got 1"),
        (["data.samples_per_anchor=1"],
         "data.samples_per_anchor must be at least data.labels_per_anchor (2) with data.anchor_disjoint; got 1"),
        (["model.expert_dims=[16, 10, 9]"],
         "model.expert_dims must be dims of at least 1 from data.dim 16 to data.num_classes 10; got [16, 10, 9]"),
        (["model.embed_layer=3"], "model.embed_layer must be below 3, the common expert's layer count; got 3"),
    ],
    ids=[
        "top_k", "anchors_per_round", "active-above-pool", "active-none", "num_clients", "labels_per_client",
        "test_labels_per_client", "test_samples_per_client", "test_samples_per_client-default-labels",
        "disjoint-anchors", "samples_per_client", "samples_per_anchor", "expert_dims", "embed_layer",
    ],
)
def test_a_broken_cross_field_rule_is_exit_2_naming_both_fields(tmp_path, capsys, monkeypatch, overrides, message):
    # on synth-10: 5 experts, 60 clients, 10 classes, 4 labels a client, 2 a test client, 2 an anchor
    def no_context(cfg):
        raise AssertionError("a broken cross-field rule must be refused before build_context")

    monkeypatch.setattr(experiment, "build_context", no_context)
    cfg_path = tmp_path / "synth10.json"
    config_mod.dump(benchmarks.synth10_config(), cfg_path)
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *sets]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "data",
    [
        {"partition_strategy": "dirichlet", "samples_per_client": 1},  # a Dirichlet partition ignores the field
        {"anchor_disjoint": False, "samples_per_anchor": 1},  # a non-disjoint anchor may hold one sample
    ],
    ids=["dirichlet-samples_per_client", "overlapping-anchors-samples_per_anchor"],
)
def test_the_sample_count_rules_hold_only_where_they_bind(data):
    benchmarks.synth10_config(data=data).validate()

"""The float64 checkpoint container: exact round-trips, canonical bytes and
strict parsing, over random network specs and values."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedjets import checkpoint, nn
from fedjets.errors import ArtifactError, NumericError

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,  # the same examples on every run
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# values that a float32 or a text format would not carry exactly
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1 / 3]
values_st = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def nets(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    activation = draw(st.sampled_from(sorted(nn.HIDDEN_ACTIVATIONS)))
    spec = nn.NetSpec.mlp(dims, activation, draw(st.sampled_from(sorted(nn.OUTPUT_HEADS))))
    values = draw(st.lists(values_st, min_size=spec.param_count(), max_size=spec.param_count()))
    return nn.ParamVector(np.array(values, dtype=np.float64), spec)


metas = st.dictionaries(
    st.text(max_size=4),
    st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4)),
    max_size=3,
)


@PROPERTY
@given(net=nets(), meta=metas)
def test_values_roundtrip_bit_for_bit(tmp_path, net, meta):
    path = tmp_path / "net.ckpt"
    checkpoint.save_net(path, net, meta)
    params2, meta2 = checkpoint.load_net(path)
    assert params2.spec == net.spec and meta2 == meta
    assert params2.values.tobytes() == net.values.tobytes()


@PROPERTY
@given(experts=st.lists(nets(), min_size=1, max_size=3), meta=metas)
def test_rewriting_a_loaded_state_reproduces_its_bytes(tmp_path, experts, meta):
    path = tmp_path / "state.ckpt"
    checkpoint.save_state(path, [(f"expert_{i}", p) for i, p in enumerate(experts)], meta)
    raw = path.read_bytes()
    checkpoint.save_state(path, *checkpoint.load_state(path))
    assert path.read_bytes() == raw
    checkpoint.write(path, *checkpoint.read(path))
    assert path.read_bytes() == raw


@PROPERTY
@given(net=nets())
def test_every_strict_prefix_and_an_appended_byte_rejected(tmp_path, net):
    path = tmp_path / "net.ckpt"
    checkpoint.save_net(path, net, {"round": 3})
    raw = path.read_bytes()
    for bad in [raw[:cut] for cut in range(len(raw))] + [raw + b"\x00"]:
        path.write_bytes(bad)
        with pytest.raises(ArtifactError):
            checkpoint.read(path)


def test_version_1_files_rejected(tmp_path):
    # the float32 formats this container replaced: a single-network FJET
    # checkpoint and a version-1 FJST state
    spec = nn.NetSpec.mlp([4, 3])
    values = np.zeros(spec.param_count(), dtype="<f4").tobytes()
    for magic, header, body in [
        (b"FJET", {"meta": {}, "net": spec.to_dict()}, values),
        (b"FJST", {"meta": {}, "nets": [{"name": "net", "net": spec.to_dict()}]}, struct.pack("<I", 15) + values),
    ]:
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(magic + struct.pack("<HI", 1, len(blob)) + blob + body)
        with pytest.raises(ArtifactError):
            checkpoint.load_net(path)


def test_load_net_rejects_a_state_and_load_state_a_feature_file(tmp_path):
    spec = nn.NetSpec.mlp([2, 3])
    params = nn.ParamVector(np.zeros(spec.param_count()), spec)
    path = tmp_path / "x.ckpt"
    checkpoint.save_state(path, [("expert_0", params), ("expert_1", params)])
    with pytest.raises(ArtifactError):
        checkpoint.load_net(path)
    checkpoint.write(path, [{"name": "features"}], [np.zeros(4)], {"kind": "feature_dataset"})
    with pytest.raises(ArtifactError):
        checkpoint.load_state(path)


@pytest.mark.parametrize(
    "net, read_as",
    [
        ({"layer_dims": [3.9, 4, 2], "activations": ["relu"], "head": "logits"}, nn.NetSpec.mlp([3, 4, 2])),
        ({"layer_dims": ["3", "4", "2"], "activations": ["relu"], "head": "logits"}, nn.NetSpec.mlp([3, 4, 2])),
        ({"layer_dims": [True, 2], "activations": [], "head": "logits"}, nn.NetSpec.mlp([1, 2])),
        ({"layer_dims": [3, 2], "activations": "", "head": "logits"}, nn.NetSpec.mlp([3, 2])),
    ],
    ids=["float-dims", "string-dims", "bool-dim", "string-activations"],
)
def test_a_spec_that_would_load_only_coerced_is_rejected(tmp_path, net, read_as):
    """The block fits the spec `read_as` that coercing `net` would give, so
    only the reader's refusal to coerce rejects it (a coerced spec would be
    written back as other bytes)."""
    path = tmp_path / "net.ckpt"
    checkpoint.write(path, [{"name": "net", "net": net}], [np.zeros(read_as.param_count())], {})
    with pytest.raises(ArtifactError, match="block 'net' holds no valid network"):
        checkpoint.load_net(path)


def test_non_finite_block_names_the_file_and_the_block(tmp_path):
    spec = nn.NetSpec.mlp([2, 3])
    path = tmp_path / "nan.ckpt"
    checkpoint.write(path, [{"name": "net", "net": spec.to_dict()}], [np.full(spec.param_count(), np.nan)], {})
    with pytest.raises(NumericError) as err:
        checkpoint.load_net(path)
    assert err.value.context == f"{path}: block 'net'"
    assert str(err.value) == f"ParamVector contains non-finite values | {path}: block 'net'"

"""The binary container every fedjets artifact is stored in, and the
server-state and single-network files built on it; the README's "Binary
formats" states the layout and what each reader refuses."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ArtifactError, ConfigError, NumericError
from .nn import NetSpec, ParamVector

MAGIC = b"FJST"
FORMAT_VERSION = 2
_PREFIX = struct.Struct("<4sHI")  # magic, version, header length


def write(path, entries: list[dict], blocks: list[np.ndarray], meta: dict) -> None:
    """Write one container; `entries[i]`, a JSON object with a "name",
    describes the float64 block `blocks[i]`."""
    if len(entries) != len(blocks):
        raise ConfigError(f"{len(entries)} block entries for {len(blocks)} blocks")
    header = json.dumps({"blocks": entries, "meta": meta}, sort_keys=True, separators=(",", ":")).encode()
    parts = [_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header)), header]
    for block in blocks:
        values = np.asarray(block, dtype="<f8").ravel()
        parts += [struct.pack("<I", values.size), values.tobytes()]
    Path(path).write_bytes(b"".join(parts))


def read(path) -> tuple[list[dict], list[np.ndarray], dict]:
    """Read a container written by `write`; returns (entries, blocks, meta)."""
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX.size or raw[:4] != MAGIC:
        raise ArtifactError(f"{path}: not a {MAGIC.decode()} container")
    _, version, hdr_len = _PREFIX.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise ArtifactError(f"{path}: unsupported format version {version}")
    off = _PREFIX.size + hdr_len
    if off > len(raw):
        raise ArtifactError(f"{path}: truncated header")
    try:
        header = json.loads(raw[_PREFIX.size : off].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: malformed header JSON ({exc})") from exc
    entries, meta = (header.get("blocks"), header.get("meta")) if isinstance(header, dict) else (None, None)
    if not (isinstance(entries, list) and isinstance(meta, dict)) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str) for e in entries
    ):
        raise ArtifactError(f'{path}: header is not {{"blocks": [{{"name": ...}}, ...], "meta": {{...}}}}')
    blocks = []
    for entry in entries:
        count = int.from_bytes(raw[off : off + 4], "little")  # a short tail reads short and fails below
        if off + 4 + 8 * count > len(raw):
            raise ArtifactError(f"{path}: truncated block {entry['name']!r}")
        blocks.append(np.frombuffer(raw, dtype="<f8", count=count, offset=off + 4).astype(np.float64))
        off += 4 + 8 * count
    if off != len(raw):
        raise ArtifactError(f"{path}: {len(raw) - off} trailing bytes after the last block")
    return entries, blocks, meta


def save_state(path, named_nets: list[tuple[str, ParamVector]], meta: dict | None = None) -> None:
    """Write several networks (a server state), one block each."""
    entries = [{"name": name, "net": params.spec.to_dict()} for name, params in named_nets]
    write(path, entries, [params.values for _, params in named_nets], meta or {})


def load_state(path) -> tuple[list[tuple[str, ParamVector]], dict]:
    """Read networks written by `save_state`; returns ([(name, params), ...], meta)."""
    entries, blocks, meta = read(path)
    nets = []
    for entry, values in zip(entries, blocks):
        name = entry["name"]
        try:
            params = ParamVector(values, NetSpec.from_dict(entry["net"]))
        except NumericError as exc:
            raise exc.within(f"{path}: block {name!r}") from exc
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"{path}: block {name!r} holds no valid network ({exc!r})") from exc
        nets.append((name, params))
    return nets, meta


def save_net(path, params: ParamVector, meta: dict | None = None) -> None:
    """Write one network: a container with a single block named "net"."""
    save_state(path, [("net", params)], meta)


def load_net(path) -> tuple[ParamVector, dict]:
    """Read a checkpoint written by `save_net`; returns (params, meta)."""
    nets, meta = load_state(path)
    if [name for name, _ in nets] != ["net"]:
        raise ArtifactError(f'{path}: not a single-network checkpoint (want one block named "net")')
    return nets[0][1], meta

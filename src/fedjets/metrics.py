"""Metrics records, their JSONL/CSV serialization, and report tables.

One record per evaluation point. The JSON-lines file is the canonical
artifact (byte-deterministic for a given run); the CSV is a mirror for
spreadsheet use.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ArtifactError


@dataclass
class MetricsRecord:
    round: int
    method: str
    global_acc: float
    per_expert_acc: list[float]
    routing_acc: float | None
    floats_down_cum: float
    floats_up_cum: float

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), separators=(", ", ": "))


JSONL_FIELDS = tuple(f.name for f in fields(MetricsRecord))


def _number(value, name: str, where: str) -> float:
    """A finite real number read from JSON: an int or a float, not a bool."""
    if type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ArtifactError(f"{where}: {name} must be a finite number, got {value!r}")


def parse_record(obj, where: str) -> MetricsRecord:
    """A record from one parsed JSON line. Each field must have its type:
    an int round, a str method, finite numbers for the accuracies and the
    cumulative counts, a list of them for `per_expert_acc` and None or one
    for `routing_acc`. Nothing is coerced; anything else is an ArtifactError."""
    if not isinstance(obj, dict):
        raise ArtifactError(f"{where}: malformed metrics record (not a JSON object)")
    missing = [k for k in JSONL_FIELDS if k not in obj]
    extra = [k for k in obj if k not in JSONL_FIELDS]
    if missing or extra:
        raise ArtifactError(f"{where}: metrics schema mismatch (missing {missing}, extra {extra})")
    if type(obj["round"]) is not int:
        raise ArtifactError(f"{where}: round must be an int, got {obj['round']!r}")
    if type(obj["method"]) is not str:
        raise ArtifactError(f"{where}: method must be a string, got {obj['method']!r}")
    if type(obj["per_expert_acc"]) is not list:
        raise ArtifactError(f"{where}: per_expert_acc must be a list, got {obj['per_expert_acc']!r}")
    routing = obj["routing_acc"]
    return MetricsRecord(
        round=obj["round"],
        method=obj["method"],
        global_acc=_number(obj["global_acc"], "global_acc", where),
        per_expert_acc=[_number(v, "per_expert_acc entry", where) for v in obj["per_expert_acc"]],
        routing_acc=None if routing is None else _number(routing, "routing_acc", where),
        floats_down_cum=_number(obj["floats_down_cum"], "floats_down_cum", where),
        floats_up_cum=_number(obj["floats_up_cum"], "floats_up_cum", where),
    )


def write_jsonl(path, records: list[MetricsRecord]) -> None:
    Path(path).write_text("".join(r.to_json_line() + "\n" for r in records))


def read_jsonl(path) -> list[MetricsRecord]:
    out = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        out.append(parse_record(obj, f"{path}:{lineno}"))
    return out


def _cell(value) -> str:
    """A number as its JSON line writes it: an np.float64 as the float it holds."""
    return repr(float(value)) if isinstance(value, float) else repr(value)


def write_csv(path, records: list[MetricsRecord], seed: int | None = None) -> None:
    n_experts = max((len(r.per_expert_acc) for r in records), default=0)
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    cols = ["round", "method", "global_acc", "routing_acc", "floats_down_cum", "floats_up_cum"]
    cols += [f"acc_expert_{i}" for i in range(n_experts)]
    lines.append(",".join(cols))
    for r in records:
        row = [
            str(r.round),
            r.method,
            _cell(r.global_acc),
            "" if r.routing_acc is None else _cell(r.routing_acc),
            _cell(r.floats_down_cum),
            _cell(r.floats_up_cum),
        ]
        row += [_cell(v) for v in r.per_expert_acc]
        row += [""] * (n_experts - len(r.per_expert_acc))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def best_of_last(records: list[MetricsRecord], last_k: int) -> float:
    """Best global accuracy among the last `last_k` evaluation records."""
    tail = records[-last_k:]
    return max(r.global_acc for r in tail)


def report_rows(paths, last_k: int) -> list[dict]:
    """One comparison row per metrics file: method, best-of-last-k accuracy,
    final cumulative communication."""
    rows = []
    for path in paths:
        records = read_jsonl(path)
        if not records:
            raise ArtifactError(f"{path}: metrics file holds no records")
        rows.append(
            {
                "file": str(path),
                "method": records[-1].method,
                "rounds": records[-1].round,
                "best_acc_last_k": best_of_last(records, last_k),
                "floats_down_cum": records[-1].floats_down_cum,
                "floats_up_cum": records[-1].floats_up_cum,
            }
        )
    return rows


def render_report_csv(rows: list[dict]) -> str:
    cols = ["file", "method", "rounds", "best_acc_last_k", "floats_down_cum", "floats_up_cum"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"

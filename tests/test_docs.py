"""The docs name only what exists: every backticked dotted name in the README
and in the `src/` docstrings whose head is a fedjets module or a `src/` class
(`runtime.fedjets_work`, `RunContext.train_embeddings`) resolves to an
attribute or a dataclass field. A config key (`data.dim`) and a file name
(`metrics.jsonl`) pass as what they are."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from fedjets import config as config_mod

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fedjets"
MODULES = {
    path.stem: importlib.import_module(f"fedjets.{path.stem}")
    for path in sorted(SRC.glob("*.py"))
    if path.stem != "__init__"
}
CLASSES = {
    node.name: getattr(module, node.name)
    for name, module in MODULES.items()
    for node in ast.parse((SRC / f"{name}.py").read_text()).body
    if isinstance(node, ast.ClassDef)
}
SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(config_mod.RunConfig)
    if f.default_factory is not dataclasses.MISSING
}
FILE_SUFFIXES = {"json", "jsonl", "csv", "ckpt", "py", "md"}
DOTTED = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
DOCS = {"README.md": (ROOT / "README.md").read_text()} | {
    path.name: "\n".join(
        ast.get_docstring(node) or ""
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
    )
    for path in sorted(SRC.glob("*.py"))
}  # the README's text, and each `src/` module's docstrings joined


def resolves(name: str) -> bool:
    head, *rest = name.removeprefix("fedjets.").split(".")
    obj = MODULES.get(head) or CLASSES.get(head)
    for attr in rest:
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
        if attr in fields and not hasattr(obj, attr):
            return attr == rest[-1]  # a field without a default: the name ends there
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def is_config_key(name: str) -> bool:
    section, _, key = name.partition(".")
    return section in SECTIONS and key in {f.name for f in dataclasses.fields(SECTIONS[section])}


def checked_names(text: str) -> set[str]:
    """The backticked dotted names headed by a fedjets module or a `src/` class."""
    return {
        name
        for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
        for name in DOTTED.findall(span)
        if name.removeprefix("fedjets.").split(".")[0] in MODULES.keys() | CLASSES.keys()
        and name.rsplit(".", 1)[1] not in FILE_SUFFIXES
        and not is_config_key(name)
    }


@pytest.mark.parametrize("where, text", DOCS.items(), ids=list(DOCS))
def test_every_named_function_class_and_field_exists(where, text):
    assert sorted(name for name in checked_names(text) if not resolves(name)) == []


def test_the_guard_sees_names_and_refuses_a_missing_one():
    text = "`runtime.fedjets_work`, `RunContext.train_embeddings`, `nn.unpack(spec,\nvalues)`, `data.dim`, `metrics.jsonl`"
    assert checked_names(text) == {"runtime.fedjets_work", "RunContext.train_embeddings", "nn.unpack"}
    assert all(resolves(name) for name in checked_names(text))
    assert not resolves("gating.select_topk")
    assert not resolves("RunContext.no_such_field")
    assert not resolves("RunContext.train_embeddings.shape")

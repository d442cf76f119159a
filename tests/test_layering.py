"""The package's import layering, read from the source with `ast`: no
function body imports a fedjets module, and the module-level imports form
no cycle, so every module sits above the modules it imports."""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fedjets"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def fedjets_imports(node: ast.AST) -> set[str]:
    """The fedjets modules an import statement names: `from . import x`,
    `from .x import y`, `from fedjets import x`, `from fedjets.x import y`
    and `import fedjets.x` all name `x`."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("fedjets.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0 and (node.module or "").split(".")[0] != "fedjets":
        return set()
    parts = (node.module or "").split(".")[0 if node.level else 1 :]
    return {parts[0]} if parts and parts[0] else {a.name for a in node.names}


def test_no_function_body_imports_a_fedjets_module():
    found = [
        f"{module}.{getattr(fn, 'name', '<lambda>')} imports {sorted(fedjets_imports(node))}"
        for module, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, FUNCTIONS)
        for node in ast.walk(fn)
        if fedjets_imports(node)
    ]
    assert found == []


def test_module_level_imports_form_no_cycle():
    graph = {}
    for module, tree in TREES.items():
        in_functions = {id(n) for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS) for n in ast.walk(fn)}
        graph[module] = set().union(*(fedjets_imports(n) for n in ast.walk(tree) if id(n) not in in_functions))
    assert {"nn", "runtime"} <= graph["evaluation"]  # the parse sees the imports
    assert graph["runtime"] & {"baselines", "evaluation", "experiment"} == set()
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming a cycle

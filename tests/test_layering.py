"""The package's import layering, read from the source with `ast`: no
function body imports a fedjets module, and the module-level imports form
no cycle, so every module sits above the modules it imports. Every public
function and class has a user in `src/`, so none is kept for tests alone."""

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



# Public names nothing in src/ uses, each kept for its reason.
UNREFERENCED_OK = {
    "benchmarks.synth10_config": "the synth-10 config that tests, tools and perfbench build on",
    "evaluation.common_expert_accuracy": "the common expert's score, which a run is yet to report",
    "data.save_feature_dataset": "the documented writer of the feature files `data.train_features` reads",
}


def references(module: str, tree: ast.Module) -> set[str]:
    """The qualified `module.name`s a module uses: its own names, names it
    imports with `from .x import name`, and `x.name` through a module alias."""
    aliases = {}  # local name -> the fedjets module it is, or the qualified name it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (modules := fedjets_imports(node)):
            for a in node.names:
                aliases[a.asname or a.name] = a.name if a.name in modules else f"{min(modules)}.{a.name}"
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(aliases.get(node.id, f"{module}.{node.id}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            out.add(f"{aliases[node.value.id]}.{node.attr}")
    return out


def test_every_public_name_has_a_caller_in_src():
    # a public function or class that nothing in src/ uses is an API kept for tests
    defined = {
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set().union(*(references(module, tree) for module, tree in TREES.items()))
    assert sorted(defined - used - UNREFERENCED_OK.keys()) == []
    # an exemption goes stale when its name is deleted or gains a caller in src/
    assert sorted(UNREFERENCED_OK.keys() - (defined - used)) == []

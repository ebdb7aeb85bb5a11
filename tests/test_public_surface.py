import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sdembed

MODULES = ["sdembed", *(f"sdembed.{info.name}" for info in pkgutil.iter_modules(sdembed.__path__))]
SRC = Path(sdembed.__file__).parent

# Names that may stay public with no caller in the library, each with its reason.
UNREFERENCED_ALLOWED = {
    # no library code calls it since Monte Carlo moved to the monomial kernel,
    # but the benchmark's traced runs (perfbench/spans.py) rebind it by name
    "Polynomial.evaluate",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _library_trees() -> dict[str, ast.Module]:
    """The parsed library modules; the package's re-exports are not uses."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _references(trees) -> list[tuple[str, frozenset]]:
    """Every name loaded and attribute read in the library, each with the ids
    of the nodes that enclose it."""
    refs = []

    def visit(node, enclosing):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, enclosing))
        inner = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    for tree in trees.values():
        visit(tree, frozenset())
    return refs


def _module_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return defs


def _unreferenced(definitions: dict[str, ast.AST], refs) -> list[str]:
    """The defined names that no reference outside their own definition reads."""
    used = {name for name, node in definitions.items()
            if any(ref == name.rsplit(".", 1)[-1] and id(node) not in where for ref, where in refs)}
    return sorted(set(definitions) - used - UNREFERENCED_ALLOWED)


def test_every_export_has_a_library_caller():
    trees = _library_trees()
    definitions = {}
    for stem, tree in trees.items():
        defs = _module_definitions(tree)
        exported = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        )
        assert [name for name in exported if name not in defs] == [], f"sdembed.{stem} re-exports"
        definitions.update((f"{stem}.{name}", defs[name]) for name in exported)
    assert _unreferenced(definitions, _references(trees)) == []


def test_every_public_polynomial_method_has_a_library_caller():
    trees = _library_trees()
    polynomial = _module_definitions(trees["polynomial"])["Polynomial"]
    methods = {
        f"Polynomial.{node.name}": node for node in polynomial.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert len(methods) >= 5
    assert _unreferenced(methods, _references(trees)) == []

import argparse
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdembed
from sdembed import cli
from sdembed.baseline import Dataset, TrainConfig, TrainResult
from sdembed.dual import DualCoefficients
from sdembed.evaluate import RadialErrorProfile
from sdembed.mc import SimConfig, TrajectoryEnsemble
from sdembed.network import SigmoidNet

MODULES = ["sdembed", *(f"sdembed.{info.name}" for info in pkgutil.iter_modules(sdembed.__path__))]
SRC = Path(sdembed.__file__).parent
# the benchmark harness reads library attributes too (`perfbench/spans.py`)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Names that may stay public with no caller in the library, each with its reason.
UNREFERENCED_ALLOWED: set[str] = set()


def test_runtime_imports_no_scipy():
    """The package and its CLI run on numpy alone: scipy is a test-only dependency."""
    code = ("import sys\nimport sdembed\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "import sdembed.cli\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split("\n") == ["[]", "[]", ""]


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
    assert {"Polynomial.dim", "Polynomial.shift", "Polynomial.evaluate"} <= methods.keys()
    assert _unreferenced(methods, _references(trees)) == []


def _members(cls: ast.ClassDef) -> dict[str, ast.AST]:
    """A class's dataclass fields, properties and public methods."""
    is_dataclass = any(
        getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in cls.decorator_list
    )
    members = {}
    for node in cls.body:
        if is_dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members[node.target.id] = node
        elif isinstance(node, ast.FunctionDef):
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            if not node.name.startswith("_") or decorators & {"property", "cached_property"}:
                members[node.name] = node
    return members


def _attribute_reads(trees) -> list[tuple[str, frozenset]]:
    """Every attribute loaded in the given modules, with the ids of the nodes
    that enclose it."""
    reads = []

    def visit(node, enclosing):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, enclosing))
        inner = enclosing | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    for tree in trees:
        visit(tree, frozenset())
    return reads


def test_every_class_member_is_read():
    """Every dataclass field, property and public method of a library class
    is read as an attribute somewhere in the library or the benchmark.

    A read inside the member's own definition, or inside its class's
    `__init__` or `__post_init__` (where fields are stored and validated),
    does not count.  The match is by attribute name, so a member sharing its
    name with a read attribute of another object passes unchecked.
    """
    trees = _library_trees()
    benchmark = [ast.parse(p.read_text()) for p in sorted(PERFBENCH.glob("*.py"))]
    reads = _attribute_reads([*trees.values(), *benchmark])
    unread = []
    for stem, tree in trees.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            setup = {id(node) for node in cls.body
                     if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__post_init__")}
            for name, node in _members(cls).items():
                ignored = setup | {id(node)}
                if not any(attr == name and not where & ignored for attr, where in reads):
                    unread.append(f"{stem}.{cls.name}.{name}")
    assert unread == []


def _placed(predicate) -> set[str]:
    """`module.function` (methods as `module.Class.method`) of the innermost
    function around every library node the predicate accepts; docstrings are
    not searched."""
    found = set()

    def visit(node, where):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if predicate(node):
            found.add(where)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for stem, tree in _library_trees().items():
        visit(tree, stem)
    return found


def test_records_and_tables_are_each_written_in_one_place():
    """Only `polynomial._freeze` sets a frozen record's fields, and only
    `polynomial._csv_text` builds a %r row template or joins rows."""

    def setattr_call(node):
        return isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"

    def row_format(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str) and "%r" in node.value
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "'\\n'.join"

    assert _placed(setattr_call) == {"polynomial._freeze"}
    assert _placed(row_format) == {"polynomial._csv_text"}


_NET = {"out_weights": [1.0, 2.0], "in_weights": [[0.5], [-0.5]], "biases": [0.0, 1.0]}


@pytest.mark.parametrize(
    "record, fields",
    [
        (Dataset, {"inputs": np.zeros((3, 2)), "targets": np.zeros(3), "generator_fingerprint": ""}),
        (TrajectoryEnsemble, {"final": np.zeros((3, 2)), "blown": np.zeros(3, bool),
                              "config": SimConfig(dt=0.1, horizon=0.0, paths=3)}),
        (TrainResult, {"net": SigmoidNet(**_NET), "loss_trace": np.ones(2), "config": TrainConfig(hidden=2)}),
        (DualCoefficients, {"index_set": np.array([[0], [1]]), "values": np.ones(2), "t": 0.0}),
        (RadialErrorProfile, {"band_edges": np.array([0.0, 1.0, 2.0]), "mse": np.ones(2)}),
        (SigmoidNet, {name: np.array(value) for name, value in _NET.items()}),
    ],
    ids=["Dataset", "TrajectoryEnsemble", "TrainResult", "DualCoefficients", "RadialErrorProfile", "SigmoidNet"],
)
def test_records_keep_read_only_copies(record, fields):
    """A record stores each array field read-only, as its own copy unless
    nothing else can write to it: the caller's arrays stay writable, and
    writing them, or the base of a read-only view of them, leaves the record
    as built; a read-only array that owns its memory is kept as is."""
    given = {name: value for name, value in fields.items() if isinstance(value, np.ndarray)}
    arrays = {name: value.copy() for name, value in given.items()}
    built = record(**{**fields, **arrays})
    for name, array in arrays.items():
        stored = getattr(built, name)
        before = stored.copy()
        assert not stored.flags.writeable and not np.shares_memory(stored, array)
        assert array.flags.writeable
        array[...] = 1
        assert np.array_equal(stored, before)

    bases = {name: value.copy() for name, value in given.items()}
    views = {name: base[...] for name, base in bases.items()}
    for view in views.values():
        view.flags.writeable = False
    built = record(**{**fields, **views})
    for name, base in bases.items():
        stored = getattr(built, name)
        before = stored.copy()
        assert not stored.flags.writeable and not np.shares_memory(stored, base)
        base[...] = 2
        assert np.array_equal(stored, before)

    owners = {name: value.copy() for name, value in given.items()}
    for owner in owners.values():
        owner.flags.writeable = False
    built = record(**{**fields, **owners})
    for name, owner in owners.items():
        assert np.shares_memory(getattr(built, name), owner)


def test_no_except_tuple_lists_a_class_with_its_base():
    """An `except (A, B)` that names B together with a subclass A catches
    nothing more than `except B`: the subclass is a second name for one
    handler."""
    redundant = []
    for name in MODULES:
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple):
                classes = [(ast.unparse(elt), eval(ast.unparse(elt), vars(module))) for elt in node.type.elts]
                redundant += [
                    f"{name}:{node.lineno}: {sub} is a {base}"
                    for sub, sub_cls in classes
                    for base, base_cls in classes
                    if sub_cls is not base_cls and issubclass(sub_cls, base_cls)
                ]
    assert redundant == []


@pytest.mark.parametrize("command", ["dual", "fit", "mc", "train-baseline", "eval"])
def test_every_parsed_option_is_read(command, tmp_path, monkeypatch):
    """A small valid run of each command reads every option it parses.

    An option that the command parses but never reads is a flag the user can
    set to no effect.  Only attribute reads on the parsed namespace count:
    the manifest copies the namespace with `vars`, which reads no option.
    """
    monkeypatch.chdir(tmp_path)
    setup = "dual ou --order 1 --N 4 --t 1 --out ou.csv"
    argv = {
        "dual": setup,
        "fit": "fit --dual ou.csv --hidden 2 --restarts 1 --max-iterations 2 --out net.json",
        "mc": "mc ou --x0 1 --t 0.02 --dt 0.01 --paths 10 --m 1 --out states.csv",
        "train-baseline": "train-baseline --dual ou.csv --size 10 --box -1 1 --hidden 2 --epochs 1 "
        "--dataset-out data.csv --out baseline.json",
        "eval": "eval --pred dual:ou.csv --line -1 1 3 --out line.csv",
    }[command].split()
    if command != "dual":
        assert cli.main(setup.split()) == 0
    reads = set()

    class Recorded(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli._build_parser().parse_args(argv, namespace=Recorded())
    # built before the clear, so the run record's own reads do not count for the command
    run = cli._Run(args)
    reads.clear()
    assert isinstance(args.func(args, run), str)
    assert sorted(set(vars(args)) - {"func", "command"} - reads) == []

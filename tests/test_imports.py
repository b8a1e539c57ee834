"""Import hygiene of the package, checked with the standard ``ast`` module.

Every name a module, a test or a tool imports must be used in it, so a
symbol that loses its last caller also loses its import. ``__init__.py``
is exempt: its imports are the public re-exports, and every name in
``__all__`` must resolve on the package, none of them a ``Test*`` name
that pytest would try to collect. The core modules import only the
layers below them: the greedy and the schedulers sit on ``errors`` and ``instances``,
the oracle adds ``scheduling``, and ``solvers`` and ``cli`` sit above.
Importing the package loads none of the modules only the CLI or an
introspection needs, and no name CHANGES.md lists as removed comes back.
A test imports only the standard library, the package, the test extras
``pyproject.toml`` lists and the local helpers; a tool under ``tools/``
imports only the standard library.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path
from typing import Iterator, Set

import pytest

import fairchores

PACKAGE = Path(fairchores.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> Iterator[str]:
    """Each name a top-level or nested import binds, except __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)


def annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree: ast.Module) -> Set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> Set[str]:
    tree = ast.parse(source)
    return set(imported_names(tree)) - used_names(tree)


def test_the_checker_flags_an_unused_import():
    source = "from typing import List, Tuple\nimport os.path\n\nx: 'List[int]' = []\n"
    assert unused_imports(source) == {"Tuple", "os"}


TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TOOLS + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == set()


# What a test may import besides the standard library: the package, the
# test extras pyproject.toml lists, and the local helpers (conftest, and
# perfbench's run and workloads, which test_pins puts on the path, and
# tools' mutants, which test_mutants puts there).
TEST_IMPORTS = {"fairchores", "pytest", "hypothesis", "conftest", "workloads", "run", "mutants"}


def top_level_imports(source: str) -> Set[str]:
    """The top-level module of every absolute import, at any depth."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            modules.update(a.name.split(".")[0] for a in node.names)
    return modules


def test_the_checker_finds_every_imported_module():
    source = "import os.path, yaml as y\nfrom . import x\n\ndef f():\n    from scipy import t\n"
    assert top_level_imports(source) == {"os", "yaml", "scipy"}


def test_tests_import_only_the_stdlib_the_package_and_the_test_extras():
    allowed = sys.stdlib_module_names | TEST_IMPORTS
    foreign = {path.name: top_level_imports(path.read_text()) - allowed for path in TESTS}
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_tools_import_only_the_stdlib():
    stdlib = sys.stdlib_module_names
    foreign = {path.name: top_level_imports(path.read_text()) - stdlib for path in TOOLS}
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def relative_imports(source: str) -> Set[str]:
    """The package modules a module imports from, as ``from .x import``."""
    tree = ast.parse(source)
    return {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}


LAYERS_BELOW = {
    "greedy": {"errors", "instances"},
    "scheduling": {"errors", "instances"},
    "oracle": {"errors", "instances", "scheduling"},
}


@pytest.mark.parametrize("module", sorted(LAYERS_BELOW))
def test_core_modules_import_only_the_layers_below(module):
    assert relative_imports((PACKAGE / f"{module}.py").read_text()) == LAYERS_BELOW[module]


def test_every_exported_name_is_the_package_own_and_distinct():
    # An alias of another module's object, or a second name for one of
    # ours, adds a public name without adding a capability.
    exported = {name: getattr(fairchores, name) for name in fairchores.__all__}
    foreign = [
        name
        for name, obj in exported.items()
        if not getattr(obj, "__module__", "").startswith("fairchores")
    ]
    assert foreign == []
    assert len({id(obj) for obj in exported.values()}) == len(exported)


def test_every_exported_name_resolves():
    missing = [name for name in fairchores.__all__ if not hasattr(fairchores, name)]
    assert missing == []
    assert len(set(fairchores.__all__)) == len(fairchores.__all__)


def test_no_exported_name_looks_like_a_test_class():
    # pytest collects a ``Test*`` class wherever a test module imports
    # it, and with warnings as errors a record of that name fails the
    # module's collection.
    assert [name for name in fairchores.__all__ if name.startswith("Test")] == []


# Loaded by the CLI, by a JSON file read or by introspection, never by
# ``import fairchores``: the records are plain classes, not dataclasses.
NOT_ON_THE_IMPORT_PATH = {"dataclasses", "inspect", "json", "argparse", "csv"}


def test_import_loads_only_what_the_library_needs():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fairchores; "
        "print(sorted(set(sys.argv[2:]) & set(sys.modules))); "
        "print(fairchores.run_cli.__module__, 'argparse' in sys.modules)"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(src), *sorted(NOT_ON_THE_IMPORT_PATH)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.splitlines() == ["[]", "fairchores.cli True"]


# The removed names CHANGES.md lists (README's "Removed" until it moved
# there): public names, then fields and methods of records.
REMOVED_NAMES = (
    "classify_chores",
    "search_bounds",
    "SearchBounds",
    "LptResult",
    "BoundCertificate",
    "TraceEntry",
    "is_ido",
    "Ratio",
    "TestOutcome",
)
REMOVED_ATTRIBUTES = (
    ("PolyResult", "certificates"),
    ("GreedyResult", "trace"),
    ("PolyResult", "trace"),
    ("ExistenceResult", "trace"),
    ("Instance", "total"),
    ("GreedyResult", "round_bundles"),
)


def test_removed_names_stay_removed():
    modules = [fairchores] + [importlib.import_module(f"fairchores.{p.stem}") for p in MODULES]
    back = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in REMOVED_NAMES
        if hasattr(module, name)
    ]
    assert back == []
    for cls_name, name in REMOVED_ATTRIBUTES:
        cls = getattr(fairchores, cls_name)
        assert name not in cls._fields and not hasattr(cls, name), (cls_name, name)
    assert list(inspect.signature(fairchores.lift_allocation).parameters) == ["ordd", "ord_alloc"]
    # The assembled constructor: an ordered instance is built from its source.
    assert fairchores.OrderedInstance._fields == ("source",)
    sorted_rows = fairchores.Instance.from_rows([[1]])
    with pytest.raises(TypeError):
        fairchores.OrderedInstance(instance=sorted_rows, source_ranks=((0,),))

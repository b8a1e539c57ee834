"""Import hygiene of the package, checked with the standard ``ast`` module.

Every name a module imports must be used in it, so a symbol that loses
its last caller also loses its import. ``__init__.py`` is exempt: its
imports are the public re-exports, and every name in ``__all__`` must
resolve on the package. The core modules import only the layers below
them: the greedy and the schedulers sit on ``errors`` and ``instances``,
the oracle adds ``scheduling``, and ``solvers`` and ``cli`` sit above.
"""

from __future__ import annotations

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == set()


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

"""Every module of the package uses every name it imports.

Each ``src/entmatch`` module except ``__init__`` (whose imports are its
exports) is parsed with ``ast``. A name counts as used when it is read
anywhere in the module, annotations included, also inside a string
annotation such as ``-> "Corpus"``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import entmatch

MODULES = sorted(
    p for p in Path(entmatch.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names[name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            annotation = getattr(node, field, None)
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _used(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text("utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"

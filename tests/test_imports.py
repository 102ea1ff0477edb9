"""Every module of the package uses every name it imports; none loads numpy;
the package root loads no submodule; ``import entmatch.cli`` loads no
``statistics``; the per-record value classes are slotted and not frozen;
one function raises ``UncoveredRecordsError``.

Each ``src/entmatch`` module is parsed with ``ast``. A name counts as used
when it is read anywhere in the module, annotations included, also inside
a string annotation such as ``-> "Corpus"``.

``import entmatch`` binds ``__version__`` only: every other name is
imported from its submodule, so the root re-exports nothing.

numpy is imported only inside the functions that run the model, so a
module-level ``import numpy`` anywhere in the package, ``__init__``
included, is an error unless it sits under ``if TYPE_CHECKING:``.

A class built once per mention, record or input line is a
``@dataclass(slots=True)`` without ``frozen=True``: a frozen dataclass
sets each field through ``object.__setattr__``, which makes every
instance about three times as costly to build.

Every verdict source (classifier, external decisions, expert scores) must
cover every Type-5 record, and ``metrics.check_covered`` is the one check
of that: no other function raises ``UncoveredRecordsError``.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import entmatch

ALL_MODULES = sorted(Path(entmatch.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text("utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def _import_time_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements run when the module is imported: not those in a function
    body, nor those under ``if TYPE_CHECKING:``."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            yield from _import_time_statements(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(node, field, []))


def _imported_modules(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module]
    return []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_module_does_not_import_numpy_at_import_time(path):
    tree = ast.parse(path.read_text("utf-8"))
    lines = [
        node.lineno
        for node in _import_time_statements(tree.body)
        for module in _imported_modules(node)
        if module.split(".")[0] == "numpy"
    ]
    assert not lines, f"{path.name}: module-level numpy import on lines {lines}"


_ROOT_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import entmatch\n"
    "print(sorted(m for m in sys.modules if m.startswith('entmatch.')))\n"
    "print(sorted(n for n in vars(entmatch) if not n.startswith('_')))\n"
)


def test_package_root_loads_no_submodule():
    # a child interpreter: this one has imported every submodule already
    package_parent = str(Path(entmatch.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _ROOT_CHILD, package_parent],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    submodules, public = result.stdout.splitlines()
    assert submodules == "[]", f"import entmatch loaded {submodules}"
    assert public == "[]", f"import entmatch binds {public}"


_CLI_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import entmatch.cli\n"
    "print(sorted(m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules))\n"
)


def test_cli_import_leaves_statistics_unloaded():
    # statistics (and the fractions and decimal it loads) is imported by
    # the one function that uses it, so commands without it skip the cost
    package_parent = str(Path(entmatch.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _CLI_CHILD, package_parent],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", f"import entmatch.cli loaded {result.stdout}"


PER_RECORD_CLASSES = [
    ("corpus", "EntityMention"),
    ("matcher", "MatchRecord"),
    ("classifier", "Decision"),
    ("judgement", "JudgementRecord"),
    ("clsdata", "LabeledText"),
]


def _dataclass_keywords(module: str, name: str) -> dict[str, object]:
    """The keyword arguments of the ``@dataclass(...)`` decorating a class."""
    tree = ast.parse((Path(entmatch.__file__).parent / f"{module}.py").read_text("utf-8"))
    node = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name
    )
    call = next(
        d
        for d in node.decorator_list
        if isinstance(d, ast.Call) and ast.unparse(d.func) == "dataclass"
    )
    return {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}


@pytest.mark.parametrize(
    "module, name", PER_RECORD_CLASSES, ids=[n for _, n in PER_RECORD_CLASSES]
)
def test_per_record_class_is_slotted_and_not_frozen(module, name):
    keywords = _dataclass_keywords(module, name)
    assert keywords.get("slots") is True, f"{module}.{name} must be slots=True"
    assert not keywords.get("frozen"), f"{module}.{name} must not be frozen=True"


def test_uncovered_records_are_raised_in_one_function():
    raisers = []
    for path in ALL_MODULES:
        tree = ast.parse(path.read_text("utf-8"))
        functions = [
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            if "UncoveredRecordsError" not in ast.unparse(node.exc):
                continue
            # the innermost function that holds the raise, or the module
            owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
            raisers.append(f"{path.stem}.{owner}")
    assert raisers == ["metrics.check_covered"]

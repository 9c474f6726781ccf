"""Source hygiene: every imported name is used by the file importing it,
and every ``__all__`` entry of the library names a module-level
definition.

No linter ships with the toolchain, so this scans the syntax trees of
the library modules (the package ``__init__`` re-exports on purpose)
and of the test files.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "fptree").glob("*.py"))
FILES = [p for p in MODULES if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == [(2, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def stale_exports(source: str):
    """The ``__all__`` entries bound by no top-level def, class or
    assignment of the module."""
    tree = ast.parse(source)
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                defined.add(target.id)
                if target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return sorted(name for name in exported if name not in defined)


def test_scan_flags_a_stale_export():
    source = "__all__ = ['pi', 'tau', 'Law']\npi = 3.14\nclass Law: pass\n"
    assert stale_exports(source) == ["tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []

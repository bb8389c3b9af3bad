"""The package runs on the standard library alone: every import in
src/riftpuzzles/ is relative or names a standard-library module, and the
project declares no dependencies."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "riftpuzzles"


def imported_modules(tree):
    """(line, top-level module name) of every absolute import in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in modules
        for line, name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_project_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    start = lines.index("[project]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    assert [line for line in lines[start:end] if line.startswith("dependencies")] == ["dependencies = []"]

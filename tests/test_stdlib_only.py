"""The package runs on the standard library alone: every import in
src/riftpuzzles/ is relative or names a standard-library module, and the
project declares no dependencies."""

import ast
import builtins
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


def test_the_lattice_stays_in_one_module():
    # geometry owns the bitboard, the grid BFS that floods it and the corner
    # pass that reads it: it imports nothing of the package, and no other
    # module names the bitboard or its bit loop
    tree = ast.parse((PACKAGE / "geometry.py").read_text(encoding="utf-8"))
    relative = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == [] and "riftpuzzles" not in {name for _, name in imported_modules(tree)}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "geometry.py":
            # a name read, an attribute, an imported or a defined name
            nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            names = {getattr(node, key, None) for node in nodes for key in ("id", "attr", "name")}
            assert names & {"_packed", "_Bitboard", "_bits"} == set(), path.name


def test_one_give_up_class():
    # a search that stops without a verdict raises BudgetExhausted, whether
    # a budget ran out or a size limit refused the instance; a second give-up
    # class, or any new exception class, fails here until it is named
    bases = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[f"{path.stem}.{node.name}"] = tuple(ast.unparse(base) for base in node.bases)
    kinds = vars(builtins).items()
    raised = {name for name, kind in kinds if isinstance(kind, type) and issubclass(kind, BaseException)}
    for _ in bases:  # a class derived from one of the package's exceptions is one too
        found = {name: of for name, of in bases.items() if raised.intersection(of)}
        raised |= {name.split(".")[1] for name in found}
    assert found == {
        "cli.CliError": ("Exception",),
        "cli._Unreadable": ("Exception",),
        "crystal_bonds.UnreachableCrystal": ("ValueError",),
        "geometry.PointOutsideRegion": ("ValueError",),
        "graphs.BudgetExhausted": ("RuntimeError",),
        "instance_io.ParseError": ("ValueError",),
    }

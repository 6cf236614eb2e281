"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fleetsim"
MODULES = sorted(SRC.rglob("*.py"))
# every tree whose code may read a name the package defines
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))
# the trees that make up the program: the package and the benchmark that drives it
PROGRAM = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return sorted(set(imported) - used)


def defined_names(source: str) -> list[str]:
    """Functions, classes and variables a module defines at its top level, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(source: str) -> set[str]:
    """Every name a module reads: loaded names, attributes, imported names and
    string constants (``__all__`` entries, names wrapped by their string)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def imported_modules(path: Path) -> set[str]:
    """The absolute names of the ``fleetsim`` modules that a package module imports."""
    package = ["fleetsim", *path.relative_to(SRC).parent.parts]
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            out.add(module)
            out |= {f"{module}.{a.name}" for a in node.names}
    return {m for m in out if m == "fleetsim" or m.startswith("fleetsim.")}


def test_finds_the_modules():
    assert SRC / "sim.py" in MODULES and SRC / "harness" / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_layering():
    """The library does not import the harness, and the two policies do not import each other."""
    imports = {".".join(p.relative_to(SRC).with_suffix("").parts): imported_modules(p)
               for p in MODULES}
    assert [m for m, names in imports.items() if not m.startswith("harness")
            and any(n.startswith("fleetsim.harness") for n in names)] == []
    assert not any(n.startswith("fleetsim.rhc") for n in imports["dqn"])
    assert not any(n.startswith("fleetsim.dqn") for n in imports["rhc"])


def test_import_resolution():
    assert imported_modules(SRC / "dqn.py") >= {"fleetsim.geo", "fleetsim.geo.mismatch",
                                                 "fleetsim.sim.DispatchOrder"}
    assert "fleetsim.rhc.ZoneTableError" in imported_modules(SRC / "harness" / "cli.py")
    assert "fleetsim.dqn" in imported_modules(SRC / "harness" / "experiment.py")


def test_unused_import_detection():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom .a import b, c as d, e\n"
              "__all__ = ['e']\n"
              "def f():\n    from .g import h\n    return np.zeros(d)\n")
    assert unused_imports(source) == ["b", "h", "os"]


def unread_names(readers: list[Path]) -> list[str]:
    """``module:name`` of each module-level name in the package that no file in
    ``readers`` reads."""
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in readers))
    return [f"{path.relative_to(SRC)}:{name}" for path in MODULES
            for name in defined_names(path.read_text(encoding="utf-8")) if name not in read]


def test_every_module_level_name_is_read():
    assert unread_names(READERS) == []


def test_no_module_level_name_is_read_only_by_tests_or_demos():
    """Code that only tests and demos run belongs with them: a test's
    reference implementation in ``tests/oracles.py``, a demo's helper in the demo."""
    assert unread_names(PROGRAM) == []


def test_unread_name_detection():
    source = ("X = 1\nY: int = 2\n_z, W = 3, 4\n__version__ = '0'\n"
              "def f():\n    return X + g.W\nclass C:\n    attr = 5\n"
              "def unused():\n    pass\n__all__ = ['C']\n")
    assert defined_names(source) == ["X", "Y", "_z", "W", "f", "C", "unused"]
    read = read_names(source)
    assert [n for n in defined_names(source) if n not in read] == ["Y", "_z", "f", "unused"]

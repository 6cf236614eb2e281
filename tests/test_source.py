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


def defaulted_parameters(source: str) -> dict[str, set[str]]:
    """The parameters with a default of each function and class a module defines at
    its top level: a class's are its ``__init__``'s or, without one, the fields its
    body gives a value, as a dataclass's."""
    def defaulted(args: ast.arguments) -> set[str]:
        positional = args.posonlyargs + args.args
        names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
        return set(names) | {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None}

    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = defaulted(node.args)
        elif isinstance(node, ast.ClassDef):
            init = [n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
            out[node.name] = defaulted(init[0].args) if init else {
                n.target.id for n in node.body if isinstance(n, ast.AnnAssign)
                and isinstance(n.target, ast.Name) and n.value is not None}
    return out


def config_fed_defaults(path: Path, source: str | None = None) -> list[str]:
    """``callee:parameter`` of each keyword argument that the package module at ``path``
    (or ``source``, read as that module) passes as exactly ``cfg.<field>`` to a
    parameter with a default.

    The callee is a function or class that the module defines, or imports from the
    package by name or through an imported package module; other calls are skipped.
    """
    source = path.read_text(encoding="utf-8") if source is None else source
    tree = ast.parse(source)
    package = path.relative_to(SRC).parent.parts
    modules, names = {}, {}  # local name -> module file, or -> (module file, name)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = (path, node.name)
        elif isinstance(node, ast.ImportFrom) and node.level:
            parts = [*package[:len(package) - node.level + 1],
                     *(node.module.split(".") if node.module else [])]
            for a in node.names:
                module = SRC.joinpath(*parts, a.name + ".py")
                if module.exists():
                    modules[a.asname or a.name] = module
                else:
                    names[a.asname or a.name] = (SRC.joinpath(*parts).with_suffix(".py"), a.name)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            module, name = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            module, name = modules[func.value.id], func.attr
        else:
            continue
        callee = source if module == path else module.read_text(encoding="utf-8")
        defaults = defaulted_parameters(callee).get(name, set())
        found |= {f"{name}:{k.arg}" for k in node.keywords
                  if isinstance(k.value, ast.Attribute) and isinstance(k.value.value, ast.Name)
                  and k.value.value.id == "cfg" and k.arg in defaults}
    return sorted(found)


# what runs code beside the program's one thread: modules, and functions of ``os``
CONCURRENCY = ("multiprocessing", "concurrent.futures", "threading", "_thread",
               "os.fork", "os.forkpty")


def concurrency_uses(source: str) -> list[str]:
    """The names in ``CONCURRENCY`` that a module imports, or reads as ``os.<name>``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os"):
            names.append(f"os.{node.attr}")
    return sorted({c for c in CONCURRENCY for n in names
                   if n == c or n.startswith(c + ".")})


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


def test_only_set_up_runs_a_second_process():
    """The simulator and the policies run in one thread of one process, which the
    benchmark's timings assume; only set-up forks its demand-fit worker."""
    uses = {str(p.relative_to(SRC)): concurrency_uses(p.read_text(encoding="utf-8"))
            for p in MODULES}
    assert {m: u for m, u in uses.items() if u} == {"harness/experiment.py": ["multiprocessing"]}


def test_concurrency_detection():
    source = ("import os, threading\nimport multiprocessing.pool as mp\n"
              "from concurrent import futures\nfrom os import forkpty\n"
              "from .threading import x\nimport concurrent\n"
              "def f():\n    return os.fork(), os.getpid()\n")
    assert concurrency_uses(source) == ["concurrent.futures", "multiprocessing", "os.fork",
                                        "os.forkpty", "threading"]


def region_map_constructions(source: str) -> list[str]:
    """The dotted scope of each call that constructs a ``RegionMap``: a call of
    ``RegionMap`` by name or attribute, or of ``cls`` inside ``class RegionMap``."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name], in_class or (
                    isinstance(child, ast.ClassDef) and child.name == "RegionMap"))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if ((isinstance(func, ast.Name) and (func.id == "RegionMap"
                                                     or func.id == "cls" and in_class))
                        or (isinstance(func, ast.Attribute) and func.attr == "RegionMap")):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope, in_class)

    visit(ast.parse(source), [], False)
    return found


def test_one_builder_of_the_partitions():
    """Every region and zone map is the config's block layout: nothing in the
    package constructs a ``RegionMap`` but ``synth.city_layout``, once for the
    regions and once for the zones."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in region_map_constructions(p.read_text(encoding="utf-8"))]
    assert found == ["harness/synth.py:city_layout"] * 2


def test_region_map_construction_detection():
    source = ("from . import geo\nfrom .geo import RegionMap\n"
              "IDENTITY = RegionMap(a, 1)\n"
              "class RegionMap:\n"
              "    @classmethod\n    def load(cls, path):\n        return cls(read(path), 2)\n"
              "class Other:\n    def make(cls):\n        return cls(1)\n"
              "def f(a):\n    def g():\n        return geo.RegionMap(a, 3)\n"
              "    return g(), region_map(a), RegionMap.identity(a)\n")
    assert region_map_constructions(source) == ["<module>", "RegionMap.load", "f.g"]


def request_constructions(source: str) -> list[str]:
    """The dotted scope of each call of ``RideRequest``, by name or attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if ((isinstance(func, ast.Name) and func.id == "RideRequest")
                        or (isinstance(func, ast.Attribute) and func.attr == "RideRequest")):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_the_simulator_builds_requests():
    """A city's trips are ``sim.Trips`` columns: no module but ``sim.py``, where
    ``Trips`` reads its rows, constructs a ``RideRequest``."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in request_constructions(p.read_text(encoding="utf-8"))]
    assert found == ["sim.py:Trips._row"]


def test_request_construction_detection():
    source = ("from . import sim\nfrom .sim import RideRequest\n"
              "FIRST = RideRequest(0, 0.0, a, b, 1.0, 1.0)\n"
              "class Reader:\n    def row(self, i):\n        return sim.RideRequest(i)\n"
              "def f(rows):\n    def g(r):\n        return RideRequest(*r)\n"
              "    return [g(r) for r in rows], RideRequest.__name__, ride_request(rows)\n")
    assert request_constructions(source) == ["<module>", "Reader.row", "f.g"]


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


def test_config_fed_parameters_have_no_default():
    """``ExperimentConfig`` owns every experiment setting: a parameter that the
    experiment feeds from the config keeps no default that could drift from it."""
    assert config_fed_defaults(SRC / "harness" / "experiment.py") == []


def test_config_fed_default_detection():
    source = ("from .. import sim as sim_mod\nfrom ..sim import Simulation\n"
              "def f(a, b=1, *, c, d=2):\n    pass\n"
              "class K:\n    x: int\n    y: int = 3\n"
              "class M:\n    def __init__(self, p, q=None):\n        pass\n"
              "def run(cfg, other):\n"
              "    f(cfg.a, b=cfg.b, c=cfg.c, d=cfg.d)\n"
              "    f(1, b=cfg.b + 1, c=2, d=other.d)\n"
              "    K(x=cfg.x, y=cfg.y)\n"
              "    M(p=cfg.p, q=cfg.q)\n"
              "    other.f(b=cfg.b)\n"
              "    sim_mod.idle_mask(window=cfg.w, t=cfg.t)\n"
              "    Simulation(policy=cfg.p, warmup=cfg.w)\n")
    assert defaulted_parameters(source) == {"f": {"b", "d"}, "K": {"y"}, "M": {"q"},
                                            "run": set()}
    # the package's sim.idle_mask has no defaults, and sim.Simulation one for policy
    assert config_fed_defaults(SRC / "harness" / "experiment.py", source) == \
        ["K:y", "M:q", "Simulation:policy", "f:b", "f:d"]

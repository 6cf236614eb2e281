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
    assert "fleetsim.neural.CheckpointError" in imported_modules(SRC / "harness" / "cli.py")
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


def package_imports(source: str, package: str) -> list[str]:
    """The module named by each ``import`` or absolute ``from ... import`` statement of
    a module, at any depth, that is ``package`` or a module under it."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] == package]


def test_no_module_imports_scipy():
    """The LP solver loads HiGHS's extension by its path (``lp.highs_bindings``):
    an import of any scipy module runs the ``scipy`` package first, and one under
    ``scipy.optimize`` runs that whole package, which costs the RHC policy 46 MB."""
    found = {str(p.relative_to(SRC)): package_imports(p.read_text(encoding="utf-8"), "scipy")
             for p in MODULES}
    assert {m: names for m, names in found.items() if names} == {}


def test_scipy_import_detection():
    source = ("import os, scipy.optimize._highspy._core\nfrom scipy.optimize import linprog\n"
              "from .scipy import x\nimport scipyx\nfrom importlib import util\n"
              "def f():\n    from scipy import sparse\n    return sparse\n")
    assert package_imports(source, "scipy") == ["scipy.optimize._highspy._core",
                                                "scipy.optimize", "scipy"]


def test_only_blas_and_set_up_reach_into_native_libraries():
    """``ctypes`` calls C with no check of its arguments: only :mod:`blas`, which pins
    numpy's OpenBLAS to one thread, and the set-up's demand-fit worker, which sets
    its own allocator with libc's ``mallopt``, use it."""
    found = {str(p.relative_to(SRC)): package_imports(p.read_text(encoding="utf-8"), "ctypes")
             for p in MODULES}
    assert {m: names for m, names in found.items() if names} == {
        "blas.py": ["ctypes"], "harness/experiment.py": ["ctypes"]}


def test_ctypes_import_detection():
    source = ("import os, ctypes.util\nfrom ctypes import CDLL\nfrom .ctypes import x\n"
              "import ctypesx\ndef f():\n    import ctypes as c\n    return c\n")
    assert package_imports(source, "ctypes") == ["ctypes.util", "ctypes", "ctypes"]


# what reads or writes a file of numpy arrays, and what encodes bytes as text
MODEL_FILE_IO = ("np.load", "np.save", "np.savez", "np.savez_compressed", "base64")


def model_file_io(source: str) -> list[str]:
    """The names in ``MODEL_FILE_IO`` that a module calls as ``np.<name>``, or
    imports by ``import`` or ``from ... import``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names += [node.module] + [f"np.{a.name}" for a in node.names
                                      if node.module in ("numpy", "numpy.lib.npyio")]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
            names.append(f"np.{node.func.attr}")
    return sorted({n.split(".")[0] if n.startswith("base64") else n for n in names}
                  & set(MODEL_FILE_IO))


def test_only_neural_reads_or_writes_model_files():
    """Every trained model is float64 arrays in an ``.npz`` file that
    ``neural.write_model_file`` writes and ``neural.read_model_file`` checks:
    no other module loads or saves numpy files, or encodes arrays as text."""
    found = {str(p.relative_to(SRC)): model_file_io(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {m: names for m, names in found.items() if names} == \
        {"neural.py": ["np.load", "np.savez"]}


def test_model_file_io_detection():
    source = ("import base64.binascii\nimport numpy as np\nfrom numpy import savez_compressed\n"
              "from .base64 import x\n"
              "def f(path, a):\n    np.save(path, a)\n    return np.loadtxt(path), np.load\n"
              "def g(path):\n    with numpy.load(path) as data:\n        return data\n")
    assert model_file_io(source) == ["base64", "np.load", "np.save", "np.savez_compressed"]


def file_reads(source: str) -> list[str]:
    """The dotted scope of each call that reads a file: ``read_text`` or
    ``read_bytes``, or ``open``, by name or attribute, with no mode, a mode
    that is not a constant, or a constant mode that reads (``r`` or ``+``)."""
    def reads(node) -> bool:
        if calls(node, "read_text") or calls(node, "read_bytes"):
            return True
        if not calls(node, "open"):
            return False
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        if isinstance(node.func, ast.Attribute) and not modes:
            modes = node.args[:1]  # Path.open(mode)
        return not (modes and isinstance(modes[0], ast.Constant)
                    and not set(modes[0].value) & set("r+"))

    return scopes_where(source, lambda node, scope: reads(node))


def test_no_module_reads_a_city_from_disk():
    """A run's city is its config: the program reads only the config file, the
    model files and their metrics, and the summaries that ``report`` prints."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in file_reads(p.read_text(encoding="utf-8"))]
    assert found == ["harness/cli.py:_cmd_report", "harness/config.py:parse_config",
                     "harness/experiment.py:_read_metrics", "neural.py:read_model_file"]


def test_file_read_detection():
    source = ("import csv\nTEXT = open('a').read()\n"
              "def write(path):\n    with open(path, 'w') as fh, open(path, mode='ab') as g:\n"
              "        path.open('w'), path.open(), fh.write(path.read_bytes())\n"
              "class Reader:\n    def rows(self, path, mode):\n"
              "        return csv.reader(open(path, mode)), open(path, 'r+b'), open(path, 'x')\n"
              "def g(p):\n    return p.read_text(), io.open(p, 'rb'), p.write_text('x'), opener(p)\n")
    assert file_reads(source) == ["<module>", "write", "write", "Reader.rows", "Reader.rows",
                                  "g", "g"]


def file_writes(source: str) -> list[str]:
    """The dotted scope of each call that writes a file: ``write_text``,
    ``write_bytes``, ``save``, ``savez`` or ``savez_compressed``, or ``open``,
    by name or attribute, with a mode that is not a constant or a constant
    mode that writes (``w``, ``a``, ``x`` or ``+``)."""
    def writes(node) -> bool:
        if any(calls(node, name) for name in ("write_text", "write_bytes", "save", "savez",
                                              "savez_compressed")):
            return True
        if not calls(node, "open"):
            return False
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        if isinstance(node.func, ast.Attribute) and not modes:
            modes = node.args[:1]  # Path.open(mode)
        return bool(modes) and not (isinstance(modes[0], ast.Constant)
                                    and not set(modes[0].value) & set("wax+"))

    return scopes_where(source, lambda node, scope: writes(node))


def test_no_module_writes_a_city_to_disk():
    """A run's city is its config: the program writes only the models and their
    metrics, the DQN training log, and each run's summary and plot data."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in file_writes(p.read_text(encoding="utf-8"))]
    assert found == ["dqn.py:write_training_log", "harness/experiment.py:save_models",
                     "harness/experiment.py:write_summary_csv",
                     "harness/experiment.py:emit_plot_data", "neural.py:write_model_file"]


def test_file_write_detection():
    source = ("import numpy as np\nLOG = open('a', 'a')\n"
              "def read(path):\n    with open(path) as fh, open(path, mode='rb') as g:\n"
              "        path.open(), path.open('r'), path.read_bytes(), np.load(path)\n"
              "class Writer:\n    def rows(self, path, mode):\n"
              "        return open(path, mode), open(path, 'r+b'), path.open('x'), opener(path)\n"
              "def g(p):\n    return p.write_text('x'), np.savez(p), io.open(p, 'wb')\n")
    assert file_writes(source) == ["<module>", "Writer.rows", "Writer.rows", "Writer.rows",
                                   "g", "g", "g"]


def scopes_where(source: str, hit) -> list[str]:
    """The dotted scope of each node of ``source`` for which ``hit(node, scope)``
    holds, ``scope`` being the names of the classes and functions around it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if hit(child, scope):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def calls(node, name: str) -> bool:
    """Whether ``node`` is a call of ``name``, by name or attribute."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def layout_constructions(source: str) -> list[str]:
    """The dotted scope of each call that constructs a ``GridSpec`` or a
    ``RegionMap``: a call of either by name or attribute, or of ``cls`` inside
    either class."""
    return scopes_where(source, lambda node, scope: any(
        calls(node, name) or calls(node, "cls") and isinstance(node.func, ast.Name)
        and name in scope for name in ("GridSpec", "RegionMap")))


def test_one_builder_of_the_layout():
    """Every city has the config's layout: nothing in the package constructs a
    ``GridSpec`` or a ``RegionMap`` but ``ExperimentConfig.layout``, once for the
    grid and once, in a loop, for the regions and the zones."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in layout_constructions(p.read_text(encoding="utf-8"))]
    assert found == ["harness/config.py:ExperimentConfig.layout"] * 2


def test_layout_construction_detection():
    source = ("from . import geo\nfrom .geo import GridSpec, RegionMap\n"
              "IDENTITY = RegionMap(a, 1)\n"
              "class RegionMap:\n"
              "    @classmethod\n    def load(cls, path):\n        return cls(read(path), 2)\n"
              "class GridSpec:\n"
              "    @classmethod\n    def square(cls, n):\n        return cls(n, n)\n"
              "class Other:\n    def make(cls):\n        return cls(1)\n"
              "def f(a):\n    def g():\n        return geo.RegionMap(a, 3)\n"
              "    return g(), region_map(a), RegionMap.identity(a), a.grid.shape\n"
              "def h(cfg):\n    return geo.GridSpec(cfg.rows, 1, 2.0, o), GridSpec.__name__\n")
    assert layout_constructions(source) == ["<module>", "RegionMap.load", "GridSpec.square",
                                            "f.g", "h"]


def road_constructions(source: str) -> list[str]:
    """The dotted scope of each call that constructs a ``RoadGraph``: a call of
    it by name or attribute, or of ``cls`` inside it."""
    return scopes_where(source, lambda node, scope: calls(node, "RoadGraph") or (
        calls(node, "cls") and isinstance(node.func, ast.Name) and "RoadGraph" in scope))


def test_one_builder_of_the_roads():
    """A city's roads are its grid's lattice: nothing in the package constructs
    a ``RoadGraph`` but ``synth.synth_city``, once."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in road_constructions(p.read_text(encoding="utf-8"))]
    assert found == ["harness/synth.py:synth_city"]


def test_road_construction_detection():
    source = ("from . import roadgraph\nfrom .roadgraph import RoadGraph\n"
              "LATTICE = RoadGraph(grid)\n"
              "class RoadGraph:\n"
              "    @classmethod\n    def of(cls, grid):\n        return cls(grid)\n"
              "class City:\n    def roads(self, cls):\n"
              "        return roadgraph.RoadGraph(self.grid), cls(1)\n"
              "def f(grid):\n    def g():\n        return RoadGraph(grid)\n"
              "    return g(), road_graph(grid), RoadGraph.__name__, isinstance(grid, RoadGraph)\n")
    assert road_constructions(source) == ["<module>", "RoadGraph.of", "City.roads", "f.g"]


def q_input_builds(source: str) -> list[str]:
    """The dotted scope of each call of ``_pooled`` or ``_region_aux``, by name or attribute."""
    return scopes_where(source, lambda node, scope: calls(node, "_pooled")
                        or calls(node, "_region_aux"))


def test_one_builder_of_the_q_input():
    """Dispatch and training value a decision on the same bytes: nothing in the
    package pools the main planes or cuts the aux planes but
    ``dqn.build_feature_planes``, once each."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in q_input_builds(p.read_text(encoding="utf-8"))]
    assert found == ["dqn.py:build_feature_planes"] * 2


def test_q_input_build_detection():
    source = ("from . import dqn\nfrom .dqn import _pooled\n"
              "PLANES = _pooled(maps, rows, cols)\n"
              "class Canvas:\n    def set_supply(self, s):\n"
              "        self.planes = dqn._pooled(s, *self.block)\n"
              "def f(region, shape):\n    def g():\n        return _region_aux(region, shape)\n"
              "    return g(), pooled(region), _region_aux.cache_info(), _pooled\n")
    assert q_input_builds(source) == ["<module>", "Canvas.set_supply", "f.g"]


def request_constructions(source: str) -> list[str]:
    """The dotted scope of each call of ``RideRequest``, by name or attribute."""
    return scopes_where(source, lambda node, scope: calls(node, "RideRequest"))


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


def request_end_uses(source: str) -> list[str]:
    """The dotted scope of each use of an attribute ``pickup`` or ``dropoff``."""
    return scopes_where(source, lambda node, scope: isinstance(node, ast.Attribute)
                        and node.attr in ("pickup", "dropoff"))


def test_no_module_reads_a_request_row():
    """A request stays ``sim.Trips`` columns from synthesis to the simulator's
    matching: only ``Trips.of``, which turns rows into columns,
    reads a row's pickup or dropoff."""
    found = [f"{p.relative_to(SRC)}:{scope}" for p in MODULES
             for scope in request_end_uses(p.read_text(encoding="utf-8"))]
    assert found == ["sim.py:Trips.of"] * 4


def test_request_end_use_detection():
    source = ("FIRST = trips[0].pickup.lat\n"
              "class Reader:\n    def ends(self, r):\n        return r.dropoff, r.pickup_lat\n"
              "def f(rows):\n    def g(r):\n        return r.pickup\n"
              "    pickup = rows[0]\n    return pickup.lat, [g(r) for r in rows]\n")
    assert request_end_uses(source) == ["<module>", "Reader.ends", "f.g"]


# the fields of ``sim.Outcomes`` and ``sim.EpisodeMetrics`` that count an episode
OUTCOME_FIELDS = ("total_requests", "rejects", "accepted", "wait_sum", "cruise_sum",
                  "elapsed_minutes", "occupied_minutes")


def outcome_writes(source: str) -> list[str]:
    """The dotted scope of each statement that assigns, or adds to, an attribute
    named in ``OUTCOME_FIELDS`` or an item of one."""
    def written(target) -> bool:
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(written(t) for t in target.elts)
        if isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr in OUTCOME_FIELDS

    def hit(node, scope) -> bool:
        if isinstance(node, ast.Assign):
            return any(written(t) for t in node.targets)
        return isinstance(node, (ast.AugAssign, ast.AnnAssign)) and written(node.target)

    return scopes_where(source, hit)


def test_only_the_simulator_counts_outcomes():
    """Every outcome is counted, and every sum of them made, in ``sim.py``:
    ``Outcomes.count`` and ``add``, ``EpisodeMetrics.add`` and
    ``Simulation._accrue``.  Other modules read the record, so a counter added
    to it is summed over days and hours with no edit outside ``sim.py``."""
    found = {str(p.relative_to(SRC)): outcome_writes(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {m: scopes for m, scopes in found.items() if scopes and m != "sim.py"} == {}
    assert "Simulation._accrue" in found["sim.py"]


def test_outcome_write_detection():
    source = ("TOTAL.rejects = 0\n"
              "class Day:\n    def add(self, m):\n        self.wait_sum += m.wait_sum\n"
              "        self.occupied_minutes[m.busy] += 1.0\n"
              "def f(m, h):\n    def g():\n        m.hourly[h].accepted, n = 1, 2\n"
              "    m.cruise_sum: float = 0.0\n"
              "    x: float = m.elapsed_minutes\n    m.total = m.total_requests + 1\n"
              "    m.report()['rejects'] = 0\n    rejects = 3\n    return g\n")
    assert outcome_writes(source) == ["<module>", "Day.add", "Day.add", "f.g", "f"]


def write_only_attributes(source: str, cls: str) -> list[str]:
    """The ``self._name`` attributes that class ``cls`` of ``source`` assigns and
    never reads.  Plain, annotated, tuple and augmented assignments write, and
    so does a store into an item of one (``self._x[i] = v``), which reads the
    index but not ``self._x``."""
    body = next(n for n in ast.parse(source).body
                if isinstance(n, ast.ClassDef) and n.name == cls)

    def private(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    stores = []

    def store(target) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                store(t)
        elif isinstance(target, ast.Starred):
            store(target.value)
        elif isinstance(target, ast.Subscript):
            store(target.value)
        elif private(target):
            stores.append(target)

    for node in ast.walk(body):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                store(t)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            store(node.target)
    written = {n.attr for n in stores}
    read = {n.attr for n in ast.walk(body)
            if private(n) and not any(n is s for s in stores)}
    return sorted(written - read)


def test_the_simulator_reads_every_column_it_writes():
    """A column of ``Simulation`` that nothing in it reads is a copy kept for
    its own sake; what a test needs of it, it derives from the columns that
    the simulator reads."""
    source = (SRC / "sim.py").read_text(encoding="utf-8")
    assert write_only_attributes(source, "Simulation") == []


def test_write_only_attribute_detection():
    source = ("class Sim:\n    def __init__(self):\n"
              "        self._a, self._b = 0, [0]\n"
              "        self._c, (self._d, *self._e) = 1, (2, 3)\n"
              "        self._f = 0\n        self._f += 1\n        self.public = 1\n"
              "    def step(self, i):\n        self._b[self._a][i] = 1\n"
              "        self._g: int = 3\n        self._h = self._h + 1\n"
              "        return self._d + self._step()\n"
              "class Other:\n    def read(self):\n        return self._c, self._e\n")
    assert write_only_attributes(source, "Sim") == ["_b", "_c", "_e", "_f", "_g"]


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

"""Linear programs behind a small, validated contract, solved by HiGHS.

Problems are ``maximize c.x subject to A x <= b, x >= 0`` with optional
equality rows.  The constraint blocks are :class:`SparseRows`: row-wise
sparse matrices, held as row starts, ascending column indices within
each row and nonzero values, the three arrays HiGHS reads.  No dense
``(rows, n_vars)`` array is built, checked or multiplied on the way in or
out; :meth:`SparseRows.from_triplets` builds a block from its entries.

:func:`solve` passes a program to HiGHS through its own Python bindings,
the extension that ``scipy.optimize.linprog(method="highs")`` calls, with
the options that ``linprog`` sets, so it returns what ``linprog`` would.
The extension is loaded from its file alone, without importing the
``scipy`` or ``scipy.optimize`` packages (:func:`highs_bindings`).
HiGHS is deterministic: identical problems give identical solutions.
When the optimum is not unique it may return any optimal vertex, so a
caller must not rely on which one.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

# an optimum is refused when it misses a bound or a row by more than this;
# linprog's sqrt(tol) * 10 at its default tol = 1e-9
ACCEPT_TOL = np.sqrt(1e-9) * 10


@functools.cache
def highs_bindings():
    """HiGHS's Python bindings, the extension ``scipy.optimize._highspy._core``,
    loaded on first call.

    Only the extension is loaded, from its file under scipy's directory.
    Importing it by name would first run the ``scipy`` and
    ``scipy.optimize`` packages, which load the optimize package's sparse,
    linalg and Fortran extensions that nothing here calls.  In a fresh
    process that had imported ``fleetsim.rhc``, that import added 46 MB
    of peak RSS and took 0.33-0.36 s; the extension alone adds 3.5 MB and
    takes 5 ms (2-core x86-64 host, scipy 1.17).  The extension is loaded
    under its package name and put in ``sys.modules`` before it runs, and
    a module already there under that name is returned as it is: its
    types can be registered only once in a process, so an import of
    ``scipy.optimize`` before or after this call shares the one copy.
    :class:`rhc.RhcPolicy` calls this when it is built, so that its first
    plan does not pay for the load.  Raises ``ImportError``, naming the
    directory searched, when the extension is not there.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("no scipy package, whose HiGHS extension solves the programs")
    where = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    found = importlib.machinery.PathFinder.find_spec("_core", [where])
    if found is None:
        raise ImportError(f"no HiGHS extension _core in {where}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]  # as the import system does: no half-made module stays
        raise
    return module


@dataclass(frozen=True)
class SparseRows:
    """A ``(rows, n_cols)`` matrix held row by row.

    Row ``r`` holds the values ``value[start[r]:start[r + 1]]`` in the
    columns ``index[start[r]:start[r + 1]]``, ascending; every other entry
    is zero.  Construction raises ``ValueError`` unless ``start`` begins
    at 0, never falls and ends at the nonzero count, every column is in
    ``[0, n_cols)`` and rises strictly within its row, and every value is
    finite and nonzero.
    """

    start: np.ndarray  # (rows + 1,) int64
    index: np.ndarray  # (nnz,) int64
    value: np.ndarray  # (nnz,) float64
    n_cols: int

    def __post_init__(self):
        start = np.asarray(self.start, dtype=np.int64)
        index = np.asarray(self.index, dtype=np.int64)
        value = np.asarray(self.value, dtype=np.float64)
        if not (start.ndim == index.ndim == value.ndim == 1 and start.size >= 1
                and index.size == value.size):
            raise ValueError(f"sparse rows need 1-D starts and equal-sized indices and "
                             f"values, got {start.shape}, {index.shape}, {value.shape}")
        counts = np.diff(start)
        if start[0] != 0 or start[-1] != index.size or (counts < 0).any():
            raise ValueError(f"row starts must rise from 0 to the {index.size} nonzeros")
        if index.size and (index.min() < 0 or index.max() >= self.n_cols):
            raise ValueError(f"column index outside [0, {self.n_cols})")
        # row-major positions rise strictly exactly when each row's columns do
        flat = np.repeat(np.arange(counts.size), counts) * self.n_cols + index
        if (np.diff(flat) <= 0).any():
            raise ValueError("column indices must rise strictly within each row")
        if not (np.isfinite(value).all() and (value != 0.0).all()):
            raise ValueError("sparse values must be finite and nonzero")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "value", value)

    @classmethod
    def from_triplets(cls, shape: tuple[int, int], triplets) -> SparseRows:
        """The matrix of ``shape`` with the entries of ``(rows, columns, values)`` arrays.

        A scalar value applies to each entry of its triplet.  The entries
        come in any order, but no (row, column) pair may repeat.
        """
        rows = np.concatenate([t[0] for t in triplets])
        cols = np.concatenate([t[1] for t in triplets])
        values = np.concatenate([np.full(len(t[0]), t[2]) for t in triplets])
        order = np.argsort(rows * shape[1] + cols)
        start = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
        return cls(start, cols[order], values[order], shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.start.size - 1, self.n_cols)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with the vector ``x``; each row sums its terms in column order."""
        counts = np.diff(self.start)
        rows = np.repeat(np.arange(counts.size), counts)
        return np.bincount(rows, weights=self.value * x[self.index], minlength=counts.size)


@dataclass(frozen=True)
class LpProblem:
    """maximize ``c . x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``.

    Optional equality rows ``a_eq @ x == b_eq`` are passed to the solver
    as equalities.  The blocks are :class:`SparseRows` of shape
    ``(b.size, c.size)``.  Shapes
    and finiteness are checked on construction, so a malformed problem
    raises ``ValueError`` here rather than in the solver.
    """

    c: np.ndarray
    a_ub: SparseRows
    b_ub: np.ndarray
    a_eq: SparseRows | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        for a_name, b_name in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
            a, b = getattr(self, a_name), getattr(self, b_name)
            if a is None and a_name == "a_eq":
                continue
            if not isinstance(a, SparseRows):
                raise ValueError(f"{a_name} must be SparseRows, got {type(a).__name__}")
            b = np.atleast_1d(np.asarray(b, dtype=np.float64))
            if c.ndim != 1 or b.ndim != 1 or a.shape != (b.size, c.size):
                raise ValueError(f"inconsistent LP dims: c {c.shape}, "
                                 f"{a_name} {a.shape}, {b_name} {b.shape}")
            if not np.isfinite(b).all():
                raise ValueError(f"non-finite coefficients in {b_name}")
            object.__setattr__(self, b_name, b)
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficients in c")
        object.__setattr__(self, "c", c)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    """Outcome of :func:`solve`; ``x`` and ``objective`` are set only when optimal.

    ``status`` is one of "optimal", "infeasible", "unbounded",
    "iteration_limit" or "numerical_difficulties".
    """

    status: str
    x: np.ndarray | None
    objective: float | None


def solve(problem: LpProblem) -> LpSolution:
    """Solve the program with HiGHS's dual simplex.

    One fresh HiGHS instance per call, so no solve warm-starts from another.
    The options are those ``linprog(method="highs")`` sets: presolve
    ``"on"``, the dual simplex strategy, no output and no debug checks;
    every other option keeps HiGHS's default.  HiGHS's model status maps
    to ``status`` as in ``linprog``: optimal to "optimal"; a time or
    iteration limit to "iteration_limit"; infeasible, or a model error (a
    model HiGHS refuses), to "infeasible"; unbounded to "unbounded"; and
    anything else, unbounded-or-infeasible included, to
    "numerical_difficulties".  An optimum is then accepted as ``linprog``
    accepts it, see :func:`accepted_status`.  Never raises on a solver
    failure: every outcome but an accepted optimum comes back as a
    non-"optimal" status.
    """
    hc = highs_bindings()
    n = problem.n_vars
    blocks = [problem.a_ub] if problem.a_eq is None else [problem.a_ub, problem.a_eq]
    b_eq = np.zeros(0) if problem.b_eq is None else problem.b_eq
    start, index, value = _rowwise(blocks)
    highs = hc._Highs()
    for name, option in (
            ("presolve", "on"),
            ("simplex_strategy", hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
            ("output_flag", False), ("log_to_console", False),
            ("highs_debug_level", hc.HighsDebugLevel.kHighsDebugLevelNone)):
        highs.setOptionValue(name, option)
    # the overload for arrays takes their buffers, where a HighsLp's fields
    # convert element by element; every column is continuous
    passed = highs.passModel(
        n, problem.b_ub.size + b_eq.size, value.size, int(hc.MatrixFormat.kRowwise),
        int(hc.ObjSense.kMinimize), 0.0, -problem.c, np.zeros(n), np.full(n, hc.kHighsInf),
        np.concatenate([np.full(problem.b_ub.size, -hc.kHighsInf), b_eq]),
        np.concatenate([problem.b_ub, b_eq]), start, index, value, np.zeros(n, dtype=np.int32))
    if passed == hc.HighsStatus.kError:
        return LpSolution("infeasible", None, None)
    highs.run()
    ms = hc.HighsModelStatus
    status = {ms.kOptimal: "optimal", ms.kTimeLimit: "iteration_limit",
              ms.kIterationLimit: "iteration_limit", ms.kInfeasible: "infeasible",
              ms.kModelError: "infeasible", ms.kUnbounded: "unbounded",
              }.get(highs.getModelStatus(), "numerical_difficulties")
    if status == "optimal":
        x = np.array(highs.getSolution().col_value)
        status = accepted_status(problem, x)
    if status != "optimal":
        return LpSolution(status, None, None)
    x = x + 0.0  # HiGHS can return -0.0, which prints as a negative value
    return LpSolution(status, x, float(problem.c @ x))


def _rowwise(blocks: list[SparseRows]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row starts, column indices and values of the blocks stacked in order,
    in the dtypes HiGHS reads: int32, int32 and float64."""
    offsets = np.cumsum([0] + [a.index.size for a in blocks])
    start = np.concatenate([[0]] + [a.start[1:] + nnz for a, nnz in zip(blocks, offsets)])
    return (start.astype(np.int32), np.concatenate([a.index for a in blocks]).astype(np.int32),
            np.concatenate([a.value for a in blocks]))


def accepted_status(problem: LpProblem, x: np.ndarray) -> str:
    """``linprog``'s acceptance test of a reported optimum ``x``.

    "numerical_difficulties" when ``x``, the slacks ``b_ub - a_ub @ x`` or
    the residuals ``b_eq - a_eq @ x`` hold a NaN, or some ``x``, some slack
    or the size of some residual misses by more than ``ACCEPT_TOL``;
    "optimal" otherwise.  The products sum each row's terms in column
    order; ``linprog`` takes the row activities from HiGHS instead, and a
    dense ``a @ x`` sums in another order, so the three can differ in the
    last bits, which moves only an optimum within a rounding of
    ``ACCEPT_TOL`` across it.
    """
    slack = problem.b_ub - problem.a_ub @ x
    resid = np.zeros(0) if problem.a_eq is None else problem.b_eq - problem.a_eq @ x
    # written so that a NaN fails each comparison
    if ((x >= -ACCEPT_TOL).all() and (slack >= -ACCEPT_TOL).all()
            and (np.abs(resid) <= ACCEPT_TOL).all()):
        return "optimal"
    return "numerical_difficulties"

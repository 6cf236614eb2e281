"""Linear programs behind a small, validated contract, solved by HiGHS.

Problems are ``maximize c.x subject to A x <= b, x >= 0`` with optional
equality rows.  :func:`solve` passes them to HiGHS through its own
Python bindings, the ones ``scipy.optimize.linprog(method="highs")``
calls, with the options that ``linprog`` sets, so it returns what
``linprog`` would.  HiGHS is deterministic: identical problems give
identical solutions.  When the optimum is not unique it may return any
optimal vertex, so a caller must not rely on which one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# an optimum is refused when it misses a bound or a row by more than this;
# linprog's sqrt(tol) * 10 at its default tol = 1e-9
ACCEPT_TOL = np.sqrt(1e-9) * 10


@dataclass(frozen=True)
class LpProblem:
    """maximize ``c . x`` subject to ``a_ub @ x <= b_ub`` and ``x >= 0``.

    Optional equality rows ``a_eq @ x == b_eq`` are passed to the solver
    as equalities.  Dimensions and finiteness are checked on construction, so a
    malformed problem raises ``ValueError`` here rather than in the solver.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        a = np.asarray(self.a_ub, dtype=np.float64)
        if a.size == 0:
            a = a.reshape(0, c.size)
        b = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64))
        if a.ndim != 2 or a.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent LP dims: c {c.shape}, A {a.shape}, b {b.shape}"
            )
        for name, arr in (("c", c), ("a_ub", a), ("b_ub", b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite coefficients in {name}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a)
        object.__setattr__(self, "b_ub", b)
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        if self.a_eq is not None:
            ae = np.asarray(self.a_eq, dtype=np.float64)
            if ae.size == 0:
                ae = ae.reshape(0, c.size)
            be = np.atleast_1d(np.asarray(self.b_eq, dtype=np.float64))
            if ae.ndim != 2 or ae.shape != (be.size, c.size):
                raise ValueError(f"inconsistent equality dims {ae.shape} vs {be.shape}")
            if not (np.isfinite(ae).all() and np.isfinite(be).all()):
                raise ValueError("non-finite equality coefficients")
            object.__setattr__(self, "a_eq", ae)
            object.__setattr__(self, "b_eq", be)

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
    # imported on first use: only the RHC policy solves LPs, and loading
    # scipy.optimize raised the day-none benchmark's peak RSS from 117 to 146 MB
    from scipy.optimize._highspy import _core as hc

    n = problem.n_vars
    blocks = [problem.a_ub] if problem.a_eq is None else [problem.a_ub, problem.a_eq]
    b_eq = np.zeros(0) if problem.b_eq is None else problem.b_eq
    lp = hc.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = problem.b_ub.size + b_eq.size
    lp.col_cost_ = -problem.c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, hc.kHighsInf)
    lp.row_lower_ = np.concatenate([np.full(problem.b_ub.size, -hc.kHighsInf), b_eq])
    lp.row_upper_ = np.concatenate([problem.b_ub, b_eq])
    lp.a_matrix_.format_ = hc.MatrixFormat.kRowwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _rowwise(blocks, n)

    highs = hc._Highs()
    for name, value in (
            ("presolve", "on"),
            ("simplex_strategy", hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
            ("output_flag", False), ("log_to_console", False),
            ("highs_debug_level", hc.HighsDebugLevel.kHighsDebugLevelNone)):
        highs.setOptionValue(name, value)
    if highs.passModel(lp) == hc.HighsStatus.kError:
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


def _rowwise(blocks: list[np.ndarray], n: int) -> tuple[list, list, list]:
    """Row starts, column indices and values of the nonzeros of the stacked blocks."""
    start, index, value = [np.zeros(1, dtype=np.int64)], [], []
    nnz = 0
    for a in blocks:
        # a bool mask scans many times faster than np.nonzero of the floats
        flat = np.flatnonzero(a != 0.0)
        start.append(np.searchsorted(flat, np.arange(1, a.shape[0] + 1) * n) + nnz)
        index.append(flat % n)
        value.append(a.ravel()[flat])
        nnz += flat.size
    # the bindings copy a list into HiGHS faster than an array
    return tuple(np.concatenate(part).tolist() for part in (start, index, value))


def accepted_status(problem: LpProblem, x: np.ndarray) -> str:
    """``linprog``'s acceptance test of a reported optimum ``x``.

    "numerical_difficulties" when ``x``, the slacks ``b_ub - a_ub @ x`` or
    the residuals ``b_eq - a_eq @ x`` hold a NaN, or some ``x``, some slack
    or the size of some residual misses by more than ``ACCEPT_TOL``;
    "optimal" otherwise.  ``linprog`` takes the row activities from HiGHS
    rather than from ``a @ x``; the two differ in the last bits at most.
    """
    slack = problem.b_ub - problem.a_ub @ x
    resid = np.zeros(0) if problem.a_eq is None else problem.b_eq - problem.a_eq @ x
    # written so that a NaN fails each comparison
    if ((x >= -ACCEPT_TOL).all() and (slack >= -ACCEPT_TOL).all()
            and (np.abs(resid) <= ACCEPT_TOL).all()):
        return "optimal"
    return "numerical_difficulties"

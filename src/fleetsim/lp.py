"""Linear programs behind a small, validated contract, solved by HiGHS.

Problems are ``maximize c.x subject to A x <= b, x >= 0`` with optional
equality rows.  :func:`solve` hands them to
``scipy.optimize.linprog(method="highs")``.  HiGHS is deterministic:
identical problems give identical solutions.  When the optimum is not
unique it may return any optimal vertex, so a caller must not rely on
which one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# linprog status codes; 1 and 4 are the solver giving up, not a verdict
_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded",
           4: "numerical_difficulties"}


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
    """Solve the program with HiGHS.

    Optimal solutions meet every constraint to HiGHS's primal feasibility
    tolerance (1e-7).  Never raises on a solver failure: every outcome
    but an optimum comes back as a non-"optimal" status.
    """
    # imported on first use: only the RHC policy solves LPs, and loading
    # scipy.optimize raised the day-none benchmark's peak RSS from 117 to 146 MB
    from scipy.optimize import linprog

    res = linprog(-problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                  A_eq=problem.a_eq, b_eq=problem.b_eq, bounds=(0, None),
                  method="highs")
    status = _STATUS.get(res.status, f"linprog_status_{res.status}")
    if status != "optimal":
        return LpSolution(status, None, None)
    x = res.x + 0.0  # HiGHS can return -0.0, which prints as a negative value
    return LpSolution(status, x, float(problem.c @ x))

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fleetsim.lp import LpProblem, LpSolution, accepted_status, solve
from fleetsim.rhc import build_rhc_lp
from oracles import (linprog_solve_reference, random_bounded_lp, random_sparse_lp,
                     seeded_rhc_lp_inputs, vertex_enumeration_optimum)


class TestBasics:
    def test_single_variable(self):
        sol = solve(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[3.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(3.0)

    def test_degenerate_optimum_face(self):
        sol = solve(LpProblem(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        # deterministic vertex: run twice, same point
        again = solve(LpProblem(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
        np.testing.assert_array_equal(sol.x, again.x)

    def test_unbounded(self):
        sol = solve(LpProblem(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0]))
        assert sol.status == "unbounded"

    def test_infeasible(self):
        # x <= -1 with x >= 0
        sol = solve(LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
        assert sol.status == "infeasible"

    def test_negative_rhs_feasible(self):
        # x1 + x2 >= 2expressed as -(x1+x2) <= -2, minimize x1+2x2
        sol = solve(LpProblem(c=[-1.0, -2.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.0)
        assert sol.x[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LpProblem(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(ValueError):
            LpProblem(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0])


    def test_no_negative_zero_in_solution(self):
        # the low-penalty two-zone program of demo 05, where HiGHS returns
        # the zero dispatch as -0.0
        problem, _ = build_rhc_lp(np.array([1.0, 0.0]), np.zeros((1, 2)),
                                  np.array([[0.0, 0.0], [0.0, 1.0]]),
                                  [np.array([[0.0, 6.0], [6.0, 0.0]])] * 2,
                                  [np.eye(2)] * 2, reject_penalty=3.0,
                                  discount=1.0, slot_minutes=15.0)
        sol = solve(problem)
        assert sol.status == "optimal"
        assert not np.signbit(sol.x).any()


class TestOracleEquivalence:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            c, a, b = random_bounded_lp(rng)
            sol = solve(LpProblem(c=c, a_ub=a, b_ub=b))
            expect, _ = vertex_enumeration_optimum(c, a, b)
            assert sol.status == "optimal", f"trial {trial}"
            assert expect is not None
            scale = max(1.0, abs(expect))
            assert abs(sol.objective - expect) / scale < 1e-6, (
                f"trial {trial}: simplex {sol.objective} vs oracle {expect}"
            )

    def test_feasibility_of_solutions(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c, a, b = random_bounded_lp(rng)
            sol = solve(LpProblem(c=c, a_ub=a, b_ub=b))
            assert sol.status == "optimal"
            assert (a @ sol.x <= b + 1e-9).all()
            assert (sol.x >= -1e-9).all()

    def test_weak_duality_bound(self):
        # dual-feasible y gives b.y >= primal optimum for max c.x, Ax<=b, x>=0
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 20:
            c, a, b = random_bounded_lp(rng)
            y = rng.uniform(0.0, 4.0, size=a.shape[0])
            if not (a.T @ y >= c - 1e-12).all():
                continue
            checked += 1
            sol = solve(LpProblem(c=c, a_ub=a, b_ub=b))
            assert sol.objective <= float(b @ y) + 1e-7


class TestDeterminismAndCycling:
    def test_identical_problems_identical_solutions(self):
        rng = np.random.default_rng(3)
        c, a, b = random_bounded_lp(rng)
        s1 = solve(LpProblem(c=c, a_ub=a, b_ub=b))
        s2 = solve(LpProblem(c=c, a_ub=a, b_ub=b))
        assert s1.objective == s2.objective
        np.testing.assert_array_equal(s1.x, s2.x)

    def test_beale_cycling_example_terminates(self):
        # classic degenerate instance that cycles without an anti-cycling rule
        c = [0.75, -150.0, 0.02, -6.0]
        a = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        sol = solve(LpProblem(c=c, a_ub=a, b_ub=b))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-9)

    def test_highly_degenerate_random(self):
        # many zero right-hand sides provoke degenerate pivots
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            a = rng.uniform(-1, 1, size=(m, n))
            b = np.where(rng.random(m) < 0.6, 0.0, rng.uniform(0, 2, m))
            a = np.vstack([a, np.ones((1, n))])
            b = np.concatenate([b, [5.0]])
            c = rng.uniform(-1, 2, size=n)
            sol = solve(LpProblem(c=c, a_ub=a, b_ub=b))
            expect, _ = vertex_enumeration_optimum(c, a, b)
            if sol.status == "optimal":
                assert expect == pytest.approx(sol.objective, abs=1e-7)


class TestMatchesLinprog:
    """``solve`` returns what ``linprog(method="highs")`` returns, bit for bit."""

    @staticmethod
    def assert_same(problem):
        got, want = solve(problem), linprog_solve_reference(problem)
        assert got.status == want.status
        if want.x is None:
            assert got.x is None and got.objective is None
        else:
            assert got.x.tobytes() == want.x.tobytes()  # signed zeros too
            assert not np.signbit(got.x).any()
            assert got.objective == want.objective
        return got.status

    def test_random_bounded_programs(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            c, a, b = random_bounded_lp(rng)
            assert self.assert_same(LpProblem(c=c, a_ub=a, b_ub=b)) == "optimal"

    def test_sparse_programs_of_every_outcome(self):
        rng = np.random.default_rng(29)
        statuses = [self.assert_same(LpProblem(*random_sparse_lp(rng))) for _ in range(300)]
        assert {"optimal", "infeasible", "unbounded"} <= set(statuses)

    @pytest.mark.parametrize("problem, status", [
        (LpProblem(c=[1.0, 2.0], a_ub=np.zeros((0, 2)), b_ub=[]), "unbounded"),
        (LpProblem(c=[-1.0, -2.0], a_ub=np.zeros((0, 2)), b_ub=[]), "optimal"),
        (LpProblem(c=[1.0, -1.0], a_ub=np.zeros((0, 2)), b_ub=[],
                   a_eq=[[1.0, 1.0]], b_eq=[2.0]), "optimal"),
        (LpProblem(c=[1.0, 1.0], a_ub=np.zeros((0, 2)), b_ub=[],
                   a_eq=[[1.0, -1.0], [1.0, 0.0]], b_eq=[0.0, -1.0]), "infeasible"),
        (LpProblem(c=[0.0, 1.0], a_ub=[[0.0, 0.0], [1.0, 1.0]], b_ub=[0.0, 3.0],
                   a_eq=np.zeros((0, 2)), b_eq=[]), "optimal"),
        # HiGHS refuses a coefficient this large when the model is passed
        (LpProblem(c=[1.0], a_ub=[[1e16]], b_ub=[1.0]), "infeasible"),
        # and ends the run on a cost this large in an unknown model status
        (LpProblem(c=[1e300], a_ub=[[1.0]], b_ub=[1.0]), "numerical_difficulties"),
    ], ids=["no-rows-unbounded", "no-rows-optimal", "equality-only",
            "equality-only-infeasible", "zero-row-no-equalities", "model-error",
            "run-error"])
    def test_edge_cases(self, problem, status):
        assert self.assert_same(problem) == status

    def test_horizon_programs(self):
        for seed in range(400):
            problem, _ = build_rhc_lp(**seeded_rhc_lp_inputs(seed, 15.0))
            assert self.assert_same(problem) == "optimal"


class TestAcceptance:
    """``accepted_status`` refuses an optimum that misses by more than ACCEPT_TOL."""

    # max x0 + x1 s.t. x0 + x1 <= 1, x0 - x1 == 0: optimum (0.5, 0.5)
    PROBLEM = LpProblem(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                        a_eq=[[1.0, -1.0]], b_eq=[0.0])

    def test_exact_optimum_accepted(self):
        assert accepted_status(self.PROBLEM, np.array([0.5, 0.5])) == "optimal"

    # each way moves x off one kind of constraint only: the bounds x >= 0
    # (both entries, so the equality still holds), the inequality, the equality
    @pytest.mark.parametrize("x_of", [
        lambda d: np.array([-d, -d]),
        lambda d: np.array([0.5 + d / 2, 0.5 + d / 2]),
        lambda d: np.array([0.5 - d, 0.5]),
    ], ids=["bound", "inequality", "equality"])
    def test_outside_by_1e_3_refused_by_1e_5_accepted(self, x_of):
        assert accepted_status(self.PROBLEM, x_of(1e-3)) == "numerical_difficulties"
        assert accepted_status(self.PROBLEM, x_of(1e-5)) == "optimal"

    def test_nan_refused(self):
        assert accepted_status(self.PROBLEM, np.array([np.nan, 0.5])) == "numerical_difficulties"
        no_rows = LpProblem(c=[1.0], a_ub=np.zeros((0, 1)), b_ub=[])
        assert accepted_status(no_rows, np.array([np.nan])) == "numerical_difficulties"


def test_scipy_optimize_loaded_only_by_solve():
    # policies other than RHC never solve an LP and must not pay for scipy's
    # memory; importing any of these modules loads no scipy module at all
    code = ("import sys, fleetsim.lp, fleetsim.sim, fleetsim.dqn, fleetsim.rhc, "
            "fleetsim.harness.experiment, fleetsim.harness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.stdout.strip() == "[]"

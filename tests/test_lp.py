import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fleetsim.lp import LpProblem, LpSolution, solve
from fleetsim.rhc import build_rhc_lp
from oracles import random_bounded_lp, vertex_enumeration_optimum


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


def test_scipy_optimize_loaded_only_by_solve():
    # policies other than RHC never solve an LP and must not pay for scipy's memory
    code = ("import sys, fleetsim.sim, fleetsim.dqn, fleetsim.rhc, fleetsim.harness.experiment; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.stdout.strip() == "False"

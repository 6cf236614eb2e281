import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fleetsim import lp
from fleetsim.lp import LpProblem, LpSolution, SparseRows, accepted_status, solve
from fleetsim.rhc import build_rhc_lp
from oracles import (linprog_solve_reference, lp_from_dense, random_bounded_lp,
                     random_sparse_lp, rowwise_reference, seeded_rhc_lp_inputs,
                     vertex_enumeration_optimum)

ROOT = Path(__file__).resolve().parent.parent


class TestBasics:
    def test_single_variable(self):
        sol = solve(lp_from_dense(c=[1.0], a_ub=[[1.0]], b_ub=[3.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(3.0)

    def test_degenerate_optimum_face(self):
        sol = solve(lp_from_dense(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        # deterministic vertex: run twice, same point
        again = solve(lp_from_dense(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
        np.testing.assert_array_equal(sol.x, again.x)

    def test_unbounded(self):
        sol = solve(lp_from_dense(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0]))
        assert sol.status == "unbounded"

    def test_infeasible(self):
        # x <= -1 with x >= 0
        sol = solve(lp_from_dense(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
        assert sol.status == "infeasible"

    def test_negative_rhs_feasible(self):
        # x1 + x2 >= 2expressed as -(x1+x2) <= -2, minimize x1+2x2
        sol = solve(lp_from_dense(c=[-1.0, -2.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-2.0)
        assert sol.x[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_from_dense(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
        with pytest.raises(ValueError):
            lp_from_dense(c=[np.nan], a_ub=[[1.0]], b_ub=[1.0])


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


@st.composite
def dense_blocks(draw):
    """A column count and one or two dense blocks of it, some with no rows."""
    n = draw(st.integers(1, 6))
    values = st.sampled_from([0.0, -0.0, 0.0, 1.0, -2.5, 1e-300, 7.0])
    return n, draw(st.lists(hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.just(n)),
                                       elements=values), min_size=1, max_size=2))


class TestSparseRows:
    @given(dense_blocks())
    def test_from_dense_gives_the_dense_scan(self, drawn):
        n, blocks = drawn
        a_eq, b_eq = (blocks[1], np.ones(len(blocks[1]))) if len(blocks) == 2 else (None, None)
        problem = lp_from_dense(np.ones(n), blocks[0], np.ones(len(blocks[0])), a_eq, b_eq)
        sparse = [problem.a_ub] + ([] if a_eq is None else [problem.a_eq])
        assert [a.shape for a in sparse] == [a.shape for a in blocks]
        # the lists solve passes to HiGHS, as the dense scan made them
        assert tuple(a.tolist() for a in lp._rowwise(sparse)) == rowwise_reference(blocks, n)

    @given(dense_blocks(), st.integers(0, 2**32 - 1))
    def test_product_equals_the_dense_product(self, drawn, seed):
        n, blocks = drawn
        x = np.random.default_rng(seed).uniform(-3.0, 3.0, n)
        for a in blocks:
            sparse = lp_from_dense(np.ones(n), a, np.ones(len(a))).a_ub
            np.testing.assert_allclose(sparse @ x, a @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2, 1, 2], [0, 1, 0, 1], np.ones(4), 2),
                          np.ones(3)),
        lambda: LpProblem([1.0, 1.0], SparseRows([1, 2], [0, 1], np.ones(2), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 1], [0, 1], np.ones(2), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [0, 2], np.ones(2), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 1], [-1], np.ones(1), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [1, 1], np.ones(2), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [1, 0], np.ones(2), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [0, 1], [1.0, 0.0], 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [0, 1], [1.0, -0.0], 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [0, 1], [1.0, np.nan], 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 2], [0, 1], [np.inf, 1.0], 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 1], [0], [1.0], 3), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 1, 2], [0, 1], np.ones(2), 2), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 1], [0], [1.0], 2), [1.0],
                          SparseRows([0, 1], [2], [1.0], 3), [1.0]),
        lambda: LpProblem([1.0, 1.0], SparseRows([0, 1], [0], [1.0], 2), [1.0],
                          SparseRows([0, 1], [1], [1.0], 2), [1.0, 2.0]),
        lambda: LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0]),
    ], ids=["starts-fall", "starts-not-from-0", "starts-miss-the-end", "column-too-large",
            "column-negative", "column-repeated", "columns-unsorted", "explicit-zero",
            "explicit-negative-zero", "nan-value", "inf-value", "more-columns-than-c",
            "more-rows-than-b", "equality-columns-other-than-c",
            "equality-rows-other-than-b", "dense-block"])
    def test_malformed_block_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestOracleEquivalence:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            c, a, b = random_bounded_lp(rng)
            sol = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
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
            sol = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
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
            sol = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
            assert sol.objective <= float(b @ y) + 1e-7


class TestDeterminismAndCycling:
    def test_identical_problems_identical_solutions(self):
        rng = np.random.default_rng(3)
        c, a, b = random_bounded_lp(rng)
        s1 = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
        s2 = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
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
        sol = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
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
            sol = solve(lp_from_dense(c=c, a_ub=a, b_ub=b))
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
            assert self.assert_same(lp_from_dense(c=c, a_ub=a, b_ub=b)) == "optimal"

    def test_sparse_programs_of_every_outcome(self):
        rng = np.random.default_rng(29)
        statuses = [self.assert_same(lp_from_dense(*random_sparse_lp(rng))) for _ in range(300)]
        assert {"optimal", "infeasible", "unbounded"} <= set(statuses)

    @pytest.mark.parametrize("problem, status", [
        (lp_from_dense(c=[1.0, 2.0], a_ub=np.zeros((0, 2)), b_ub=[]), "unbounded"),
        (lp_from_dense(c=[-1.0, -2.0], a_ub=np.zeros((0, 2)), b_ub=[]), "optimal"),
        (lp_from_dense(c=[1.0, -1.0], a_ub=np.zeros((0, 2)), b_ub=[],
                       a_eq=[[1.0, 1.0]], b_eq=[2.0]), "optimal"),
        (lp_from_dense(c=[1.0, 1.0], a_ub=np.zeros((0, 2)), b_ub=[],
                       a_eq=[[1.0, -1.0], [1.0, 0.0]], b_eq=[0.0, -1.0]), "infeasible"),
        (lp_from_dense(c=[0.0, 1.0], a_ub=[[0.0, 0.0], [1.0, 1.0]], b_ub=[0.0, 3.0],
                       a_eq=np.zeros((0, 2)), b_eq=[]), "optimal"),
        # HiGHS refuses a coefficient this large when the model is passed
        (lp_from_dense(c=[1.0], a_ub=[[1e16]], b_ub=[1.0]), "infeasible"),
        # and ends the run on a cost this large in an unknown model status
        (lp_from_dense(c=[1e300], a_ub=[[1.0]], b_ub=[1.0]), "numerical_difficulties"),
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
    PROBLEM = lp_from_dense(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
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
        no_rows = lp_from_dense(c=[1.0], a_ub=np.zeros((0, 1)), b_ub=[])
        assert accepted_status(no_rows, np.array([np.nan])) == "numerical_difficulties"


SUBPROCESS_ENV = {"PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in ("src", "tests")),
                  "PATH": "/usr/bin:/bin"}


def run_python(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter on the package and
    the tests' helpers."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=SUBPROCESS_ENV).stdout


def test_no_scipy_module_loaded_at_import():
    # policies other than RHC never solve an LP and must not pay for scipy's
    # memory; importing any of these modules loads no scipy module at all
    code = ("import sys, fleetsim.lp, fleetsim.sim, fleetsim.dqn, fleetsim.rhc, "
            "fleetsim.harness.experiment, fleetsim.harness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code).strip() == "[]"


def test_highs_bindings_loaded_by_building_the_rhc_policy_only():
    # the RHC policy loads the solver when it is built, so that its first
    # plan does not pay for the load; the other policies never load it, and
    # neither the load nor a solve imports the scipy or scipy.optimize package
    code = """
import sys
from types import SimpleNamespace
import numpy as np
from fleetsim import lp
from fleetsim.dqn import QNetwork
from fleetsim.geo import GridSpec, Location, RegionMap
from fleetsim.harness import experiment as ex
from fleetsim.harness.config import parse_config
cfg = parse_config(overrides={"seed": "3"})
grid = GridSpec(rows=cfg.fine_rows, cols=cfg.fine_cols, cell_size=500.0,
                origin=Location(40.0, -74.0))
zones = RegionMap(grid, cfg.zone_block)
m = zones.region_count
city = SimpleNamespace(zones=zones,
                       regions=RegionMap(grid, cfg.region_block))
bundle = SimpleNamespace(demand_model=None, trip_times=np.ones((7, 24, m, m)),
                         destinations=np.full((7, 24, m, m), 1.0 / m))
qnet = QNetwork.create(np.random.default_rng(0))
for name in ("none", "dqn", "rhc"):
    policy = ex.make_policy(cfg, name, city, bundle, qnet=qnet)
    print(type(policy).__name__, "scipy.optimize._highspy._core" in sys.modules)
one = lp.SparseRows.from_triplets((1, 2), [(np.array([0, 0]), np.array([0, 1]), 1.0)])
print(lp.solve(lp.LpProblem(np.array([1.0, 2.0]), one, np.array([3.0]))).objective)
print(sorted({"scipy", "scipy.optimize", "scipy.optimize._highspy._core"} & set(sys.modules)))
"""
    assert run_python(code).split("\n")[:5] == [
        "NoneType False", "DqnPolicy False", "RhcPolicy True", "6.0",
        "['scipy.optimize._highspy._core']"]


@pytest.mark.parametrize("first", ["solve", "linprog"])
def test_solve_and_linprog_share_one_extension_in_either_order(first):
    # the extension's types are registered once per process: loading it by its
    # path and importing scipy.optimize, in either order, share one module
    code = f"""
import sys
from fleetsim import lp
from fleetsim.rhc import build_rhc_lp
import oracles
problem, _ = build_rhc_lp(**oracles.seeded_rhc_lp_inputs(5, 15.0))
if {first!r} == "solve":
    got = lp.solve(problem)
    want = oracles.linprog_solve_reference(problem)
else:
    want = oracles.linprog_solve_reference(problem)
    got = lp.solve(problem)
print(got.status, got.x.tobytes() == want.x.tobytes(), got.objective == want.objective,
      lp.highs_bindings() is sys.modules["scipy.optimize._highspy._core"])
"""
    assert run_python(code).strip() == "optimal True True True"


def test_missing_extension_names_the_directory_searched(monkeypatch, tmp_path):
    # an empty scipy directory: no _core under its optimize/_highspy
    (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        SimpleNamespace(submodule_search_locations=[str(tmp_path)]) if name == "scipy"
        else find_spec(name, *args)))
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    lp.highs_bindings.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "optimize" / "_highspy"))):
            lp.highs_bindings()
    finally:
        lp.highs_bindings.cache_clear()

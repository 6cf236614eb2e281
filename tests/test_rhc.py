import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fleetsim.geo import GridSpec, Location, RegionMap, mismatch
from fleetsim.neural import CheckpointError, read_model_file, write_model_file
from fleetsim.rhc import (
    assign_vehicles,
    build_rhc_lp,
    check_plan_feasibility,
    check_tables,
    estimate_tables,
    round_plan,
    solve_rhc,
    zone_centroid_distances,
)
from fleetsim import rhc
from fleetsim.lp import LpSolution, solve
from oracles import (assign_vehicles_reference, destination_table_reference,
                     event_supply_oracle, fake_demand, predict_supply, random_supply_scenario,
                     region_cells, rhc_lp_reference, rhc_settings, seeded_rhc_lp_inputs,
                     zone_centroid_distances_reference)
from test_policies import GRID, ZONES, fake_view

DT = 15.0


def two_zone_tables(tau01=5.0):
    tau = np.array([[0.0, tau01], [tau01, 0.0]])
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    return tau, p


class TestPredictSupply:
    def test_static_fleet_carries_over(self):
        # no demand, no dispatch, no scheduled dropoffs
        x0 = np.array([3.0, 1.0])
        wbar = np.zeros((3, 2))
        sched = np.zeros((2, 2))
        tau, p = two_zone_tables()
        xs = predict_supply(x0, sched, wbar, [tau] * 3, [p] * 3, None, DT)
        np.testing.assert_array_equal(xs, np.tile(x0, (2, 1)))

    def test_hand_example_serve_and_arrive_next_slot(self):
        # two regions, all slot-1 trips from region 0 drop off in region 1
        x0 = np.array([2.0, 0.0])
        wbar = np.array([[0.0, 0.0], [1.0, 0.0]])
        sched = np.zeros((1, 2))
        tau = np.array([[0.0, 5.0], [5.0, 0.0]])  # below one slot: arrive next slot
        p = np.array([[0.0, 1.0], [0.0, 1.0]])
        xs = predict_supply(x0, sched, wbar, [tau] * 2, [p] * 2, None, DT)
        np.testing.assert_array_equal(xs[0], [1.0, 1.0])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            predict_supply(np.array([-1.0]), np.zeros((1, 1)), np.zeros((2, 1)),
                           [np.zeros((1, 1))] * 2, [np.ones((1, 1))] * 2, None, DT)

    def test_matches_event_oracle_on_random_scenarios(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            sc = random_supply_scenario(rng)
            predicted = predict_supply(sc["x0"], sc["sched"], sc["wbar"],
                                       sc["tau_slots"], sc["p_slots"],
                                       sc["u_slots"], sc["dt"])
            expected = event_supply_oracle(sc["x0"], sc["sched"], sc["wbar"],
                                           sc["tau_slots"], sc["dest_idx"],
                                           sc["u_slots"], sc["dt"])
            np.testing.assert_array_equal(predicted, expected, err_msg=f"trial {trial}")


class TestRhcLp:
    def test_zero_horizon_never_dispatches(self):
        x0 = np.array([4.0, 0.0])
        wbar = np.array([[1.0, 0.0]])
        tau, p = two_zone_tables()
        plan = solve_rhc(x0, np.zeros((0, 2)), wbar, [tau], [p], 20.0, 1.0, DT)
        assert plan.status == "optimal"
        np.testing.assert_allclose(plan.u_star, 0.0, atol=1e-9)

    def test_two_zone_dispatch_pays_off(self):
        # one idle vehicle in zone 0, next-slot demand in zone 1
        x0 = np.array([1.0, 0.0])
        wbar = np.array([[0.0, 0.0], [0.0, 1.0]])
        sched = np.zeros((1, 2))
        tau, p = two_zone_tables(tau01=5.0)
        plan = solve_rhc(x0, sched, wbar, [tau] * 2, [p] * 2,
                         reject_penalty=20.0, discount=1.0, slot_minutes=DT)
        assert plan.u_star[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert plan.objective == pytest.approx(-5.0, abs=1e-7)

    def test_two_zone_dispatch_too_expensive(self):
        x0 = np.array([1.0, 0.0])
        wbar = np.array([[0.0, 0.0], [0.0, 1.0]])
        sched = np.zeros((1, 2))
        tau, p = two_zone_tables(tau01=5.0)
        plan = solve_rhc(x0, sched, wbar, [tau] * 2, [p] * 2,
                         reject_penalty=3.0, discount=1.0, slot_minutes=DT)
        np.testing.assert_allclose(plan.u_star, 0.0, atol=1e-9)
        assert plan.objective == pytest.approx(-3.0, abs=1e-7)

    def test_unreachable_pairs_forced_to_zero(self):
        x0 = np.array([2.0, 0.0])
        wbar = np.array([[0.0, 0.0], [0.0, 3.0]])
        sched = np.zeros((1, 2))
        tau, p = two_zone_tables(tau01=40.0)  # beyond one slot
        plan = solve_rhc(x0, sched, wbar, [tau] * 2, [p] * 2, 50.0, 1.0, DT)
        np.testing.assert_array_equal(plan.u_star, 0.0)

    def test_budget_respected_on_random_scenarios(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sc = random_supply_scenario(rng)
            m = sc["x0"].shape[0]
            plan = solve_rhc(sc["x0"], sc["sched"], sc["wbar"], sc["tau_slots"],
                             sc["p_slots"], 20.0, 0.99, sc["dt"])
            assert plan.status == "optimal"
            check_plan_feasibility(plan, sc["x0"], np.asarray(sc["tau_slots"][0]),
                                   sc["dt"])

    def test_lp_supply_matches_recursion_for_identity_distribution(self):
        # with an identity destination distribution and sub-slot travel
        # times, serving and staying are dynamically identical, so the
        # served/leftover split freedom vanishes and LP supply must equal
        # the recursion evaluated at the LP's own dispatch choices
        rng = np.random.default_rng(5)
        m, horizon = 3, 2
        x0 = rng.integers(1, 5, size=m).astype(float)
        wbar = rng.integers(0, 4, size=(horizon + 1, m)).astype(float)
        sched = rng.integers(0, 2, size=(horizon, m)).astype(float)
        tau = rng.uniform(3.0, 10.0, size=(m, m))
        np.fill_diagonal(tau, 0.0)
        p = np.eye(m)
        problem, index = build_rhc_lp(x0, sched, wbar, [tau] * (horizon + 1),
                                      [p] * (horizon + 1), 20.0, 0.99, DT)
        sol = solve(problem)
        assert sol.status == "optimal"
        u_slots = np.zeros((horizon + 1, m, m))
        u_slots[index.u] = sol.x[:index.u[0].size]
        x_lp = sol.x[index.x_cols]
        expected = predict_supply(x0, sched, wbar, [tau] * (horizon + 1),
                                  [p] * (horizon + 1), u_slots, DT)
        np.testing.assert_allclose(x_lp, expected, atol=1e-7)

    def test_shortage_monotone_in_penalty(self):
        rng = np.random.default_rng(99)
        sc = random_supply_scenario(rng)
        shortages = []
        for lam in (0.0, 10.0, 20.0, 40.0):
            plan = solve_rhc(sc["x0"], sc["sched"], sc["wbar"], sc["tau_slots"],
                             sc["p_slots"], lam, 0.99, sc["dt"])
            assert plan.status == "optimal"
            wbar = sc["wbar"]
            xs = np.vstack([sc["x0"][None, :], plan.x_future])
            shortages.append(float(np.maximum(wbar - xs, 0.0).sum()))
        for a, b in zip(shortages[:-1], shortages[1:]):
            assert b <= a + 1e-7


def assert_same_program(problem, reference):
    """Equal coefficients, signed zeros included, in every array of the LP."""
    for name in ("c", "b_ub", "b_eq"):
        got, want = getattr(problem, name), getattr(reference, name)
        if want is None:
            assert got is None, name
            continue
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
    for name in ("a_ub", "a_eq"):
        got, want = getattr(problem, name), getattr(reference, name)
        if want is None:
            assert got is None, name
            continue
        assert got.shape == want.shape, name
        for part in ("start", "index", "value"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), (name, part)


@st.composite
def lp_inputs(draw):
    """Small horizon programs with trip times on and around the one-slot limit."""
    m = draw(st.integers(1, 5))
    horizon = draw(st.integers(0, 4))
    dt = draw(st.sampled_from([15.0, 10.0]))
    counts = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5])
    minutes = st.sampled_from([0.0, dt, 0.5 * dt, dt + 0.25, 2.0 * dt, 3.5 * dt])
    probs = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
    return dict(
        x0=draw(hnp.arrays(np.float64, m, elements=counts)),
        sched=draw(hnp.arrays(np.float64, (horizon, m), elements=counts)),
        wbar=draw(hnp.arrays(np.float64, (horizon + 1, m), elements=counts)),
        tau_slots=list(draw(hnp.arrays(np.float64, (horizon + 1, m, m), elements=minutes))),
        p_slots=list(draw(hnp.arrays(np.float64, (horizon + 1, m, m), elements=probs))),
        reject_penalty=draw(st.sampled_from([0.0, 3.0, 20.0])),
        discount=draw(st.sampled_from([0.0, 0.5, 0.99, 1.0])),
        slot_minutes=dt,
    )


class TestLpAssembly:
    @settings(max_examples=300, deadline=None)
    @given(lp_inputs())
    def test_equals_reference_builder(self, kw):
        problem, _ = build_rhc_lp(**kw)
        assert_same_program(problem, rhc_lp_reference(**kw))

    def test_equals_reference_builder_on_seeded_programs(self):
        for seed in range(400):
            kw = seeded_rhc_lp_inputs(seed, DT)
            problem, _ = build_rhc_lp(**kw)
            assert_same_program(problem, rhc_lp_reference(**kw))

    def test_index_blocks_tile_the_columns(self):
        sc = random_supply_scenario(np.random.default_rng(3))
        problem, index = build_rhc_lp(sc["x0"], sc["sched"], sc["wbar"],
                                      sc["tau_slots"], sc["p_slots"], 20.0, 0.99, sc["dt"])
        nu = index.u[0].size
        cols = np.concatenate([np.arange(nu)] + [b.ravel() for b in (
            index.x_cols, index.s_cols, index.m_cols, index.l_cols)])
        assert np.array_equal(cols, np.arange(problem.n_vars))
        tau = np.asarray(sc["tau_slots"])
        reach = (tau <= sc["dt"]) & ~np.eye(tau.shape[1], dtype=bool)
        assert np.array_equal(np.nonzero(reach), index.u)


class TestRewardAndMismatch:
    def test_mismatch_zero_when_proportional(self):
        x = np.array([[2.0, 4.0], [6.0, 8.0]])
        eta = mismatch(x, 3.0 * x)
        np.testing.assert_allclose(eta, 0.0, atol=1e-12)

    def test_mismatch_hand_example(self):
        x = np.array([[2.0, 0.0]])
        w = np.array([[1.0, 1.0]])
        eta = mismatch(x, w)
        np.testing.assert_allclose(eta, [[0.5, -0.5]])

    def test_mismatch_sums_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0, 5, size=(4, 4))
            w = rng.uniform(0, 5, size=(4, 4))
            assert mismatch(x, w).sum() == pytest.approx(0.0, abs=1e-9)

    def test_mismatch_empty_denominators(self):
        eta = mismatch(np.zeros((2, 2)), np.zeros((2, 2)))
        np.testing.assert_array_equal(eta, 0.0)
        eta = mismatch(np.zeros((1, 2)), np.array([[1.0, 3.0]]))
        np.testing.assert_allclose(eta, [[-0.25, -0.75]])


class TestTables:
    def test_single_destination_probability_one(self):
        tt, dd = estimate_tables([0, 0, 0], [1, 1, 1], [2, 2, 2], [9, 9, 9],
                                 [7.0, 9.0, 11.0], zone_count=2,
                                 centroid_dist_m=np.full((2, 2), 1000.0))
        assert dd[2, 9, 0, 1] == pytest.approx(1.0)
        assert tt[2, 9, 0, 1] == pytest.approx(9.0)

    def test_two_equal_destinations(self):
        _, dd = estimate_tables([0, 0], [1, 0], [0, 0], [5, 5], [5.0, 5.0],
                                zone_count=2, centroid_dist_m=np.full((2, 2), 1000.0))
        np.testing.assert_allclose(dd[0, 5, 0], [0.5, 0.5])

    def test_rows_stochastic_everywhere(self):
        rng = np.random.default_rng(1)
        n = 200
        _, dd = estimate_tables(rng.integers(0, 3, n), rng.integers(0, 3, n),
                                rng.integers(0, 7, n), rng.integers(0, 24, n),
                                rng.uniform(2, 30, n), zone_count=3,
                                centroid_dist_m=np.full((3, 3), 1000.0))
        np.testing.assert_allclose(dd.sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n, zone_count", [(0, 2), (1, 3), (40, 4), (3000, 3)])
    def test_destinations_equal_row_by_row_reference(self, n, zone_count):
        # few trips leave single-trip and empty rows and trip-less origins
        rng = np.random.default_rng(n)
        records = (rng.integers(0, zone_count, n), rng.integers(0, zone_count, n),
                   rng.integers(0, 7, n), rng.integers(0, 24, n))
        _, dd = estimate_tables(*records, rng.uniform(2, 30, n), zone_count=zone_count,
                                centroid_dist_m=np.full((zone_count,) * 2, 1000.0))
        want = destination_table_reference(*records, zone_count)
        assert dd.tobytes() == want.tobytes()

    def test_empty_bucket_falls_back_to_marginal_then_uniform(self):
        # origin 0 only ever goes to zone 2, but at a different hour
        _, dd = estimate_tables([0], [2], [3], [10], [6.0], zone_count=3,
                                centroid_dist_m=np.full((3, 3), 1000.0))
        np.testing.assert_allclose(dd[0, 0, 0], [0.0, 0.0, 1.0])  # marginal
        np.testing.assert_allclose(dd[0, 0, 1], [1 / 3] * 3)      # uniform

    def test_missing_tau_uses_distance_fallback(self):
        dist = np.array([[0.0, 5000.0], [5000.0, 0.0]])
        tt, _ = estimate_tables([], [], [], [], [], zone_count=2,
                                centroid_dist_m=dist)
        assert tt[0, 0, 0, 1] == pytest.approx(12.0)  # 5 km at 25 km/h

    def test_npz_round_trip_keeps_bytes_and_dtype(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 60
        tt, dd = estimate_tables(rng.integers(0, 2, n), rng.integers(0, 2, n),
                                 rng.integers(0, 7, n), rng.integers(0, 24, n),
                                 rng.uniform(2, 30, n), zone_count=2,
                                 centroid_dist_m=np.ones((2, 2)) * 1000)
        tt[0, 0, 0, 0] = 0.0
        tt[1, 2, 0, 1] = 5e-324
        tt[6, 23, 1, 1] = 1e300
        write_model_file(tmp_path / "t.npz", {}, {"minutes": tt, "prob": dd})
        tt2, dd2 = self.read_tables(tmp_path / "t.npz", 2)
        assert tt2.dtype == dd2.dtype == np.float64
        assert (tt2.tobytes(), dd2.tobytes()) == (tt.tobytes(), dd.tobytes())

    @staticmethod
    def read_tables(path, zone_count):
        """The ``(minutes, prob)`` tables of the model file at ``path``, read and
        checked for ``zone_count`` zones as the experiment's model loader does."""
        shape = (7, 24, zone_count, zone_count)
        _, tables = read_model_file(path, {}, {"minutes": shape, "prob": shape})
        check_tables(path, tables["minutes"], tables["prob"])
        return tables["minutes"], tables["prob"]

    @staticmethod
    def uniform_tables(tmp_path, m):
        path = tmp_path / "t.npz"
        write_model_file(path, {}, {"minutes": np.full((7, 24, m, m), 5.0),
                                    "prob": np.full((7, 24, m, m), 1.0 / m)})
        return path

    def test_16_zone_tables_loaded_as_100_zones_rejected(self, tmp_path):
        path = self.uniform_tables(tmp_path, 16)
        self.read_tables(path, 16)
        stale = r"minutes is float64 \(7, 24, 16, 16\), not float64 \(7, 24, 100, 100\)"
        with pytest.raises(CheckpointError, match=stale):
            self.read_tables(path, 100)

    def test_100_zone_tables_loaded_as_16_zones_rejected(self, tmp_path):
        path = self.uniform_tables(tmp_path, 100)
        stale = r"minutes is float64 \(7, 24, 100, 100\), not float64 \(7, 24, 16, 16\)"
        with pytest.raises(CheckpointError, match=stale):
            self.read_tables(path, 16)

    @pytest.mark.parametrize("column,value,match", [
        ("minutes", np.nan, "minutes is not finite"),
        ("minutes", np.inf, "minutes is not finite"),
        ("minutes", -1.0, "minutes must be non-negative"),
        ("minutes", -5e-324, "minutes must be non-negative"),
        ("prob", 0.6, r"prob row \(dow, hour, origin\) = \(3, 4, 1\) does not sum to 1"),
        ("prob", -0.5, "prob must be non-negative"),
        ("prob", 0.5 + 2e-9, r"prob row .* does not sum to 1"),
        ("prob", np.nan, "prob is not finite"),
    ])
    def test_bad_table_values_rejected(self, tmp_path, column, value, match):
        tables = {"minutes": np.full((7, 24, 2, 2), 5.0), "prob": np.full((7, 24, 2, 2), 0.5)}
        tables[column][3, 4, 1, 0] = value
        write_model_file(tmp_path / "t.npz", {}, tables)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(tmp_path))}/t.npz: {match}"):
            self.read_tables(tmp_path / "t.npz", 2)

    @pytest.mark.parametrize("arrays,match", [
        ({"minutes": np.full((7, 24, 2, 2), 5.0)}, "no array prob"),
        ({"minutes": np.full((7, 24, 2, 2), 5), "prob": np.full((7, 24, 2, 2), 0.5)},
         r"minutes is int64 \(7, 24, 2, 2\), not float64"),
        ({"minutes": np.full((7, 24, 2, 2), 5.0), "prob": np.full((7, 24, 2, 2), "0.5")},
         "prob is <U3"),
        ({"minutes": np.full((7, 24, 2, 2), 5.0), "prob": np.full((7, 24, 2), 0.5)},
         r"prob is float64 \(7, 24, 2\), not float64 \(7, 24, 2, 2\)"),
    ], ids=["missing-array", "integer", "text", "wrong-shape"])
    def test_arrays_other_than_two_float64_tables_rejected(self, tmp_path, arrays, match):
        np.savez(tmp_path / "t.npz", **arrays)
        with pytest.raises(CheckpointError, match=match):
            self.read_tables(tmp_path / "t.npz", 2)

    def test_row_sums_within_the_tolerance_pass(self):
        prob = np.full((7, 24, 2, 2), 0.5)
        prob[3, 4, 1, 0] += 5e-10
        check_tables("t.npz", np.zeros((7, 24, 2, 2)), prob)

    def test_zone_centroid_distances_symmetric(self):
        g = GridSpec(rows=4, cols=4, cell_size=500.0, origin=Location(40.0, -74.0))
        d = zone_centroid_distances(RegionMap(g, 2))
        np.testing.assert_allclose(d, d.T, atol=1e-6)
        assert d[0, 0] == 0.0
        assert d[0, 1] > 0

    def test_zone_centroid_distances_equal_cell_by_cell_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            block, rows, cols = (int(v) for v in rng.integers(1, 5, size=3))
            g = GridSpec(rows=rows * block, cols=cols * block, cell_size=450.0,
                         origin=Location(40.7, -74.0))
            rm = RegionMap(g, block)
            np.testing.assert_array_equal(zone_centroid_distances(rm),
                                          zone_centroid_distances_reference(rm))


class TestRounding:
    def test_preserves_integer_row_budget(self):
        # the LP guarantees row sums within the integer zone supply, so
        # nearest-rounded totals stay within it too
        rng = np.random.default_rng(4)
        for _ in range(30):
            budget = rng.integers(0, 5, size=4)
            u = rng.uniform(0, 1, size=(4, 4))
            u *= (budget / np.maximum(u.sum(axis=1), 1e-9))[:, None] * rng.uniform(0, 1, size=(4, 1))
            r = round_plan(u)
            assert (r.sum(axis=1) <= budget).all()
            assert (r >= 0).all()

    def test_largest_remainder_hand_case(self):
        u = np.array([[0.6, 0.9, 0.5]])
        r = round_plan(u)
        # row total 2.0: the two largest remainders get the units
        np.testing.assert_array_equal(r, [[1, 1, 0]])

    def test_half_unit_row_dispatches_one(self):
        r = round_plan(np.array([[0.3, 0.3]]))
        assert r.sum() == 1
        np.testing.assert_array_equal(r, [[1, 0]])

    def test_integer_input_unchanged(self):
        u = np.array([[2.0, 0.0], [1.0, 3.0]])
        np.testing.assert_array_equal(round_plan(u), u.astype(int))


class TestAssignVehicles:
    # zone 0 is the top 2x2 block of a 4x2 grid, zone 1 the bottom one
    ZONE_CELLS = RegionMap(
        GridSpec(rows=4, cols=2, cell_size=500.0, origin=Location(40.0, -74.0)), 2).cells

    def test_empty_plan(self):
        orders, warnings = assign_vehicles(np.zeros((2, 2), dtype=int),
                                           np.zeros((4, 2)), [], self.ZONE_CELLS)
        assert orders == [] and warnings == []

    def test_highest_mismatch_source_selected(self):
        u = np.array([[0, 1], [0, 0]])
        eta = np.array([[0.3, 0.1], [0.0, 0.0], [-0.2, -0.2], [-0.2, -0.2]])
        idle = [(7, (0, 0)), (3, (0, 1))]
        orders, warnings = assign_vehicles(u, eta, idle, self.ZONE_CELLS)
        assert not warnings
        assert len(orders) == 1
        assert orders[0].vehicle_id == 7  # vehicle at the eta=0.3 cell

    def test_lowest_mismatch_target_cell(self):
        u = np.array([[0, 1], [0, 0]])
        eta = np.array([[0.4, 0.0], [0.0, 0.0], [0.2, -0.5], [0.0, 0.1]])
        orders, _ = assign_vehicles(u, eta, [(1, (0, 0))], self.ZONE_CELLS)
        assert orders[0].target_cell == (2, 1)

    def test_tie_breaks_lowest_cell_then_lowest_vehicle(self):
        u = np.array([[0, 1], [0, 0]])
        eta = np.zeros((4, 2))
        idle = [(9, (0, 0)), (2, (0, 0)), (5, (0, 1))]
        orders, _ = assign_vehicles(u, eta, idle, self.ZONE_CELLS)
        assert orders[0].vehicle_id == 2          # lowest id in lowest tied cell
        assert orders[0].target_cell == (2, 0)    # lowest row-major cell of zone 1

    def test_truncates_with_warning_when_out_of_vehicles(self):
        u = np.array([[0, 3], [0, 0]])
        eta = np.zeros((4, 2))
        orders, warnings = assign_vehicles(u, eta, [(1, (0, 0))], self.ZONE_CELLS)
        assert len(orders) == 1
        assert len(warnings) == 2

    def test_mismatch_updates_steer_later_units(self):
        # two units from zone 0: after the first assignment the source cell's
        # share drops, so the second unit comes from the other cell
        u = np.array([[0, 2], [0, 0]])
        eta = np.array([[0.30, 0.29], [0.0, 0.0], [-0.3, -0.29], [0.0, 0.0]])
        idle = [(1, (0, 0)), (2, (0, 0)), (3, (0, 1)), (4, (0, 1))]
        orders, _ = assign_vehicles(u, eta, idle, self.ZONE_CELLS)
        # four idle vehicles, so each assignment moves 0.25 of share
        assert orders[0].vehicle_id == 1
        assert orders[1].vehicle_id == 3
        # first target was the -0.3 cell, whose share then rose by 0.25
        assert orders[0].target_cell == (2, 0)
        assert orders[1].target_cell == (2, 1)

    def test_equals_reference_loops(self):
        # seeded plans over 9 zones of a 6x6 grid: surplus values drawn from
        # five levels, so cells tie; zones left without an idle vehicle; and
        # units of up to 3 per zone pair
        grid = GridSpec(rows=6, cols=6, cell_size=500.0, origin=Location(40.0, -74.0))
        zones = RegionMap(grid, 2)
        zone_cells = zones.cells
        rng = np.random.default_rng(23)
        seen = {"warnings": 0, "ties": 0, "multi_units": 0}
        for _ in range(300):
            surplus = rng.choice([-0.2, -0.1, 0.0, 0.1, 0.2], size=grid.shape)
            n_idle = int(rng.integers(0, 15))
            cells = rng.integers(0, 6, size=(n_idle, 2)).tolist()
            idle = [(int(vid), tuple(cell))
                    for vid, cell in zip(rng.permutation(40)[:n_idle], cells)]
            u = rng.integers(0, 4, size=(9, 9)) * (rng.random((9, 9)) < 0.15)
            orders, warnings = assign_vehicles(u, surplus, idle, zone_cells)
            assert (orders, warnings) == assign_vehicles_reference(u, surplus, idle,
                                                                   region_cells(zones))
            seen["warnings"] += len(warnings)
            seen["ties"] += sum(len(set(surplus[c] for c in zc)) < len(zc)
                                for zc in zone_cells)
            seen["multi_units"] += int((u > 1).sum())
        assert all(seen.values()), seen


class TestNonOptimalLp:
    def test_non_optimal_status_degrades_to_no_dispatch(self, monkeypatch):
        m = ZONES.region_count
        tau = np.full((7, 24, m, m), 5.0)
        prob = np.full((7, 24, m, m), 1.0 / m)
        # supply in one corner, demand in the opposite one: an optimal plan dispatches
        trailing = np.zeros(GRID.shape)
        trailing[9, 9] = 8.0
        demand = fake_demand(lambda view: view.trailing_heat,
                             np.broadcast_to(trailing, (7, 24) + GRID.shape))
        policy = rhc.RhcPolicy(ZONES, tau, prob, demand, **rhc_settings())
        view = fake_view(t=60.0, idle_cells={vid: (0, vid % 2) for vid in range(4)},
                         trailing=trailing)
        assert policy.dispatch(view)

        gave_up = LpSolution("iteration_limit", None, None)
        monkeypatch.setattr(rhc, "solve", lambda problem: gave_up)
        assert policy.dispatch(view) == []
        assert policy.last_plan.status == "iteration_limit"

import dataclasses
import gc
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (CFG, DqnPolicyReference, ReferenceSimulation, VehicleState, eta_one_row,
                     fake_demand, rhc_settings, seeded_rhc_lp_inputs, sim_settings)
from test_dqn import make_training, sample_qnet

from fleetsim import neural
from fleetsim.clock import Clock
from fleetsim.dqn import DqnPolicy
from fleetsim.eta import ETA_SPEC, EtaModel
from fleetsim.geo import (GridSpec, Location, OutOfBoundsError, RegionMap, center_of,
                          haversine)
from fleetsim.harness import experiment as ex
from fleetsim.harness.config import ExperimentConfig
from fleetsim.harness.synth import synth_city
from fleetsim.lp import solve
from fleetsim.rhc import RhcPolicy, build_rhc_lp
from fleetsim.roadgraph import RoadGraph
from fleetsim.sim import (
    DISPATCHING,
    IDLE,
    OCCUPIED,
    TO_PICKUP,
    DispatchOrder,
    RideRequest,
    Simulation,
    Trips,
    finalize_metrics,
    idle_mask,
)


class ConstantEta:
    """Stub ETA model: fixed minutes regardless of features."""

    def __init__(self, minutes=2.0):
        self.minutes = minutes

    def predict(self, features):
        return np.full(len(features), self.minutes)


class DistanceEta:
    """Stub ETA model: minutes proportional to the trip distance feature."""

    def __init__(self, minutes_per_km=2.0):
        self.k = minutes_per_km

    def predict(self, features):
        return self.k * features[:, 8]


def make_grid(rows=4, cols=4, cell=1000.0):
    return GridSpec(rows=rows, cols=cols, cell_size=cell, origin=Location(40.0, -74.0))


def req(rid, minute, pickup, dropoff, trip=5.0, dist=2.0):
    return RideRequest(rid, minute, pickup, dropoff, trip, dist)


def unsorted_requests():
    """Five requests, neither their ids nor their minutes in order, one minute
    repeated."""
    return [req(rid, minute, Location(40.0 + rid / 100, -74.0),
                Location(40.01, -74.0 - minute / 100), trip=1.5 + rid, dist=0.25 * rid)
            for rid, minute in ((7, 30.0), (2, 5.5), (9, 30.0), (0, 12.25), (4, -3.0))]


def trip_columns(n=3):
    """Valid columns of ``n`` trips, by ``Trips.FIELDS`` name."""
    return {"rid": np.arange(n), "minute": np.arange(n) * 2.0,
            "pickup_lat": np.full(n, 40.0), "pickup_lon": np.full(n, -74.0),
            "dropoff_lat": np.full(n, 40.01), "dropoff_lon": np.full(n, -74.01),
            "trip_minutes": np.arange(1, n + 1) * 3.0, "distance_km": np.full(n, 1.5)}


class TestTrips:
    def test_rows_come_back_in_the_given_order(self):
        reqs = unsorted_requests()
        trips = Trips.of(reqs)
        assert list(trips) == reqs
        assert trips == reqs and reqs == trips and trips == tuple(reqs)
        assert trips != reqs[::-1] and trips != reqs[:-1] and trips != 3
        assert Trips.of(trips) is trips
        assert Trips.of([]) == [] and len(Trips.of([])) == 0

    def test_columns_hold_the_fields(self):
        reqs = unsorted_requests()
        trips = Trips.of(reqs)
        assert trips.rid.dtype == np.int64 and trips.rid.tolist() == [r.rid for r in reqs]
        assert trips.minute.tolist() == [r.minute for r in reqs]
        assert trips.pickup_lat.tolist() == [r.pickup.lat for r in reqs]
        assert trips.dropoff_lon.tolist() == [r.dropoff.lon for r in reqs]
        assert trips.trip_minutes.tolist() == [r.trip_minutes for r in reqs]
        assert trips.distance_km.tolist() == [r.distance_km for r in reqs]
        assert Trips(**trip_columns()) == Trips(**trip_columns())

    def test_indexing_takes_numpy_integers_and_slices(self):
        reqs = unsorted_requests()
        trips = Trips.of(reqs)
        for i in (np.int64(3), np.int32(1), np.intp(0), -1, 4):
            assert trips[i] == reqs[i]
            assert type(trips[i].rid) is int and type(trips[i].minute) is float
        assert [trips[i] for i in np.array([4, 0, 2])] == [reqs[4], reqs[0], reqs[2]]
        assert trips[np.array([4, 0, 2])] == [reqs[4], reqs[0], reqs[2]]
        assert trips[np.array([True, False, False, True, False])] == [reqs[0], reqs[3]]
        for part in (slice(1, 4), slice(None, None, -2), slice(3, 1), slice(-2, None)):
            assert isinstance(trips[part], Trips)
            assert list(trips[part]) == reqs[part]
        with pytest.raises(IndexError):
            trips[5]
        with pytest.raises(TypeError):
            trips[1.0]

    def test_columns_are_read_only_and_leave_the_callers_arrays_alone(self):
        cols = trip_columns()
        trips = Trips(**cols)
        with pytest.raises(ValueError, match="read-only"):
            trips.minute[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            trips[1:].trip_minutes[0] = 5.0
        cols["minute"][0] = 5.0
        assert cols["minute"].flags.writeable

    @pytest.mark.parametrize("name", Trips.FIELDS)
    def test_columns_of_another_length_or_shape_are_refused(self, name):
        for bad in (np.zeros(2), np.zeros(4), np.ones((3, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="1-D and of one length"):
                Trips(**{**trip_columns(), name: bad})

    @pytest.mark.parametrize("name", Trips.FIELDS[1:])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_value_that_is_not_finite_is_refused(self, name, value):
        cols = trip_columns()
        cols[name] = cols[name].copy()
        cols[name][1] = value
        with pytest.raises(ValueError, match=f"trip column {name} holds a value that is not"):
            Trips(**cols)

    @pytest.mark.parametrize("minutes", [0.0, -1.0, -1e-300])
    def test_a_trip_time_that_is_not_positive_is_refused(self, minutes):
        cols = trip_columns()
        cols["trip_minutes"] = np.array([3.0, minutes, 9.0])
        with pytest.raises(ValueError, match="request 1: trip must take positive time"):
            Trips(**cols)
        with pytest.raises(ValueError, match="request 1: trip must take positive time"):
            Trips.of([req(1, 0.0, Location(40.0, -74.0), Location(40.0, -74.0), trip=minutes)])

    def test_window_shifts_the_minutes_in_the_given_order(self):
        reqs = unsorted_requests()
        assert ex.episode_requests(Trips.of(reqs), 5.5, 30.0) == [
            RideRequest(r.rid, r.minute - 5.5, r.pickup, r.dropoff, r.trip_minutes, r.distance_km)
            for r in reqs if 5.5 <= r.minute < 30.0]
        assert ex.episode_requests(Trips.of(reqs), 31.0, 40.0) == []


def vehicles(sim):
    """Every vehicle's full state as the oracle's :class:`VehicleState` records:
    a :class:`ReferenceSimulation`'s own fleet, or a :class:`Simulation`'s
    columns read the way the oracle keeps them.

    While a vehicle stands idle ``dest`` and ``arrival_time`` are None and
    ``path`` is empty; ``depart_time`` and ``path_cumlen`` keep the last
    route's values, and are None before the first route.
    """
    if isinstance(sim, ReferenceSimulation):
        return sim.fleet
    rows = zip(range(sim.n_vehicles), sim._status.tolist(), sim._lat.tolist(),
               sim._lon.tolist(), sim._depart.tolist(), sim._arrival.tolist(),
               sim._route_len.tolist(), sim._route_lat.tolist(), sim._route_lon.tolist(),
               sim._route_cum.tolist(), sim._ride_row.tolist(), sim._last_dropoff.tolist(),
               sim._last_ride.tolist(), sim._ordered.tolist(), sim._pickups.tolist(),
               sim._dispatch_minutes.tolist())
    out = []
    for (vid, status, lat, lon, depart, arrival, n, route_lat, route_lon, cum, row,
         dropoff_t, ride_t, ordered, pickups, cruise) in rows:
        moving = status != IDLE
        path = tuple(map(Location, route_lat[:n], route_lon[:n])) if moving else ()
        # the last matched request: its trip and dropoff stay with the vehicle,
        # its id only while the vehicle is committed to it
        ride = sim.requests[row] if row >= 0 else None
        out.append(VehicleState(
            vid=vid, loc=Location(lat, lon), status=status,
            dest=path[-1] if moving else None,
            arrival_time=arrival if moving else None,
            depart_time=depart if n else None, path=path,
            path_cumlen=cum[:n] if n else None,
            ride_trip_minutes=ride.trip_minutes if ride is not None else 0.0,
            ride_dropoff=ride.dropoff if ride is not None else None,
            ride_id=ride.rid if status in (TO_PICKUP, OCCUPIED) else -1,
            last_dropoff_time=dropoff_t, last_ride_time=ride_t,
            ordered_since_dropoff=ordered, pickups=pickups, dispatch_minutes=cruise))
    return out


def initial_fleet(requests, n_vehicles):
    grid = make_grid()
    return vehicles(Simulation(grid, RoadGraph(grid), ConstantEta(), requests, n_vehicles,
                               **sim_settings()))


class TestInitFleet:
    def test_vehicles_at_first_pickups(self):
        grid = make_grid()
        a = center_of((0, 0), grid)
        b = center_of((1, 1), grid)
        fleet = initial_fleet([req(0, 0.0, a, b), req(1, 1.0, b, a)], 2)
        assert fleet[0].loc == a
        assert fleet[1].loc == b
        assert all(v.status == IDLE for v in fleet)

    def test_too_few_requests(self):
        grid = make_grid()
        a = center_of((0, 0), grid)
        with pytest.raises(ValueError):
            initial_fleet([req(0, 0.0, a, a)], 2)

    def test_deterministic(self):
        grid = make_grid()
        a = center_of((0, 0), grid)
        b = center_of((2, 3), grid)
        reqs = [req(0, 0.0, a, b), req(1, 1.0, b, a)]
        f1 = initial_fleet(reqs, 2)
        f2 = initial_fleet(reqs, 2)
        assert [(v.vid, v.loc) for v in f1] == [(v.vid, v.loc) for v in f2]

    def test_fleet_is_a_snapshot(self):
        grid = make_grid()
        a = center_of((0, 0), grid)
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(), [req(0, 0.0, a, a)], 1,
                         **sim_settings())
        before = sim.fleet
        sim.step_minute()
        assert before == [(0, IDLE)] and sim.fleet == [(0, TO_PICKUP)]
        with pytest.raises(AttributeError):
            sim.fleet[0].status = IDLE

    def test_requests_retain_at_most_96_bytes_each(self):
        # an episode's requests stay eight 8-byte columns, sorted once, with
        # no object per request (a sorted list of rows held ~500 B each)
        grid = make_grid()
        graph = RoadGraph(grid)
        n = 10_000
        rng = np.random.default_rng(5)
        lats = grid.origin.lat + rng.uniform(0.0, grid.rows * grid.d_lat, (2, n))
        lons = grid.origin.lon + rng.uniform(0.0, grid.cols * grid.d_lon, (2, n))
        trips = Trips(rng.permutation(n), rng.uniform(0.0, 1440.0, n), lats[0], lons[0],
                      lats[1], lons[1], np.full(n, 5.0), np.full(n, 2.0))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            sim = Simulation(grid, graph, ConstantEta(), trips, 10, **sim_settings())
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(sim.requests) == n
        assert (after - before) / n <= 96


class TestIdleSet:
    def dispatchable(self, status, ordered=False, last_ride=-np.inf):
        return idle_mask(np.array([status]), np.array([ordered]), np.array([last_ride]),
                         t=100.0, window=CFG.idle_window_minutes).tolist()

    def test_fresh_dropoff_without_order_is_in(self):
        assert self.dispatchable(IDLE, ordered=False, last_ride=95.0) == [True]

    def test_dispatched_recently_but_ride_starved_is_in(self):
        # 20 min since last ride
        assert self.dispatchable(DISPATCHING, ordered=True, last_ride=80.0) == [True]

    def test_ordered_and_recent_ride_is_out(self):
        assert self.dispatchable(IDLE, ordered=True, last_ride=95.0) == [False]

    def test_committed_vehicles_never_in(self):
        for status in (TO_PICKUP, OCCUPIED):
            assert self.dispatchable(status) == [False]


def scripted_simulation():
    grid = make_grid()
    graph = RoadGraph(grid)
    p00 = center_of((0, 0), grid)
    p03 = center_of((0, 3), grid)
    p30 = center_of((3, 0), grid)
    p33 = center_of((3, 3), grid)
    requests = [
        req(0, 0.0, p00, p33, trip=5.0),
        req(1, 0.0, p03, p00, trip=7.0),
        req(2, 3.0, p30, p00, trip=6.0),
        req(3, 4.0, p33, p00, trip=5.0),   # everyone busy: reject
        req(4, 8.0, p33, p00, trip=5.0),   # served by vehicle 0 after dropoff
    ]
    return Simulation(grid, graph, ConstantEta(2.0), requests, n_vehicles=3,
                      policy=None, **sim_settings(warmup=0))


class TestScriptedScenario:
    def test_hand_traced_metrics(self):
        sim = scripted_simulation()
        metrics = sim.run(20)
        report = finalize_metrics(metrics)
        assert report["total_requests"] == 5
        assert report["rejects"] == 1
        assert report["accepted"] == 4
        assert report["reject_rate"] == pytest.approx(0.2)
        assert report["mean_wait_minutes"] == pytest.approx(2.0)
        # hand trace: vehicles spend 4+2+2 minutes en route to pickups
        assert metrics.cruise_sum == 8.0
        assert report["idle_cruise_per_accepted"] == pytest.approx(2.0)
        # occupied minutes 10, 7, 6 over 20 elapsed
        np.testing.assert_array_equal(metrics.occupied_minutes, [10.0, 7.0, 6.0])
        assert report["utilization_mean"] == pytest.approx((0.5 + 0.35 + 0.3) / 3)
        assert report["utilization_min"] == pytest.approx(0.3)

    def test_lifecycle_counts(self):
        # four requests assigned and one rejected; four pickups, and all four
        # rides dropped off, as every vehicle stands idle with no ride
        sim = scripted_simulation()
        sim.run(20)
        assert (sim.metrics.accepted, sim.metrics.rejects) == (4, 1)
        assert sim._pickups.sum() == 4
        assert [(v.status, v.ride_id) for v in vehicles(sim)] == [(IDLE, -1)] * 3

    def test_bit_identical_reruns(self):
        r1 = finalize_metrics(scripted_simulation().run(20))
        r2 = finalize_metrics(scripted_simulation().run(20))
        assert r1 == r2

    def test_vehicle_conservation_each_step(self):
        sim = scripted_simulation()
        for _ in range(20):
            sim.step_minute()
            statuses = [v.status for v in sim.fleet]
            assert len(statuses) == 3
            assert all(s in (IDLE, DISPATCHING, TO_PICKUP, OCCUPIED) for s in statuses)

    def test_arrival_times_never_in_past(self):
        sim = scripted_simulation()
        for _ in range(20):
            t_before = sim.t
            sim.step_minute()
            for v in vehicles(sim):
                if v.arrival_time is not None:
                    assert v.arrival_time >= t_before


class TestMatching:
    def test_zero_distance_vehicle_matched_with_eta_wait(self):
        grid = make_grid()
        p = center_of((1, 1), grid)
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(3.5),
                         [req(0, 0.0, p, center_of((0, 0), grid))],
                         n_vehicles=1, **sim_settings(warmup=0))
        m = sim.run(2)
        assert m.accepted == 1
        assert m.wait_sum == pytest.approx(3.5)
        assert sim.fleet[0].status == TO_PICKUP

    def test_reject_beyond_five_kilometers(self):
        grid = make_grid(rows=8, cols=8)
        near = center_of((0, 0), grid)
        far = center_of((0, 6), grid)  # ~6 km east
        assert haversine(near, far) > 5000.0
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(),
                         [req(0, 0.0, near, near), req(1, 1.0, far, near)],
                         n_vehicles=1, **sim_settings(warmup=0))
        m = sim.run(3)
        assert m.rejects == 1
        assert m.accepted == 1

    def test_within_five_kilometers_matched(self):
        grid = make_grid(rows=8, cols=8)
        base = center_of((0, 0), grid)
        near = center_of((0, 4), grid)  # ~4 km
        assert haversine(base, near) < 5000.0
        # vehicle serves a trivial ride at base first, then the 4 km request
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(),
                         [req(0, 0.0, base, base, trip=1.0), req(1, 5.0, near, base)],
                         n_vehicles=1, **sim_settings(warmup=0))
        m = sim.run(8)
        assert m.rejects == 0
        assert m.accepted == 2

    def test_equidistant_tie_prefers_lower_vehicle_id(self):
        grid = make_grid()
        p = center_of((2, 2), grid)
        other = center_of((0, 0), grid)
        # both vehicles start at the same pickup location
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(),
                         [req(0, 0.0, p, other), req(1, 0.0, p, other),
                          req(2, 2.0, p, other)],
                         n_vehicles=2, **sim_settings(warmup=0))
        sim.step_minute()
        fleet = vehicles(sim)
        assert fleet[0].status == TO_PICKUP
        assert fleet[0].ride_id == 0
        assert fleet[1].status == TO_PICKUP
        assert fleet[1].ride_id == 1

    def test_dispatching_vehicle_matchable_mid_route(self):
        grid = make_grid(rows=8, cols=8)
        start = center_of((0, 0), grid)
        target = center_of((0, 3), grid)
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(10.0),
                         [req(0, 0.0, start, start, trip=1.0),
                          req(7, 5.0, target, start, trip=2.0)],
                         n_vehicles=1, **sim_settings(warmup=0))
        # drive manually: minute 0, whose request only places the vehicle, never runs
        sim.apply_dispatch([DispatchOrder(0, (0, 6))], t=0.0)
        assert sim.fleet[0].status == DISPATCHING
        # halfway through a 10-minute move it sits ~3 km east, within reach
        sim.t = 5
        lat, lon = sim.positions(5.0, np.array([0]))
        pos = Location(float(lat[0]), float(lon[0]))
        assert 2000.0 < haversine(start, pos) < 4500.0
        sim._match_requests(5.0, measured=True)
        fleet = vehicles(sim)
        assert fleet[0].status == TO_PICKUP
        assert fleet[0].ride_id == 7


class TestApplyDispatch:
    def test_empty_plan_changes_nothing(self):
        sim = scripted_simulation()
        before = [(v.status, v.loc) for v in vehicles(sim)]
        sim.apply_dispatch([], t=0.0)
        assert [(v.status, v.loc) for v in vehicles(sim)] == before

    def test_dispatch_to_current_cell_is_immediate(self):
        grid = make_grid()
        p = center_of((1, 1), grid)
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(),
                         [req(0, 0.0, p, p)], n_vehicles=1, **sim_settings(warmup=0))
        sim.apply_dispatch([DispatchOrder(0, (1, 1))], t=0.0)
        v = vehicles(sim)[0]
        assert v.status == IDLE
        assert v.loc == p

    def test_committed_vehicle_order_skipped_with_warning(self, caplog):
        sim = scripted_simulation()
        sim.step_minute()  # vehicle 0 now to_pickup
        assert sim.fleet[0].status == TO_PICKUP
        with caplog.at_level("WARNING"):
            sim.apply_dispatch([DispatchOrder(0, (3, 3))], t=1.0)
        assert sim.fleet[0].status == TO_PICKUP
        assert any("ignored" in r.message for r in caplog.records)

    def test_order_list_naming_a_vehicle_twice_rejected(self):
        sim = scripted_simulation()
        before = [(v.status, v.loc) for v in vehicles(sim)]
        orders = [DispatchOrder(1, (2, 2)), DispatchOrder(0, (1, 1)),
                  DispatchOrder(1, (3, 3))]
        with pytest.raises(ValueError, match=r"\[1\]"):
            sim.apply_dispatch(orders, t=0.0)
        assert [(v.status, v.loc) for v in vehicles(sim)] == before

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_order_for_a_vehicle_outside_the_fleet_rejected(self, bad):
        sim = scripted_simulation()
        assert len(sim.fleet) == 3
        before = [(v.status, v.loc) for v in vehicles(sim)]
        orders = [DispatchOrder(0, (1, 1)), DispatchOrder(bad, (2, 2))]
        with pytest.raises(ValueError, match=rf"\[{bad}\] outside the fleet of 3"):
            sim.apply_dispatch(orders, t=0.0)
        assert [(v.status, v.loc) for v in vehicles(sim)] == before

    def test_longer_detour_weakly_increases_eta(self):
        # a move follows the lattice's roads: an L-shaped route is longer
        # than the straight line, and a farther cell along a row is longer still
        grid = make_grid()
        a = center_of((0, 0), grid)
        ends = [center_of(cell, grid) for cell in ((2, 3), (0, 1), (0, 2), (0, 3))]
        sim = Simulation(grid, RoadGraph(grid), DistanceEta(2.0), [req(0, 0.0, a, a)], 1,
                         **sim_settings(warmup=0))
        moves = sim._plan_moves(np.array([a.lat] * 4), np.array([a.lon] * 4),
                                np.array([b.lat for b in ends]),
                                np.array([b.lon for b in ends]), sim.clock0)
        (*_, meters, minutes), *row = moves
        straight = haversine(a, ends[0])
        assert meters > straight
        assert minutes >= eta_one_row(sim.eta_model, a, ends[0], sim.clock0, straight / 1000.0)
        for (*_, d_near, t_near), (*_, d_far, t_far) in zip(row, row[1:]):
            assert d_far >= d_near
            assert t_far >= t_near

    def test_ends_sharing_a_nearest_node_move_in_a_straight_line(self):
        grid = make_grid()
        a = Location(grid.origin.lat + 0.3 * grid.d_lat, grid.origin.lon + 0.2 * grid.d_lon)
        b = Location(grid.origin.lat + 0.7 * grid.d_lat, grid.origin.lon + 0.6 * grid.d_lon)
        sim = Simulation(grid, RoadGraph(grid), DistanceEta(2.0), [req(0, 0.0, a, b)], 1,
                         **sim_settings(warmup=0))
        [move] = sim._plan_moves(np.array([a.lat]), np.array([a.lon]), np.array([b.lat]),
                                 np.array([b.lon]), sim.clock0)
        meters = haversine(a, b)
        assert move == ([a.lat, b.lat], [a.lon, b.lon], [meters], meters,
                        eta_one_row(sim.eta_model, a, b, sim.clock0, meters / 1000.0))


class RecordingPolicy:
    """Orders nothing; keeps every view."""

    def __init__(self, cycle=15):
        self.cycle = cycle
        self.views = []

    def dispatch(self, view):
        self.views.append(view)
        return []


class TestPolicyInvocation:
    def test_policy_not_called_during_warmup_then_on_cycle(self):
        grid = make_grid()
        p = center_of((0, 0), grid)
        reqs = [req(i, float(i), p, p) for i in range(3)]
        policy = RecordingPolicy()
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(), reqs,
                         n_vehicles=1, policy=policy, **sim_settings(warmup=30))
        sim.run(91)
        assert [view.t for view in policy.views] == [30.0, 45.0, 60.0, 75.0, 90.0]

    def test_warmup_excluded_from_metrics(self):
        grid = make_grid()
        p = center_of((0, 0), grid)
        reqs = [req(0, 5.0, p, p, trip=2.0), req(1, 40.0, p, p, trip=2.0)]
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(), reqs,
                         n_vehicles=1, **sim_settings(warmup=30))
        m = sim.run(60)
        assert m.total_requests == 1  # only the post-warmup request counts


class TestFinalize:
    def test_five_percent_reject_rate(self):
        from fleetsim.sim import EpisodeMetrics

        m = EpisodeMetrics(occupied_minutes=np.zeros(2))
        m.total_requests = 100
        m.rejects = 5
        m.accepted = 95
        m.wait_sum = 190.0
        m.elapsed_minutes = 60
        report = finalize_metrics(m)
        assert report["reject_rate"] == pytest.approx(0.05)
        assert report["mean_wait_minutes"] == pytest.approx(2.0)

    def test_zero_accepted_yields_none_sentinels(self):
        from fleetsim.sim import EpisodeMetrics

        m = EpisodeMetrics(occupied_minutes=np.zeros(1))
        m.total_requests = 3
        m.rejects = 3
        m.elapsed_minutes = 10
        report = finalize_metrics(m)
        assert report["mean_wait_minutes"] is None
        assert report["idle_cruise_per_accepted"] is None

    def test_always_occupied_vehicle_utilization_one(self):
        from fleetsim.sim import EpisodeMetrics

        m = EpisodeMetrics(occupied_minutes=np.zeros(1))
        m.elapsed_minutes = 50
        m.occupied_minutes[0] = 50.0
        report = finalize_metrics(m)
        assert report["utilization_mean"] == pytest.approx(1.0)

    def test_add_sums_every_field_the_minutes_and_each_hour(self):
        """Every outcome field of two episodes, and of an hour of each, holds a
        distinct value, so ``add`` cannot skip or cross a field, one added later
        included, without a wrong sum."""
        from fleetsim.sim import EpisodeMetrics, Outcomes

        names = [f.name for f in dataclasses.fields(Outcomes)]
        days = []
        for day in range(2):
            m = EpisodeMetrics(occupied_minutes=np.array([1.0 + day, 3.0 * day]),
                               elapsed_minutes=60 + day)
            for k, name in enumerate(names):
                setattr(m, name, 10 * day + k + 1)
                setattr(m.hour(7), name, 100 + 10 * day + k + 1)
            days.append(m)
        total = EpisodeMetrics(occupied_minutes=np.zeros(2))
        for m in days:
            total.add(m)
        for name in names:
            assert getattr(total, name) == getattr(days[0], name) + getattr(days[1], name)
            assert getattr(total.hourly[7], name) == \
                getattr(days[0].hourly[7], name) + getattr(days[1].hourly[7], name)
        assert total.occupied_minutes.tolist() == [3.0, 3.0]
        assert total.elapsed_minutes == 121
        assert list(total.hourly) == [7]


def test_view_of_vehicle_outside_grid_raises():
    grid = make_grid()
    p = center_of((1, 1), grid)
    sim = Simulation(grid, RoadGraph(grid), ConstantEta(), [req(0, 0.0, p, p)],
                     n_vehicles=1, **sim_settings(warmup=0))
    sim._lat[0], sim._lon[0] = grid.lat_max + 0.01, p.lon
    with pytest.raises(OutOfBoundsError):
        sim.build_view(0.0)


def test_request_with_pickup_outside_grid_raises():
    grid = make_grid()
    p = center_of((1, 1), grid)
    outside = Location(p.lat, grid.lon_max + 0.01)
    # refused when built, though the request's minute 1 is not yet run
    with pytest.raises(OutOfBoundsError, match=str(grid.lon_max + 0.01)):
        Simulation(grid, RoadGraph(grid), ConstantEta(),
                   [req(0, 0.0, p, p), req(1, 1.5, outside, p)], n_vehicles=1,
                   **sim_settings(warmup=0))


# --- the batched simulator against the one-request-at-a-time reference ------

class FeatureEta:
    """Stub ETA model: positive minutes from distance and hour of day."""

    def predict(self, features):
        return 0.5 + 2.0 * features[:, 8] + 0.25 * (features[:, 2] + 1.0)


class RandomOrderPolicy:
    """Orders random vehicles, in random order, to random cells; keeps every view.

    Committed vehicles are ordered too, so skipped orders are exercised.
    """

    def __init__(self, seed: int, grid: GridSpec, n_vehicles: int, cycle: int = 2):
        self.rng = np.random.default_rng(seed)
        self.grid = grid
        self.n_vehicles = n_vehicles
        self.cycle = cycle
        self.views = []

    def dispatch(self, view):
        self.views.append(view)
        k = int(self.rng.integers(0, self.n_vehicles + 1))
        return [DispatchOrder(int(vid), (int(self.rng.integers(self.grid.rows)),
                                         int(self.rng.integers(self.grid.cols))))
                for vid in self.rng.permutation(self.n_vehicles)[:k]]


def small_city(seed: int, rows: int, cols: int, n_vehicles: int, n_requests: int,
               minutes: int = 30):
    """Grid, road lattice and requests of a random small city.

    Pickups repeat a few points, so distance ties occur.  The first
    ``n_vehicles`` requests place the fleet; ``n_requests`` more follow.
    """
    rng = np.random.default_rng(seed)
    grid = make_grid(rows, cols, cell=800.0)
    graph = RoadGraph(grid)
    # one unused draw per one-way road keeps each seed's requests, on which
    # the thresholds of the tests that run this city were set
    rng.random(2 * (rows * (cols - 1) + cols * (rows - 1)))

    def point():
        return Location(grid.origin.lat + rng.uniform(0, rows) * grid.d_lat,
                        grid.origin.lon + rng.uniform(0, cols) * grid.d_lon)

    hubs = [point() for _ in range(3)]
    requests = []
    for rid in range(n_vehicles + n_requests):
        pickup = hubs[int(rng.integers(3))] if rng.random() < 0.3 else point()
        requests.append(RideRequest(rid, float(rng.uniform(0, minutes)), pickup,
                                    point(), float(rng.uniform(1.0, 12.0)),
                                    float(rng.uniform(0.5, 5.0))))
    return grid, graph, requests


def fleet_state(sim):
    return [(v.vid, v.status, v.loc, v.dest, v.arrival_time, v.depart_time, v.path,
             None if v.path_cumlen is None else list(v.path_cumlen),
             v.ride_trip_minutes, v.ride_dropoff, v.ride_id, v.last_dropoff_time,
             v.last_ride_time, v.ordered_since_dropoff, v.pickups, v.dispatch_minutes)
            for v in vehicles(sim)]


def metrics_state(m):
    return (m.total_requests, m.rejects, m.accepted, m.wait_sum, m.cruise_sum,
            m.elapsed_minutes, m.occupied_minutes.tolist(),
            {hour: dataclasses.astuple(outcomes) for hour, outcomes in m.hourly.items()})


def view_state(view):
    rows, cols = view.idle_cell_counts.shape
    cells = [(0, 0), (rows - 1, cols - 1), (rows // 2, 0)]
    return (view.t, view.clock, view.idle_ids.tolist(), view.cells.tolist(),
            view.idle_cell_counts.tolist(), view.trailing_heat.tolist(),
            view.heat_prev1.tolist(), view.heat_prev2.tolist(), view.next_cells.tolist(),
            view.next_minutes.tolist(),
            view.pickups.tolist(), view.dispatch_minutes.tolist(),
            view.last_dropoff.tolist(),
            [view.eta_minutes(a, b) for a in cells for b in cells])


def city_simulation(sim_cls, seed, rows, cols, n_vehicles, n_requests, policy,
                    eta_model=None):
    """A simulation of :func:`small_city`, measured from minute 0; the ETA
    model is ``eta_model``, else a :class:`FeatureEta`."""
    grid, graph, requests = small_city(seed, rows, cols, n_vehicles, n_requests)
    pol = RandomOrderPolicy(seed, grid, n_vehicles) if policy else None
    return sim_cls(grid, graph, eta_model or FeatureEta(), requests, n_vehicles, policy=pol,
                   clock0=Clock(400.0), **sim_settings(warmup=0))


def city_eta_model(seed: int) -> EtaModel:
    """An ETA network with random weights, normalized for :func:`small_city`'s
    features."""
    rng = np.random.default_rng(seed)
    params = [p + rng.normal(scale=0.2, size=p.shape)
              for p in neural.init_params(ETA_SPEC, rng)]
    grid = make_grid()
    mean = np.array([0.0, 0.0, 0.0, 0.0, grid.origin.lat, grid.origin.lon,
                     grid.origin.lat, grid.origin.lon, 2.0])
    std = np.array([1.0, 1.0, 1.0, 1.0, 0.02, 0.02, 0.02, 0.02, 2.0])
    return EtaModel(params, mean, std, y_mean=6.0, y_std=4.0)


def run_city(sim_cls, *args, minutes=45, eta_model=None):
    sim = city_simulation(sim_cls, *args, eta_model=eta_model)
    states = []
    for _ in range(minutes):
        sim.step_minute()
        states.append((fleet_state(sim), metrics_state(sim.metrics)))
    views = [view_state(v) for v in sim.policy.views] if sim.policy else []
    return sim, states, views


class SpyEta(FeatureEta):
    """A :class:`FeatureEta` that keeps the row count of every ``predict``."""

    def __init__(self):
        self.calls = []

    def predict(self, features):
        self.calls.append(len(features))
        return super().predict(features)


def order_outcomes(sim):
    """Wrap ``sim.apply_dispatch`` on the instance, and return the list it
    fills: per invocation, the status that each order to a free vehicle left
    it in, IDLE for a move of no length or time, else DISPATCHING."""
    outcomes = []
    apply_dispatch = sim.apply_dispatch

    def recorded(orders, t):
        movers = [o.vehicle_id for o in orders if sim._status[o.vehicle_id] <= DISPATCHING]
        apply_dispatch(orders, t)
        outcomes.append(sim._status[movers].tolist())

    sim.apply_dispatch = recorded
    return outcomes


class TestOneEtaBatchPerPhase:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_predict_per_phase_with_a_move(self, seed):
        # each minute times its pickups in one call, then its orders'
        # moves (skipped orders excluded) in one more, and a phase without
        # a move makes no call
        spy = SpyEta()
        sim = city_simulation(Simulation, seed, 5, 5, 10, 60, True, eta_model=spy)
        outcomes = order_outcomes(sim)
        want, pickup_phases, order_phases = [], 0, 0
        for _ in range(45):
            accepted, invocations = sim.metrics.accepted, len(outcomes)
            sim.step_minute()
            pickups = sim.metrics.accepted - accepted
            moves = sum(len(moved) for moved in outcomes[invocations:])
            pickup_phases += pickups > 0
            order_phases += moves > 0
            want += [k for k in (pickups, moves) if k]
        assert spy.calls == want
        assert pickup_phases > 5 and order_phases > 5
        assert max(want) > 1


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_states_metrics_and_views(self, seed):
        rng = np.random.default_rng(1000 + seed)
        args = (seed, int(rng.integers(2, 7)), int(rng.integers(2, 7)),
                int(rng.integers(1, 9)), int(rng.integers(0, 41)), True)
        _, states, views = run_city(Simulation, *args)
        _, ref_states, ref_views = run_city(ReferenceSimulation, *args)
        assert states == ref_states
        assert len(views) == len(ref_views) > 0
        assert views == ref_views

    @pytest.mark.parametrize("seed", range(3))
    def test_eta_network_gives_the_one_row_bytes(self, seed):
        # the simulator times a phase's moves in one batch, the reference
        # one move at a time: the network must give each the same bytes
        args = (seed, 5, 5, 12, 40, True)
        model = city_eta_model(seed)
        _, states, views = run_city(Simulation, *args, eta_model=model)
        _, ref_states, ref_views = run_city(ReferenceSimulation, *args, eta_model=model)
        assert states == ref_states
        assert views == ref_views
        # every assigned vehicle is on its way to the pickup after the minute
        # of its assignment, which is its departure, and arrives after its wait
        etas = {round(arrival - depart, 2) for fleet, _ in states
                for _, status, _, _, arrival, depart, *_ in fleet if status == TO_PICKUP}
        assert len(etas) > 10

    def test_default_sized_fleet(self):
        args = (7, 8, 8, 40, 300, True)
        _, states, views = run_city(Simulation, *args)
        _, ref_states, ref_views = run_city(ReferenceSimulation, *args)
        assert states == ref_states
        assert views == ref_views

    def test_route_positions_bit_identical(self):
        # random multi-segment routes, some with zero-length segments or a
        # zero trip time, at fractional times, at each waypoint's time and
        # one ulp either side of it, and before departure and after arrival.
        # The routes run near (0, 0): at city latitudes adding the offset
        # rounds away a last-bit change of the segment weight
        rng = np.random.default_rng(91)
        sims = [city_simulation(cls, 0, 3, 3, 1, 2, False)
                for cls in (Simulation, ReferenceSimulation)]
        for _ in range(300):
            points = [Location(*rng.uniform(-0.02, 0.02, size=2).tolist())
                      for _ in range(int(rng.integers(2, 9)))]
            if rng.random() < 0.2:
                k = int(rng.integers(len(points)))
                points.insert(k, points[k])
            depart = float(rng.uniform(0, 300))
            arrival = depart + (0.0 if rng.random() < 0.05 else float(rng.uniform(0.1, 40)))
            sim, ref = sims
            sim._status[0] = DISPATCHING
            sim._set_route(0, [p.lat for p in points], [p.lon for p in points],
                           [haversine(a, b) for a, b in zip(points[:-1], points[1:])],
                           depart, arrival)
            v = VehicleState(vid=0, loc=points[0], status=DISPATCHING)
            ref._set_route(v, tuple(points), depart, arrival, points[-1])
            cum = vehicles(sim)[0].path_cumlen
            assert cum == list(v.path_cumlen)
            times = list(depart + (arrival - depart) * rng.uniform(-0.1, 1.1, size=20))
            for length in cum:
                at = depart + (arrival - depart) * (length / cum[-1] if cum[-1] else 1.0)
                times += [at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)]
            for t in times:
                lat, lon = sim.positions(float(t), np.array([0]))
                got = Location(float(lat[0]), float(lon[0]))
                want = ref.position(v, float(t))
                assert (float(got.lat).hex(), float(got.lon).hex()) == \
                    (float(want.lat).hex(), float(want.lon).hex())


class TestInvariants:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**16), rows=st.integers(2, 6), cols=st.integers(2, 6),
           n_vehicles=st.integers(1, 8), n_requests=st.integers(0, 40),
           policy=st.booleans())
    def test_every_minute(self, seed, rows, cols, n_vehicles, n_requests, policy):
        args = (seed, rows, cols, n_vehicles, n_requests, policy)
        sim = city_simulation(Simulation, *args)
        minutes = [r.minute for r in sim.requests]
        states = []
        for _ in range(40):
            t_before = sim.t
            sim.step_minute()
            m = sim.metrics
            assert m.accepted + m.rejects == m.total_requests
            assert m.total_requests == sum(1 for x in minutes if x < t_before + 1.0)
            assert [v.vid for v in sim.fleet] == list(range(n_vehicles))
            assert all(v.status in (IDLE, DISPATCHING, TO_PICKUP, OCCUPIED)
                       for v in sim.fleet)
            assert all(v.arrival_time >= t_before for v in vehicles(sim)
                       if v.arrival_time is not None)
            states.append((fleet_state(sim), metrics_state(m)))
        _, rerun_states, _ = run_city(Simulation, *args, minutes=40)
        assert rerun_states == states
        _, ref_states, _ = run_city(ReferenceSimulation, *args, minutes=40)
        assert ref_states == states


def dqn_city_simulation(sim_cls, policy_cls, seed, rows, cols, n_vehicles, n_requests,
                        net, train):
    """A simulation of :func:`small_city` dispatched every minute by a deep-Q policy.

    Each fine cell is its own region; ``net`` names a :func:`sample_qnet`.
    """
    grid, graph, requests = small_city(seed, rows, cols, n_vehicles, n_requests)
    qnet = sample_qnet(net, seed)
    training = make_training(seed, pinned_epsilon=0.3, pinned_alpha=0.7)
    demand = fake_demand(lambda view: view.trailing_heat, np.zeros((7, 24) + grid.shape))
    policy = policy_cls(qnet, RegionMap(grid, 1), demand,
                        decision_interval=15.0,
                        training=training if train else None)
    return sim_cls(grid, graph, FeatureEta(), requests, n_vehicles, policy=policy,
                   clock0=Clock(400.0), **sim_settings(warmup=0))


class TestDqnInvariants:
    @settings(max_examples=15)
    @given(seed=st.integers(0, 2**16), rows=st.integers(2, 6), cols=st.integers(2, 6),
           n_vehicles=st.integers(1, 8), n_requests=st.integers(0, 40),
           net=st.sampled_from(["move", "stay", "random"]), train=st.booleans())
    def test_every_minute(self, seed, rows, cols, n_vehicles, n_requests, net, train):
        args = (seed, rows, cols, n_vehicles, n_requests, net, train)
        runs = []
        for sim_cls, policy_cls in ((Simulation, DqnPolicy), (Simulation, DqnPolicy),
                                    (ReferenceSimulation, DqnPolicyReference)):
            sim = dqn_city_simulation(sim_cls, policy_cls, *args)
            minutes = [r.minute for r in sim.requests]
            states = []
            for _ in range(40):
                t_before = sim.t
                sim.step_minute()
                m = sim.metrics
                assert m.accepted + m.rejects == m.total_requests
                assert m.total_requests == sum(1 for x in minutes if x < t_before + 1.0)
                assert [v.vid for v in sim.fleet] == list(range(n_vehicles))
                assert all(v.status in (IDLE, DISPATCHING, TO_PICKUP, OCCUPIED)
                           for v in sim.fleet)
                states.append((fleet_state(sim), metrics_state(m)))
            runs.append(states)
        # a rerun is bit-identical, and so is the per-vehicle reference pipeline
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


class ZoneBudgetCheck:
    """Wraps an ``RhcPolicy``: checks each invocation's orders against its view."""

    def __init__(self, policy):
        self.policy = policy
        self.cycle = policy.cycle
        self.orders = 0

    def dispatch(self, view):
        orders = self.policy.dispatch(view)
        assert self.policy.last_plan.status == "optimal"
        vids = [o.vehicle_id for o in orders]
        assert len(set(vids)) == len(vids)
        assert set(vids) <= set(view.idle_ids.tolist())
        zone = self.policy.zones.assignment
        m = self.policy.zones.region_count
        idle = view.cells[view.idle_ids]
        moved = view.cells[np.array(vids, dtype=np.int64)]
        assert (np.bincount(zone[moved[:, 0], moved[:, 1]], minlength=m)
                <= np.bincount(zone[idle[:, 0], idle[:, 1]], minlength=m)).all()
        self.orders += len(orders)
        return orders


def rhc_city_simulation(sim_cls, seed, rows, cols, n_vehicles, n_requests, slot, horizon):
    """A simulation of :func:`small_city` dispatched by a receding-horizon policy.

    A zone is a block of 2x2 cells where both the row and the column count
    are even, else one cell; the zone tables and the demand history are
    drawn from ``seed``, with trip times on both sides of the one-slot limit.
    """
    grid, graph, requests = small_city(seed, rows, cols, n_vehicles, n_requests)
    zones = RegionMap(grid, 2 if rows % 2 == cols % 2 == 0 else 1)
    m = zones.region_count
    rng = np.random.default_rng(seed)
    trip_times = rng.uniform(0.0, 2.5 * slot, (7, 24, m, m))
    destinations = rng.dirichlet(np.ones(m), (7, 24, m))
    future = rng.uniform(0.0, 2.0, (7, 24, rows, cols))
    policy = RhcPolicy(zones, trip_times, destinations,
                       fake_demand(lambda view: view.trailing_heat, future),
                       **rhc_settings(slot_minutes=slot, horizon=horizon))
    return sim_cls(grid, graph, FeatureEta(), requests, n_vehicles,
                   policy=ZoneBudgetCheck(policy), clock0=Clock(400.0), **sim_settings(warmup=0))


class TestRhcInvariants:
    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**16), rows=st.integers(2, 6), cols=st.integers(2, 6),
           n_vehicles=st.integers(1, 8), n_requests=st.integers(0, 40),
           slot=st.sampled_from([5.0, 10.0]), horizon=st.integers(1, 3))
    def test_every_minute(self, seed, rows, cols, n_vehicles, n_requests, slot, horizon):
        args = (seed, rows, cols, n_vehicles, n_requests, slot, horizon)
        runs = []
        for sim_cls in (Simulation, Simulation, ReferenceSimulation):
            sim = rhc_city_simulation(sim_cls, *args)
            minutes = [r.minute for r in sim.requests]
            states = []
            for _ in range(40):
                t_before = sim.t
                sim.step_minute()
                m = sim.metrics
                assert m.accepted + m.rejects == m.total_requests
                assert m.total_requests == sum(1 for x in minutes if x < t_before + 1.0)
                assert [v.vid for v in sim.fleet] == list(range(n_vehicles))
                assert all(v.status in (IDLE, DISPATCHING, TO_PICKUP, OCCUPIED)
                           for v in sim.fleet)
                states.append((fleet_state(sim), metrics_state(m)))
            runs.append((states, sim.policy.orders))
        # a rerun is bit-identical, and so is the per-vehicle reference simulator
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


# --- cases the column layout could get wrong, against the per-vehicle oracle --

class NearZeroEta:
    """Stub ETA model: zero minutes within 1.5 km, else 0.8 minutes per km."""

    def predict(self, features):
        return np.where(features[:, 8] < 1.5, 0.0, 0.8 * features[:, 8])


class OrderOncePolicy:
    """Issues ``orders`` at minute ``minute`` and nothing otherwise."""

    cycle = 1

    def __init__(self, minute, orders):
        self.minute = minute
        self.orders = orders

    def dispatch(self, view):
        return self.orders if view.t == self.minute else []


def run_against_reference(make, minutes):
    """Run ``make(Simulation)`` and ``make(ReferenceSimulation)`` side by side and
    require equal per-minute states and views; return the former, and its
    :func:`vehicles` after each minute."""
    runs = []
    for cls in (Simulation, ReferenceSimulation):
        sim = make(cls)
        fleets, states = [], []
        for _ in range(minutes):
            sim.step_minute()
            fleets.append(vehicles(sim))  # fresh records for a Simulation
            states.append((fleet_state(sim), metrics_state(sim.metrics)))
        views = [view_state(v) for v in getattr(sim.policy, "views", [])]
        runs.append((sim, fleets, states, views))
    (sim, fleets, states, views), (_, _, ref_states, ref_views) = runs
    assert states == ref_states
    assert views == ref_views
    return sim, fleets


class TestColumnEdgeCases:
    def test_pickup_and_dropoff_in_one_minute(self):
        grid = make_grid()
        p, q = center_of((1, 1), grid), center_of((1, 2), grid)
        requests = [req(0, 0.2, p, q, trip=0.3), req(1, 0.5, q, p, trip=4.0)]
        _, fleets = run_against_reference(
            lambda cls: cls(grid, RoadGraph(grid), ConstantEta(0.25), requests, 2,
                            **sim_settings(warmup=0)), 8)
        # both pickups are due at 0.25, so both complete at minute 1; the ride
        # of vehicle 0 then ends at 0.55, in a second round of the same minute
        assert [(v.status, v.pickups) for v in fleets[0]] == [(TO_PICKUP, 0)] * 2
        v0, v1 = fleets[1]
        assert (v0.status, v0.pickups, v0.last_dropoff_time) == (IDLE, 1, 0.25 + 0.3)
        assert (v1.status, v1.pickups) == (OCCUPIED, 1)

    def test_equal_arrival_times_complete_in_one_minute(self):
        # every vehicle is matched at distance 0, so all pickups are due at 0.0
        # and complete at minute 1; the rides then end at 2.5 (odd ids) or 3.0
        # (even ids), and all complete at minute 3
        grid = make_grid(rows=6, cols=6)
        cells = [(r, c) for r in range(6) for c in range(6)][:20]
        requests = [req(k, 0.0, center_of(cell, grid), center_of((5 - cell[0], 0), grid),
                        trip=3.0 if k % 2 == 0 else 2.5)
                    for k, cell in enumerate(cells)]
        _, fleets = run_against_reference(
            lambda cls: cls(grid, RoadGraph(grid), ConstantEta(0.0), requests, 20,
                            **sim_settings(warmup=0)), 5)
        assert [(v.status, v.pickups) for v in fleets[0]] == [(TO_PICKUP, 0)] * 20
        for minute in (1, 2):
            assert [(v.status, v.pickups) for v in fleets[minute]] == [(OCCUPIED, 1)] * 20
        assert [(v.status, v.last_dropoff_time) for v in fleets[3]] == \
            [(IDLE, 3.0 if k % 2 == 0 else 2.5) for k in range(20)]

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_length_and_zero_time_routes(self, seed):
        # pickups and dispatch targets sit on graph nodes, so routes start
        # and end with zero-length segments; trips within 1.5 km take no time
        grid = make_grid(rows=5, cols=5)
        rng = np.random.default_rng(seed)
        nodes = [center_of((int(r), int(c)), grid) for r, c in rng.integers(0, 5, (30, 2))]
        requests = [req(k, float(k // 3), nodes[k], nodes[-1 - k], trip=1.0 + k % 4)
                    for k in range(30)]
        recorded = []

        def make(cls):
            sim = cls(grid, RoadGraph(grid), NearZeroEta(), requests, 6,
                      policy=RandomOrderPolicy(seed, grid, 6, cycle=1),
                      clock0=Clock(400.0), **sim_settings(warmup=0))
            if cls is Simulation:
                recorded.append(order_outcomes(sim))
            return sim

        _, fleets = run_against_reference(make, 20)
        [outcomes] = recorded
        # orders both stood vehicles where they were and moved them
        assert {IDLE, DISPATCHING} <= {s for statuses in outcomes for s in statuses}
        # and a pickup was assigned with no wait
        assert any(v.status == TO_PICKUP and v.arrival_time == v.depart_time
                   for fleet in fleets for v in fleet)

    def test_hour_with_cruising_and_no_request_gets_a_bucket(self):
        grid = make_grid()
        p00, p33 = center_of((0, 0), grid), center_of((3, 3), grid)
        requests = [req(0, 0.0, p00, p33, trip=3.0), req(1, 1.0, p33, p00, trip=3.0),
                    req(2, 200.0, p00, p33, trip=3.0)]
        orders = [DispatchOrder(0, (0, 0)), DispatchOrder(1, (3, 3))]
        sim, _ = run_against_reference(
            lambda cls: cls(grid, RoadGraph(grid), ConstantEta(10.0), requests, 2,
                            policy=OrderOncePolicy(65.0, orders), **sim_settings(warmup=0)),
            215)
        hourly = sim.metrics.hourly
        assert sorted(hourly) == [0, 1, 3]
        assert hourly[1].total_requests == 0
        assert hourly[1].cruise_sum == 20.0


def heat_bytes(view):
    return [m.tobytes() for m in (view.trailing_heat, view.heat_prev1, view.heat_prev2)]


class TestDemandMaps:
    def test_window_edges_against_the_reference(self):
        # requests on the slot edges, just before them and between them; every
        # minute's view counts its three maps from its windows alone
        grid = make_grid()
        minutes = (0.0, 28.999, 29.0, 29.5, 30.0, 59.999, 60.0, 89.0, 90.0)
        requests = [req(k, m, center_of((k % 4, k // 4), grid), center_of((0, 0), grid),
                        trip=1.0) for k, m in enumerate(minutes)]
        runs = []
        for cls in (Simulation, ReferenceSimulation):
            policy = RecordingPolicy(cycle=1)
            cls(grid, RoadGraph(grid), ConstantEta(), requests, 1, policy=policy,
                **sim_settings(warmup=0)).run(125)
            runs.append(policy.views)
        views, ref_views = runs
        assert len(views) == len(ref_views) == 125
        assert [heat_bytes(v) for v in views] == [heat_bytes(v) for v in ref_views]
        assert all(m.dtype == np.float64 and m.shape == grid.shape
                   for v in views for m in (v.trailing_heat, v.heat_prev1, v.heat_prev2))
        # slots [0, 30), [30, 60), [60, 90) and [90, 120) hold 4, 2, 2 and 1
        assert [views[t].heat_prev1.sum() for t in (30, 60, 90, 120)] == [4, 2, 2, 1]
        assert [views[t].trailing_heat.sum() for t in (29, 30, 31)] == [2, 4, 4]

    def test_request_before_minute_zero_refused(self):
        grid = make_grid()
        p = center_of((1, 1), grid)
        with pytest.raises(ValueError, match="request 1 at minute -0.5, before"):
            Simulation(grid, RoadGraph(grid), ConstantEta(),
                       [req(0, 0.0, p, p), req(1, -0.5, p, p)], n_vehicles=1,
                       **sim_settings(warmup=0))

    def test_slots_equal_the_demand_models_training_series(self):
        # the demand model is trained on experiment.demand_slot_series and
        # reads heat_prev1 and heat_prev2 at run time: slot k - 1 and k - 2
        # at minute 30 k, and zeros before the first slot
        cfg = ExperimentConfig(seed=3, fine_rows=10, fine_cols=10, region_block=2,
                               zone_block=5, vehicles=20, days=1,
                               trips_per_day=2000.0).validate()
        city = ex.city_from_synth(synth_city(cfg, seed=3, days=ex.city_days(cfg)))
        requests = ex.episode_requests(city.requests, *ex.day_window(cfg, 0))
        policy = RecordingPolicy(cycle=30)
        Simulation(city.grid, city.graph, ConstantEta(), requests, cfg.vehicles,
                   policy=policy, **sim_settings(warmup=0)).run(150)
        slots, _ = ex.demand_slot_series(requests, city.grid, 150, cfg.epoch_dow)
        slots = np.concatenate([np.zeros((2,) + city.grid.shape), slots])
        assert [view.t for view in policy.views] == [0.0, 30.0, 60.0, 90.0, 120.0]
        assert slots[2:].sum() > 100
        for k, view in enumerate(policy.views):
            assert view.heat_prev1.tobytes() == slots[k + 1].tobytes()
            assert view.heat_prev2.tobytes() == slots[k].tobytes()


class TestBenchmarkContract:
    """What ``perfbench/bench.py`` reads from the simulator, run through its own code."""

    @pytest.fixture
    def bench(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import bench
        return bench

    def test_fingerprint_and_episode_check(self, bench):
        sim = scripted_simulation()
        sim.run(20)
        assert [(v.vid, v.status in bench.STATUSES) for v in sim.fleet] == \
            [(0, True), (1, True), (2, True)]
        m = sim.metrics
        assert bench.fingerprint(m) == (5, 1, 4, m.wait_sum, 8.0, 20,
                                        m.occupied_minutes.tobytes())
        inputs = SimpleNamespace(cfg=SimpleNamespace(vehicles=3, warmup_minutes=0),
                                 evaluation=SimpleNamespace(requests=sim.requests),
                                 scale=SimpleNamespace(window_minutes=20))
        bench.check_episode(sim, inputs)

    def test_traced_entry_points_exist(self, bench):
        # a renamed entry point would silently zero its per-layer span
        tracer = bench.Tracer()
        try:
            bench.trace_full(tracer)
        finally:
            tracer.restore()
        assert sorted(tracer.missing) == ["fleetsim.dqn.QNetwork.q_map_batch",
                                          "fleetsim.dqn.assemble_batch",
                                          "fleetsim.eta.EtaModel.predict_batch",
                                          "fleetsim.roadgraph.nearest_node"]

    def test_lp_info_counts_the_program_and_reads_the_status(self, bench):
        # every benchmark run, traced or not, wraps lp.solve with _lp_info
        without_equalities = set()
        for seed in range(12):
            problem, _ = build_rhc_lp(**seeded_rhc_lp_inputs(seed, 15.0))
            sol = solve(problem)
            rows = problem.b_ub.size + (0 if problem.b_eq is None else problem.b_eq.size)
            want = (problem.c.size, rows, sol.status)
            assert bench._lp_info((problem,), {}, sol) == want
            assert bench._lp_info((), {"problem": problem}, sol) == want
            without_equalities.add(problem.a_eq is None)
        assert without_equalities == {True, False}

    def test_evaluation_city_offers_requests_in_pickup_order(self, bench, tmp_path):
        # every benchmark run builds its window from synth.synth_city,
        # synth._slot_rates, synth.SLOT_MINUTES, ex.city_from_synth,
        # ex.episode_requests and ex.City; a rename of one fails them all
        scale = bench.Scale(overrides={"fine_rows": 10, "fine_cols": 10,
                                       "trips_per_day": 2000.0},
                            window_minutes=60, offered_requests=40)
        city = bench.evaluation_city(bench.make_config(scale, 3, tmp_path), scale)
        assert len(city.requests) == 40
        assert all(isinstance(r, RideRequest) for r in city.requests)
        ids = [r.rid for r in city.requests]
        minutes = [r.minute for r in city.requests]
        assert ids == sorted(set(ids))
        assert minutes == sorted(minutes) and 0.0 <= minutes[0] and minutes[-1] < 60.0

    def test_step_minute_calls_the_instance_timers(self):
        # the benchmark times dispatch by replacing these two on the instance
        grid = make_grid()
        p = center_of((0, 0), grid)
        sim = Simulation(grid, RoadGraph(grid), ConstantEta(), [req(0, 0.0, p, p)],
                         n_vehicles=1, policy=RecordingPolicy(), **sim_settings(warmup=0))
        calls = []
        build_view, apply_dispatch = sim.build_view, sim.apply_dispatch
        sim.build_view = lambda t: calls.append("view") or build_view(t)
        sim.apply_dispatch = lambda orders, t: calls.append("apply") or apply_dispatch(orders, t)
        sim.run(31)
        assert calls == ["view", "apply"] * 3

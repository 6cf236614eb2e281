"""Orchestration-level tests for the two dispatch policies."""

import numpy as np
import pytest
from oracles import DqnPolicyReference, rhc_settings, rhc_supply_reference

from fleetsim.clock import Clock
from fleetsim.dqn import (
    ACTION_RADIUS,
    DqnPolicy,
    QNetwork,
    STAY_CELL,
)
from fleetsim.geo import GridSpec, Location, RegionMap, aggregate_to_regions
from fleetsim import rhc
from fleetsim.rhc import RhcPolicy
from fleetsim.sim import SimView
from test_dqn import crafted_qnet, make_training, sample_qnet


GRID = GridSpec(rows=10, cols=10, cell_size=500.0, origin=Location(40.0, -74.0))
REGIONS = RegionMap(GRID, 1)        # 10x10 regions, one cell each
ZONES = RegionMap(GRID, 5)          # 2x2 zones


# minutes until idle of a vehicle that stays busy beyond every horizon
NEVER_IDLE_MINUTES = 1e6


def fake_view(t=100.0, idle_cells=None, pickups=None,
              dispatch_minutes=None, trailing=None, n_vehicles=4):
    """A view where the vehicles of ``idle_cells`` stand idle on their
    cells and the rest of the ``n_vehicles`` never turn idle."""
    idle_cells = idle_cells if idle_cells is not None else {}
    cells = np.zeros((n_vehicles, 2), dtype=np.int64)
    minutes = np.full(n_vehicles, NEVER_IDLE_MINUTES)
    heat = np.zeros(GRID.shape)
    counts = np.zeros(GRID.shape)
    for vid, cell in idle_cells.items():
        cells[vid] = cell
        minutes[vid] = 0.0
        counts[cell] += 1

    def eta_minutes(a, b):
        return 4.0  # flat estimate keeps the arithmetic easy

    return SimView(
        t=t, clock=Clock(t),
        idle_ids=np.array(sorted(idle_cells), dtype=np.int64), cells=cells,
        idle_cell_counts=counts,
        trailing_heat=trailing if trailing is not None else heat,
        heat_prev1=heat.copy(), heat_prev2=heat.copy(),
        next_cells=cells.copy(), next_minutes=minutes,
        pickups=np.asarray(pickups if pickups is not None else np.zeros(n_vehicles)),
        dispatch_minutes=np.asarray(dispatch_minutes if dispatch_minutes is not None
                                    else np.zeros(n_vehicles)),
        last_dropoff=np.full(n_vehicles, -np.inf),
        eta_minutes=eta_minutes,
    )


def flat_demand_predictor(view):
    return np.zeros(GRID.shape)


class TestDqnPolicy:
    def make_policy(self, net=None, training=None, cycle=1):
        return DqnPolicy(net or QNetwork.create(np.random.default_rng(0)),
                         REGIONS, flat_demand_predictor,
                         decision_interval=15.0, cycle=cycle, training=training)

    def test_stay_policy_issues_no_orders(self):
        # a net preferring the center cell keeps everyone parked
        net = crafted_qnet(base=0.0, dist_coef=-5.0)
        policy = self.make_policy(net)
        view = fake_view(idle_cells={0: (5, 5), 1: (2, 2)})
        assert policy.dispatch(view) == []

    def test_mover_net_issues_orders_and_shifts_projection(self):
        net = crafted_qnet(base=0.0, dist_coef=5.0)  # corner-loving
        policy = self.make_policy(net)
        view = fake_view(idle_cells={0: (5, 5)})
        orders = policy.dispatch(view)
        assert len(orders) == 1
        # distance-loving argmax from an interior cell goes to the first
        # legal corner of the action map in row-major order
        assert orders[0].vehicle_id == 0

    def test_supply_projection_conserved_per_decision(self):
        # two movers decide sequentially; total projected supply constant
        net = crafted_qnet(base=0.0, dist_coef=5.0)
        policy = self.make_policy(net)
        totals = []

        class SpyNet:
            def q_map(self, qin):
                # records the supply planes each vehicle observed
                totals.append(qin.main.sum())
                return net.q_map(qin)

        policy.net = SpyNet()
        view = fake_view(idle_cells={0: (5, 5), 1: (5, 6)})
        orders = policy.dispatch(view)
        assert len(orders) == 2
        assert len(totals) == 2

    def test_projection_updates_visible_to_later_vehicles(self):
        net = crafted_qnet(base=0.0, dist_coef=5.0)
        policy = self.make_policy(net)
        seen = []
        real_q_map = net.q_map

        class Recorder:
            def q_map(self, qin):
                seen.append(qin)
                return real_q_map(qin)

        policy.net = Recorder()
        view = fake_view(idle_cells={0: (5, 5), 1: (5, 5)})
        policy.dispatch(view)
        assert len(seen) == 2
        # vehicle 0 moved away, so vehicle 1's now-horizon supply at the
        # shared cell dropped by one
        # supply-now plane at the centre of the stay cell's field
        first_center = seen[0].field(STAY_CELL).main[4, 4, 1]
        second_center = seen[1].field(STAY_CELL).main[4, 4, 1]
        assert second_center == first_center - 1.0

    def test_decision_throttle_and_fresh_dropoff_override(self):
        net = crafted_qnet(base=0.0, dist_coef=-5.0)  # stay
        policy = self.make_policy(net)
        view = fake_view(t=100.0, idle_cells={0: (5, 5)})
        policy.dispatch(view)
        assert policy.last_decision[0] == 100.0
        # five minutes later: throttled, no new decision
        view2 = fake_view(t=105.0, idle_cells={0: (5, 5)})
        policy.dispatch(view2)
        assert policy.last_decision[0] == 100.0
        # a dropoff after the last decision re-admits immediately
        view3 = fake_view(t=106.0, idle_cells={0: (5, 5)})
        view3.last_dropoff[0] = 104.0
        policy.dispatch(view3)
        assert policy.last_decision[0] == 106.0
        # and the regular interval admits again
        view4 = fake_view(t=121.0, idle_cells={0: (5, 5)})
        policy.dispatch(view4)
        assert policy.last_decision[0] == 121.0

    def test_training_stores_transitions_with_window_rewards(self):
        net = crafted_qnet(base=0.0, dist_coef=-5.0)
        policy = self.make_policy(net, make_training(5, pinned_epsilon=0.0, pinned_alpha=1.0))
        v1 = fake_view(t=100.0, idle_cells={0: (5, 5)},
                       pickups=[0, 0, 0, 0], dispatch_minutes=[0.0, 0, 0, 0])
        policy.dispatch(v1)
        assert len(policy.buffer) == 0  # first decision has no predecessor
        v2 = fake_view(t=115.0, idle_cells={0: (5, 5)},
                       pickups=[2, 0, 0, 0], dispatch_minutes=[3.0, 0, 0, 0])
        policy.dispatch(v2)
        assert len(policy.buffer) == 1
        tr = policy.buffer._items[0]
        assert tr.reward == pytest.approx(10.0 * 2 - 3.0)
        assert tr.action == STAY_CELL
        assert tr.tau_steps == 0

    def test_exploration_matches_hand_replayed_stream(self):
        # the policy's epsilon draw consumes the rng exactly like this
        # replay: one random() to explore, one integers() over legal cells
        from oracles import legal_action_mask

        net = crafted_qnet(base=0.0, dist_coef=5.0)
        policy = self.make_policy(net, make_training(99, pinned_epsilon=0.7, pinned_alpha=1.0))
        view = fake_view(idle_cells={0: (5, 5)})
        orders = policy.dispatch(view)

        rng = np.random.default_rng(99)
        rng.random()  # the alpha gate draw
        ctx_mask = legal_action_mask((5, 5), (10, 10))
        # replicate the action draw: u < eps -> uniform legal
        u = rng.random()
        assert u < 0.7
        legal_flat = np.nonzero(ctx_mask.ravel())[0]
        flat = int(legal_flat[rng.integers(legal_flat.size)])
        expect = (flat // 15, flat % 15)
        stored = policy.pending[0].action
        assert stored == expect

    def test_dqn_star_cycle(self):
        policy = self.make_policy(cycle=15)
        assert policy.cycle == 15

    @pytest.mark.parametrize("train", [False, True])
    def test_demand_predicted_only_when_a_vehicle_decides(self, train):
        calls = []

        def spy_predictor(view):
            calls.append(view.t)
            return view.trailing_heat

        class CountingDict(dict):
            """``last_decision``, counting the decisions written into it."""
            writes = 0

            def __setitem__(self, key, value):
                self.writes += 1
                super().__setitem__(key, value)

        policy = DqnPolicy(sample_qnet("move"), REGIONS, spy_predictor,
                           decision_interval=15.0,
                           training=make_training(3, pinned_alpha=0.5)
                           if train else None)
        policy.last_decision = CountingDict()
        assert policy.dispatch(fake_view(idle_cells={})) == []
        assert calls == []
        decided = []
        for view in random_views(4, GRID):
            before, n_calls = policy.last_decision.writes, len(calls)
            policy.dispatch(view)
            decided.append(policy.last_decision.writes > before)
            assert len(calls) - n_calls == int(decided[-1])
        assert any(decided) and not all(decided)


def random_views(seed: int, grid: GridSpec, n_vehicles: int = 24, n_views: int = 24):
    """A sequence of random views of one fleet on ``grid``.

    Idle vehicles stand on random cells and the others become idle at a
    random cell in 0, a whole number of, a fractional number of, or more
    than 30 minutes.  The pickup and cruise counters only grow, some
    vehicles drop off after their last decision, and the times mix
    throttled and re-admitted decisions.
    """
    rng = np.random.default_rng(seed)
    pickups = np.zeros(n_vehicles)
    cruise = np.zeros(n_vehicles)

    def cell():
        return (int(rng.integers(grid.rows)), int(rng.integers(grid.cols)))

    def eta_minutes(a, b):
        return 0.4 + 0.9 * (abs(a[0] - b[0]) + abs(a[1] - b[1]))

    views = []
    for t in 100.0 + np.cumsum(rng.choice([0, 1, 3, 14, 15, 16], n_views)).astype(float):
        t = float(t)
        idle_ids = sorted(rng.choice(n_vehicles, size=int(rng.integers(0, n_vehicles + 1)),
                                     replace=False).tolist())
        cells = [cell() for _ in range(n_vehicles)]
        counts = np.zeros(grid.shape)
        next_cells, next_minutes = [], []
        for vid in range(n_vehicles):
            if vid in idle_ids:
                counts[cells[vid]] += 1
                next_cells.append(cells[vid])
                next_minutes.append(0.0)
            else:
                minutes = [0.0, float(rng.integers(1, 31)), float(rng.uniform(0, 30)),
                           float(rng.uniform(30, 60))][int(rng.integers(4))]
                next_cells.append(cell())
                next_minutes.append(minutes)
        pickups += rng.integers(0, 2, n_vehicles)
        cruise += rng.integers(0, 3, n_vehicles)
        last_dropoff = np.where(rng.random(n_vehicles) < 0.3,
                                t - rng.uniform(0, 20, n_vehicles), -np.inf)
        heat = rng.poisson(1.0, grid.shape).astype(float)
        views.append(SimView(
            t=t, clock=Clock(t), idle_ids=np.array(idle_ids, dtype=np.int64),
            cells=np.array(cells, dtype=np.int64),
            idle_cell_counts=counts, trailing_heat=heat,
            heat_prev1=rng.poisson(0.5, grid.shape).astype(float),
            heat_prev2=np.zeros(grid.shape), next_cells=np.array(next_cells, dtype=np.int64),
            next_minutes=np.array(next_minutes),
            pickups=pickups.copy(), dispatch_minutes=cruise.copy(),
            last_dropoff=last_dropoff, eta_minutes=eta_minutes))
    return views


class RecordingNet:
    """A Q-network wrapper that keeps a copy of every input it is given."""

    def __init__(self, net):
        self.net = net
        self.inputs = []

    def q_map(self, qin):
        self.inputs.append((qin.main.copy(), qin.aux.copy(), np.array(qin.origin)))
        return self.net.q_map(qin)


def context_key(ctx):
    return (ctx.demand.shape, ctx.demand.tobytes(), ctx.supply.shape, ctx.supply.tobytes(),
            ctx.idle.shape, ctx.idle.tobytes(), ctx.region, ctx.clock)


def array_key(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestDqnMatchesReference:
    """:class:`DqnPolicy` against the per-vehicle, per-event dispatch it replaced."""

    @pytest.mark.parametrize("regions, block", [((10, 10), 2), ((4, 7), 3), ((1, 1), 3)])
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("net", ["move", "stay", "random"])
    def test_same_orders_decisions_and_transitions(self, regions, block, train, net):
        grid = GridSpec(rows=regions[0] * block, cols=regions[1] * block,
                        cell_size=500.0, origin=Location(40.0, -74.0))
        region_map = RegionMap(grid, block)
        qnet = sample_qnet(net)
        config = make_training(7, pinned_epsilon=0.3, pinned_alpha=0.7)

        def predictor(view):
            return 0.37 * view.trailing_heat + view.heat_prev1

        policies = [cls(qnet, region_map, predictor, decision_interval=15.0,
                        training=config if train else None)
                    for cls in (DqnPolicy, DqnPolicyReference)]
        for policy in policies:
            policy.net = RecordingNet(qnet)
        n_orders = 0
        for view in random_views(sum(regions), grid):
            orders = [p.dispatch(view) for p in policies]
            assert orders[0] == orders[1]
            n_orders += len(orders[0])
        new, ref = policies
        assert new.last_decision == ref.last_decision
        assert len(new.net.inputs) == len(ref.net.inputs)
        for got, want in zip(new.net.inputs, ref.net.inputs):
            assert array_key(got) == array_key(want)
        if regions != (1, 1) and (net == "move" or train):
            assert n_orders > 0
        if not train:
            for policy in policies:
                assert not any(hasattr(policy, name) for name in ("rng", "buffer", "pending"))
            return
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
        assert new.pending.keys() == ref.pending.keys()
        for vid, pending in new.pending.items():
            other = ref.pending[vid]
            assert context_key(pending.ctx) == context_key(other.ctx)
            assert (pending.action, pending.pickups, pending.dispatch_minutes) == (
                other.action, other.pickups, other.dispatch_minutes)
        assert len(new.buffer) == len(ref.buffer) > 0
        for got, want in zip(new.buffer._items, ref.buffer._items):
            assert context_key(got.ctx) == context_key(want.ctx)
            assert context_key(got.next_ctx) == context_key(want.next_ctx)
            assert (got.action, got.reward, got.tau_steps) == (
                want.action, want.reward, want.tau_steps)


class TestRhcPolicyOrchestration:
    def test_orders_bounded_by_zone_budgets(self):
        m = ZONES.region_count
        tau = np.full((7, 24, m, m), 5.0)
        for z in range(m):
            tau[:, :, z, z] = 0.0
        prob = np.full((7, 24, m, m), 1.0 / m)
        # all supply in one corner zone, demand focused in the opposite one
        idle = {vid: (0, vid % 2) for vid in range(4)}
        trailing = np.zeros(GRID.shape)
        trailing[9, 9] = 8.0
        policy = RhcPolicy(ZONES, tau, prob,
                           demand_predictor=lambda view: view.trailing_heat,
                           future_demand=np.broadcast_to(trailing, (7, 24) + GRID.shape),
                           **rhc_settings(reject_penalty=20.0))
        view = fake_view(t=60.0, idle_cells=idle, trailing=trailing)
        orders = policy.dispatch(view)
        assert len(orders) <= 4
        assert len(orders) >= 1
        # orders move vehicles toward the demand zone (zone 3 cells)
        for order in orders:
            assert order.target_cell[0] >= 5 or order.target_cell[1] >= 5

    @pytest.mark.parametrize("slot_minutes, horizon", [(15, 3), (10.0, 4)])
    def test_supply_matches_per_vehicle_reference(self, monkeypatch, slot_minutes, horizon):
        m = ZONES.region_count
        seen = []
        solve_rhc = rhc.solve_rhc

        def spy(x0, sched, *args, **kw):
            seen.append((x0, sched))
            return solve_rhc(x0, sched, *args, **kw)

        monkeypatch.setattr(rhc, "solve_rhc", spy)
        policy = RhcPolicy(ZONES, np.full((7, 24, m, m), 5.0), np.full((7, 24, m, m), 1.0 / m),
                           demand_predictor=lambda view: view.trailing_heat,
                           future_demand=np.zeros((7, 24) + GRID.shape),
                           **rhc_settings(slot_minutes=slot_minutes, horizon=horizon))
        views = random_views(3, GRID)
        for view in views:
            policy.dispatch(view)
        assert len(seen) == len(views)
        for view, (x0, sched) in zip(views, seen):
            want_x0, want_sched = rhc_supply_reference(view, ZONES, slot_minutes, horizon)
            assert x0.dtype == sched.dtype == np.float64
            assert (x0.tolist(), sched.tolist()) == (want_x0.tolist(), want_sched.tolist())
        assert sum(s.sum() for _, s in seen) > 0

    def test_tables_read_at_each_slot_clock(self, monkeypatch):
        # the horizon crosses midnight, so its slots read two days' tables
        m = ZONES.region_count
        rng = np.random.default_rng(8)
        tau = rng.uniform(1.0, 30.0, (7, 24, m, m))
        prob = rng.dirichlet(np.ones(m), (7, 24, m))
        future = rng.uniform(0.0, 3.0, (7, 24) + GRID.shape)
        seen = []
        solve_rhc = rhc.solve_rhc

        def spy(x0, sched, wbar, tau_slots, p_slots, *args):
            seen.append((wbar, tau_slots, p_slots))
            return solve_rhc(x0, sched, wbar, tau_slots, p_slots, *args)

        monkeypatch.setattr(rhc, "solve_rhc", spy)
        policy = RhcPolicy(ZONES, tau, prob, demand_predictor=lambda view: view.trailing_heat,
                           future_demand=future, **rhc_settings())
        t = 2 * 1440.0 + 23 * 60.0 + 40.0
        policy.dispatch(fake_view(t=t, idle_cells={0: (5, 5)}))
        (wbar, tau_slots, p_slots), = seen
        clocks = [Clock(t).plus(15.0 * k) for k in range(4)]
        assert [(c.dow_index, c.hour_index) for c in clocks] == [(2, 23), (2, 23), (3, 0), (3, 0)]
        for k, c in enumerate(clocks):
            assert tau_slots[k].tobytes() == tau[c.dow_index, c.hour_index].tobytes()
            assert p_slots[k].tobytes() == prob[c.dow_index, c.hour_index].tobytes()
        for k in (2, 3):  # beyond the demand model's 30-minute window
            want = aggregate_to_regions(future[clocks[k].dow_index, clocks[k].hour_index], ZONES)
            assert wbar[k].tobytes() == (want * 0.5).tobytes()

    def test_no_demand_no_orders(self):
        m = ZONES.region_count
        tau = np.full((7, 24, m, m), 5.0)
        prob = np.full((7, 24, m, m), 1.0 / m)
        policy = RhcPolicy(ZONES, tau, prob,
                           demand_predictor=lambda view: np.zeros(GRID.shape),
                           future_demand=np.zeros((7, 24) + GRID.shape), **rhc_settings())
        view = fake_view(t=60.0, idle_cells={0: (5, 5)})
        assert policy.dispatch(view) == []

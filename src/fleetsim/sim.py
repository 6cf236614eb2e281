"""Discrete-time fleet simulation engine.

One-minute steps with a fixed phase order: (1) arrivals complete,
(2) requests match to the closest available vehicle or reject beyond the
matching radius, (3) the state is exposed to the dispatch policy,
(4) dispatch orders execute over the road graph with ETA-model travel
times.  The engine is single-threaded, policy-agnostic and fully
deterministic: identical data, configuration and seeds reproduce
bit-identical metrics.

Phase (2) adds the minute's pickups to the demand heat maps with one cell
lookup, then runs in three passes over its requests: every request
is matched, in arrival order, against one snapshot of the free vehicles'
positions; then one nearest-node lookup serves all matched pickups; then,
again in arrival order, each match is routed, timed by the ETA model and
recorded.  Matching everything first is exact: a match only takes its
vehicle out of the free set, and the route and ETA it gets decide
nothing about which vehicles the later requests of the minute can have.
Phase (4) likewise looks up the nearest nodes of all orders at once,
which is why an order list may name a vehicle only once.

Vehicles executing a dispatch move remain matchable at their
interpolated position along the planned route; vehicles committed to a
passenger (en route to pickup, or occupied) are not.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .clock import Clock
from .eta import build_eta_features
from .geo import GridSpec, Location, cell_arrays, center_of, haversine, haversine_arrays
from .roadgraph import RoadGraph, nearest_nodes, shortest_path

log = logging.getLogger(__name__)

IDLE = 0
DISPATCHING = 1
TO_PICKUP = 2
OCCUPIED = 3

STATUS_NAMES = {IDLE: "idle", DISPATCHING: "dispatching",
                TO_PICKUP: "to_pickup", OCCUPIED: "occupied"}

MATCH_RADIUS_M = 5000.0
WARMUP_MINUTES = 30
SLOT_MINUTES = 30          # demand heat-map slot length
DEFAULT_IDLE_WINDOW = 15.0 # ride-starvation window of the idle rule


@dataclass(frozen=True)
class RideRequest:
    rid: int
    minute: float
    pickup: Location
    dropoff: Location
    trip_minutes: float
    distance_km: float

    def __post_init__(self):
        if self.trip_minutes <= 0:
            raise ValueError(f"request {self.rid}: trip must take positive time")


@dataclass(frozen=True)
class DispatchOrder:
    vehicle_id: int
    target_cell: tuple[int, int]


@dataclass
class VehicleState:
    vid: int
    loc: Location
    status: int = IDLE
    dest: Location | None = None
    arrival_time: float | None = None
    depart_time: float | None = None
    path: tuple[Location, ...] = ()
    path_cumlen: list[float] | None = None  # meters from path[0] to each waypoint
    # committed ride, while to_pickup
    ride_trip_minutes: float = 0.0
    ride_dropoff: Location | None = None
    ride_id: int = -1
    # idle-rule bookkeeping
    last_dropoff_time: float = -np.inf
    last_ride_time: float = -np.inf
    ordered_since_dropoff: bool = False
    # cumulative counters (never reset; policies take window deltas)
    pickups: int = 0
    dispatch_minutes: float = 0.0


@dataclass
class EpisodeMetrics:
    """Raw metric accumulators for the measured portion of an episode."""

    n_vehicles: int
    total_requests: int = 0
    rejects: int = 0
    accepted: int = 0
    wait_sum: float = 0.0
    cruise_sum: float = 0.0
    elapsed_minutes: int = 0
    occupied_minutes: np.ndarray = None
    hourly: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.occupied_minutes is None:
            self.occupied_minutes = np.zeros(self.n_vehicles)

    def hour_bucket(self, hour: int) -> dict:
        return self.hourly.setdefault(hour, {
            "requests": 0, "rejects": 0, "accepted": 0,
            "wait_sum": 0.0, "cruise_sum": 0.0,
        })


def _rates(requests: int, rejects: int, accepted: int, wait_sum: float,
           cruise_sum: float) -> dict:
    """Reject rate, mean wait and idle cruise per accepted request; None, never 0/0."""
    return {
        "reject_rate": (rejects / requests) if requests else None,
        "mean_wait_minutes": (wait_sum / accepted) if accepted else None,
        "idle_cruise_per_accepted": (cruise_sum / accepted) if accepted else None,
    }


def finalize_metrics(m: EpisodeMetrics) -> dict:
    """Summary rates, in total and per hour; degenerate denominators yield None."""
    report = {
        "total_requests": m.total_requests,
        "rejects": m.rejects,
        "accepted": m.accepted,
        **_rates(m.total_requests, m.rejects, m.accepted, m.wait_sum, m.cruise_sum),
        "elapsed_minutes": m.elapsed_minutes,
    }
    if m.elapsed_minutes:
        util = m.occupied_minutes / m.elapsed_minutes
        report["utilization_mean"] = float(util.mean())
        report["utilization_min"] = float(util.min())
    else:
        report["utilization_mean"] = None
        report["utilization_min"] = None
    hourly = []
    for hour in sorted(m.hourly):
        b = m.hourly[hour]
        hourly.append({
            "hour": hour,
            "requests": b["requests"],
            "rejects": b["rejects"],
            **_rates(b["requests"], b["rejects"], b["accepted"], b["wait_sum"],
                     b["cruise_sum"]),
        })
    report["hourly"] = hourly
    return report


def init_fleet(requests: list[RideRequest], n_vehicles: int) -> list[VehicleState]:
    """Vehicle k starts idle at the pickup location of request k."""
    if len(requests) < n_vehicles:
        raise ValueError(
            f"need at least {n_vehicles} requests to place the fleet, "
            f"got {len(requests)}"
        )
    return [VehicleState(vid=k, loc=requests[k].pickup) for k in range(n_vehicles)]


def idle_set(fleet: list[VehicleState], t: float,
             window: float = DEFAULT_IDLE_WINDOW) -> list[int]:
    """Dispatchable vehicles: unoccupied and uncommitted, and either not
    ordered since their last dropoff or ride-starved for ``window`` minutes."""
    out = []
    for v in fleet:
        if v.status not in (IDLE, DISPATCHING):
            continue
        if not v.ordered_since_dropoff or (t - v.last_ride_time) >= window:
            out.append(v.vid)
    return out


@dataclass
class SimView:
    """Read-only snapshot handed to dispatch policies each invocation.

    The per-vehicle arrays are indexed by vehicle id.  ``next_cells`` and
    ``next_minutes`` put standing supply (dispatchable or parked vehicles)
    at its current cell with zero minutes, and committed movers at the
    cell where they will next turn idle, with the minutes until then.
    """

    t: float
    clock: Clock
    grid: GridSpec
    idle_ids: np.ndarray              # dispatchable vehicle ids, ascending int64
    cells: np.ndarray                 # (N, 2) int64 current cell per vehicle
    idle_cell_counts: np.ndarray      # dispatchable vehicles per fine cell
    trailing_heat: np.ndarray         # requests per cell over the last 30 minutes
    heat_prev1: np.ndarray            # last complete 30-minute slot
    heat_prev2: np.ndarray            # the slot before that
    next_cells: np.ndarray            # (N, 2) int64 cell where each vehicle next turns idle
    next_minutes: np.ndarray          # (N,) minutes until then
    pickups: np.ndarray               # cumulative per vehicle
    dispatch_minutes: np.ndarray      # cumulative per vehicle
    last_dropoff: np.ndarray          # per vehicle, -inf before the first ride
    eta_minutes: object               # callable (from_cell, to_cell) -> minutes


class Simulation:
    """Runs one episode over a request series with an optional policy.

    ``policy`` (optional) needs ``cycle`` (invocation period, minutes) and
    ``dispatch(view) -> list[DispatchOrder]``.  A caller that acts between
    simulated minutes calls :meth:`step_minute` itself, as the DQN training
    loop does to run a training step after each minute.
    """

    def __init__(self, grid: GridSpec, graph: RoadGraph, eta_model,
                 requests: list[RideRequest], n_vehicles: int,
                 policy=None, clock0: Clock | None = None,
                 warmup: int = WARMUP_MINUTES,
                 match_radius_m: float = MATCH_RADIUS_M,
                 idle_window: float = DEFAULT_IDLE_WINDOW,
                 event_log: list | None = None):
        self.grid = grid
        self.graph = graph
        self.eta_model = eta_model
        self.requests = sorted(requests, key=lambda r: (r.minute, r.rid))
        self.policy = policy
        self.clock0 = clock0 or Clock(0.0)
        self.warmup = warmup
        self.match_radius_m = match_radius_m
        self.idle_window = idle_window
        self.event_log = event_log

        self.fleet = init_fleet(self.requests, n_vehicles)
        self.metrics = EpisodeMetrics(n_vehicles=n_vehicles)
        self.t = 0

        self._queue = deque(self.requests)
        self._heat_current = np.zeros(grid.shape)
        self._heat_slots = deque([np.zeros(grid.shape), np.zeros(grid.shape)], maxlen=2)
        self._trailing = deque(maxlen=SLOT_MINUTES)
        self._trailing_heat = np.zeros(grid.shape)

    # -- logging ------------------------------------------------------------

    def _log(self, event: str, vid: int = -1, rid: int = -1, detail: str = "") -> None:
        if self.event_log is not None:
            self.event_log.append((self.t, event, vid, rid, detail))

    # -- vehicle helpers ------------------------------------------------------

    def position(self, v: VehicleState, t: float) -> Location:
        """Current coordinates, interpolated along the route while moving.

        The segment is found with ``bisect_left`` on the non-decreasing
        ``path_cumlen``, which is ``np.searchsorted(side="left")``; the
        arithmetic is the same IEEE operations on Python floats.
        """
        if v.status == IDLE or v.arrival_time is None or not v.path:
            return v.loc
        span = v.arrival_time - v.depart_time
        frac = 1.0 if span <= 0 else min(1.0, max(0.0, (t - v.depart_time) / span))
        cum = v.path_cumlen
        target = frac * cum[-1]
        i = bisect_left(cum, target)
        if i <= 0:
            return v.path[0]
        if i >= len(v.path):
            return v.path[-1]
        seg = cum[i] - cum[i - 1]
        w = 0.0 if seg <= 0 else (target - cum[i - 1]) / seg
        a, b = v.path[i - 1], v.path[i]
        return Location(a.lat + w * (b.lat - a.lat), a.lon + w * (b.lon - a.lon))

    def _route_nodes(self, origins: list[Location], dests: list[Location]
                     ) -> list[tuple[int, int]]:
        """Nearest graph nodes ``(o, d)`` of each origin and destination, in one lookup."""
        points = origins + dests
        if not points:
            return []
        nodes = nearest_nodes([p.lat for p in points], [p.lon for p in points],
                              self.graph).tolist()
        return list(zip(nodes[:len(origins)], nodes[len(origins):]))

    def _route(self, origin: Location, dest: Location, o: int, d: int
               ) -> tuple[tuple[Location, ...], float]:
        """Waypoints and meters from origin to dest along the road graph.

        ``o`` and ``d`` are the graph nodes nearest ``origin`` and ``dest``.
        Falls back to the straight line when the graph offers no path.
        """
        path = shortest_path(o, d, self.graph)
        if path is None or len(path.nodes) < 2:
            dist = haversine(origin, dest)
            return (origin, dest), dist
        points = [origin] + [self.graph.nodes[n] for n in path.nodes] + [dest]
        dist = (haversine(origin, points[1]) + path.total_length
                + haversine(points[-2], dest))
        return tuple(points), dist

    def _set_route(self, v: VehicleState, points: tuple[Location, ...],
                   depart: float, arrival: float, dest: Location) -> None:
        v.path = points
        lens = [0.0]
        for a, b in zip(points[:-1], points[1:]):
            lens.append(lens[-1] + haversine(a, b))
        v.path_cumlen = lens
        v.depart_time = depart
        v.arrival_time = arrival
        v.dest = dest

    def _eta(self, origin: Location, dest: Location, distance_m: float, t: float) -> float:
        feats = build_eta_features(origin, dest, self.clock0.plus(t), distance_m / 1000.0)
        return self.eta_model.predict(feats)

    def _stand(self, v: VehicleState, loc: Location) -> None:
        """Leave ``v`` idle at ``loc``, with no destination or route."""
        v.loc = loc
        v.status = IDLE
        v.dest = None
        v.arrival_time = None
        v.path = ()

    def _count_request(self, t: float, eta: float | None) -> None:
        """Count a measured request of minute ``t``: rejected if ``eta`` is None,
        else accepted with a pickup wait of ``eta`` minutes."""
        m = self.metrics
        bucket = m.hour_bucket(int(t) // 60)
        m.total_requests += 1
        bucket["requests"] += 1
        if eta is None:
            m.rejects += 1
            bucket["rejects"] += 1
        else:
            m.accepted += 1
            m.wait_sum += eta
            bucket["accepted"] += 1
            bucket["wait_sum"] += eta

    # -- per-step phases ------------------------------------------------------

    def _complete_arrivals(self, t: float) -> None:
        while True:
            due = [v for v in self.fleet
                   if v.status != IDLE and v.arrival_time is not None
                   and v.arrival_time <= t]
            if not due:
                return
            due.sort(key=lambda v: (v.arrival_time, v.vid))
            for v in due:
                when = v.arrival_time
                if v.status == DISPATCHING:
                    self._stand(v, v.dest)
                    self._log("dispatch_arrival", vid=v.vid)
                elif v.status == TO_PICKUP:
                    v.loc = v.dest
                    v.pickups += 1
                    v.status = OCCUPIED
                    self._log("pickup", vid=v.vid, rid=v.ride_id)
                    self._set_route(v, (v.loc, v.ride_dropoff), when,
                                    when + v.ride_trip_minutes, v.ride_dropoff)
                elif v.status == OCCUPIED:
                    self._stand(v, v.dest)
                    v.last_dropoff_time = when
                    v.ordered_since_dropoff = False
                    self._log("dropoff", vid=v.vid, rid=v.ride_id)
                    v.ride_id = -1

    def _match_requests(self, t: float, measured: bool) -> None:
        requests = []
        while self._queue and self._queue[0].minute < t + 1.0:
            requests.append(self._queue.popleft())
        if not requests:
            return

        lats = np.array([r.pickup.lat for r in requests])
        lons = np.array([r.pickup.lon for r in requests])
        cells = cell_arrays(lats, lons, self.grid)
        np.add.at(self._heat_current, cells, 1.0)
        np.add.at(self._minute_heat, cells, 1.0)

        # 1. match each request, in order, to the closest still-free vehicle
        free = [v for v in self.fleet if v.status in (IDLE, DISPATCHING)]
        pos = [self.position(v, t) for v in free]
        dists = haversine_arrays([[p.lat for p in pos]], [[p.lon for p in pos]],
                                 lats[:, None], lons[:, None])
        free_left = len(free)
        rows: list[int | None] = []
        for i in range(len(requests)):
            row = None
            if free_left:
                # columns are in ascending vehicle id, so ties go to the lowest id
                best = int(np.argmin(dists[i]))
                if dists[i, best] <= self.match_radius_m:
                    row = best
                    dists[:, best] = np.inf  # taken
                    free_left -= 1
            rows.append(row)

        # 2. one nearest-node lookup for every matched origin and pickup
        nodes = iter(self._route_nodes([pos[r] for r in rows if r is not None],
                                       [q.pickup for q, r in zip(requests, rows)
                                        if r is not None]))

        # 3. route, time and record each request in order
        for req, row in zip(requests, rows):
            if row is None:
                if measured:
                    self._count_request(t, None)
                self._log("reject", rid=req.rid)
                continue

            v, origin = free[row], pos[row]
            points, dist_m = self._route(origin, req.pickup, *next(nodes))
            eta = self._eta(origin, req.pickup, dist_m, t)
            v.status = TO_PICKUP
            v.last_ride_time = t
            v.ride_trip_minutes = req.trip_minutes
            v.ride_dropoff = req.dropoff
            v.ride_id = req.rid
            self._set_route(v, points, t, t + eta, req.pickup)
            if measured:
                self._count_request(t, eta)
            self._log("assign", vid=v.vid, rid=req.rid, detail=f"eta={eta:.2f}")

    def build_view(self, t: float) -> SimView:
        idle_ids = np.array(idle_set(self.fleet, t, self.idle_window), dtype=np.int64)
        dispatchable = set(idle_ids.tolist())
        position = self.position
        # where each vehicle is, and where and in how many minutes it next stands idle
        pos: list[Location] = []
        nxt: list[Location] = []
        minutes: list[float] = []
        for v in self.fleet:
            status = v.status
            p = v.loc if status == IDLE else position(v, t)
            pos.append(p)
            if status == IDLE or (status == DISPATCHING and v.vid in dispatchable):
                nxt.append(p)
                minutes.append(0.0)
            elif status == TO_PICKUP:
                nxt.append(v.ride_dropoff)
                minutes.append(max(0.0, v.arrival_time + v.ride_trip_minutes - t))
            else:  # OCCUPIED, or DISPATCHING outside the idle set
                nxt.append(v.dest)
                minutes.append(max(0.0, v.arrival_time - t))
        points = pos + nxt
        rows, cols = cell_arrays([p.lat for p in points], [p.lon for p in points], self.grid)
        cells = np.stack([rows, cols], axis=1)
        n = len(self.fleet)
        idle_cells = np.zeros(self.grid.shape)
        np.add.at(idle_cells, (rows[idle_ids], cols[idle_ids]), 1.0)

        pickups = np.array([v.pickups for v in self.fleet], dtype=np.float64)
        cruise = np.array([v.dispatch_minutes for v in self.fleet])
        dropoffs = np.array([v.last_dropoff_time for v in self.fleet])
        clock = self.clock0.plus(t)
        grid = self.grid

        def eta_minutes(from_cell, to_cell):
            a = center_of(from_cell, grid)
            b = center_of(to_cell, grid)
            return self._eta(a, b, haversine(a, b), t)

        slots = list(self._heat_slots)
        return SimView(
            t=t, clock=clock, grid=grid, idle_ids=idle_ids,
            cells=cells[:n], idle_cell_counts=idle_cells,
            trailing_heat=self._trailing_heat.copy(),
            heat_prev1=slots[-1].copy(), heat_prev2=slots[-2].copy(),
            next_cells=cells[n:], next_minutes=np.array(minutes), pickups=pickups,
            dispatch_minutes=cruise, last_dropoff=dropoffs,
            eta_minutes=eta_minutes,
        )

    def apply_dispatch(self, orders: list[DispatchOrder], t: float) -> None:
        """Execute orders in list order.

        A list naming a vehicle twice, or a vehicle id outside the fleet, is
        rejected before any order runs.
        """
        vids = [order.vehicle_id for order in orders]
        unknown = sorted({vid for vid in vids if not 0 <= vid < len(self.fleet)})
        if unknown:
            raise ValueError(f"dispatch orders name vehicles {unknown} outside "
                             f"the fleet of {len(self.fleet)}")
        if len(set(vids)) != len(vids):
            twice = sorted({vid for vid in vids if vids.count(vid) > 1})
            raise ValueError(f"dispatch orders name vehicles {twice} more than once")
        # (order, vehicle, origin, destination); origin is None for a skipped order
        plan = []
        for order in orders:
            v = self.fleet[order.vehicle_id]
            if v.status in (TO_PICKUP, OCCUPIED):
                plan.append((order, v, None, None))
            else:
                plan.append((order, v, self.position(v, t),
                             center_of(order.target_cell, self.grid)))
        moves = [p for p in plan if p[2] is not None]
        nodes = iter(self._route_nodes([p[2] for p in moves], [p[3] for p in moves]))

        for order, v, origin, dest in plan:
            if origin is None:
                log.warning("order for vehicle %d ignored: status %s",
                            v.vid, STATUS_NAMES[v.status])
                self._log("order_skipped", vid=v.vid,
                          detail=STATUS_NAMES[v.status])
                continue
            v.loc = origin
            v.ordered_since_dropoff = True
            points, dist_m = self._route(origin, dest, *next(nodes))
            eta = self._eta(origin, dest, dist_m, t)
            if dist_m <= 0.0 or eta <= 0.0:
                self._stand(v, dest)
                self._log("dispatch_noop", vid=v.vid)
                continue
            v.status = DISPATCHING
            self._set_route(v, points, t, t + eta, dest)
            self._log("dispatch", vid=v.vid,
                      detail=f"cell={order.target_cell} eta={eta:.2f}")

    def _accrue(self, measured: bool) -> None:
        for v in self.fleet:
            if v.status == DISPATCHING:
                v.dispatch_minutes += 1.0
            if measured:
                if v.status in (DISPATCHING, TO_PICKUP):
                    self.metrics.cruise_sum += 1.0
                    self.metrics.hour_bucket(int(self.t) // 60)["cruise_sum"] += 1.0
                elif v.status == OCCUPIED:
                    self.metrics.occupied_minutes[v.vid] += 1.0
        if measured:
            self.metrics.elapsed_minutes += 1

    def _roll_demand_buffers(self, t: float) -> None:
        if len(self._trailing) == self._trailing.maxlen:
            self._trailing_heat -= self._trailing[0]
        self._trailing.append(self._minute_heat)
        self._trailing_heat += self._minute_heat
        if (t + 1) % SLOT_MINUTES == 0:
            self._heat_slots.append(self._heat_current)
            self._heat_current = np.zeros(self.grid.shape)

    def step_minute(self) -> None:
        t = float(self.t)
        measured = self.t >= self.warmup
        self._minute_heat = np.zeros(self.grid.shape)
        self._complete_arrivals(t)
        self._match_requests(t, measured)
        if (self.policy is not None and self.t >= self.warmup
                and self.t % int(getattr(self.policy, "cycle", 1)) == 0):
            view = self.build_view(t)
            orders = self.policy.dispatch(view)
            self.apply_dispatch(orders, t)
        self._accrue(measured)
        self._roll_demand_buffers(t)
        self.t += 1

    def run(self, total_minutes: int) -> EpisodeMetrics:
        for _ in range(total_minutes):
            self.step_minute()
        return self.metrics

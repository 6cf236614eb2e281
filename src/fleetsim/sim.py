"""Discrete-time fleet simulation engine.

One-minute steps with a fixed phase order: (1) arrivals complete,
(2) requests match to the closest available vehicle or reject beyond the
matching radius, (3) the state is exposed to the dispatch policy,
(4) dispatch orders execute over the road graph with ETA-model travel
times.  The engine is single-threaded, policy-agnostic and fully
deterministic: identical data, configuration and seeds reproduce
bit-identical metrics.

Phase (2) reads the minute's arrivals as a slice of the request columns,
then runs in three passes: every request is matched, in arrival order,
against one snapshot of the free vehicles' positions; then one
:meth:`Simulation._plan_moves` call routes the matched vehicles' moves to
their pickups and times them all in one ETA batch; then each match is
recorded in order.  Matching everything first is exact: a match only
takes its vehicle out of the free set, and the route and ETA it gets
decide nothing about which vehicles the later requests of the minute can
have.  Phase (4) likewise plans all orders' moves in one ``_plan_moves``
call, with one ETA batch, which is why an order list may name a vehicle
once.  The ETA model gives each row of a batch the minutes a batch of
that row alone gives, so batching a phase changes no move's time.

A simulation's state is its fleet and its sorted requests.  The fleet is
kept in numpy columns indexed by vehicle id: status; location; departure
and arrival time (arrival is +inf while a vehicle stands idle); the
committed ride's trip minutes, dropoff, straight-line meters and request
id; the idle rule's last dropoff, last ride and ordered-since-dropoff
flag; the cumulative pickup and dispatch-minute counters; and the current
route as padded ``(N, L)`` arrays of waypoint latitude, longitude and
cumulative length, with a waypoint count per vehicle.  A route's last
waypoint is its destination, and its unused length slots hold +inf.  So
the per-minute work (due arrivals, the free-vehicle snapshot, positions,
the idle set, the view and the minute's accruals) is array operations;
Python loops run only over the requests, and the matched and ordered
vehicles they route.  :attr:`Simulation.fleet` is a read-only snapshot of
each vehicle's id and status; nothing done to it reaches the simulation.
The requests are their columns, sorted by minute and id, and each one's
pickup cell, mapped once when the simulation is built.  The trip records
react the same way whatever the policy does, so the demand heat maps of a
view are a function of the requests and the minute:
:meth:`Simulation.build_view` counts each from the pickup cells of a
window of minutes.

Vehicles executing a dispatch move remain matchable at their
interpolated position along the planned route; vehicles committed to a
passenger (en route to pickup, or occupied) are not.

A city's requests are a :class:`Trips`: one read-only numpy column per
:class:`RideRequest` field.  The set-up reads them as arrays, and the
simulator sorts an episode's columns once and matches each minute's
arrivals as a slice, so nothing holds an object per request.  A
:class:`Trips` is also a sequence of rows, each built when it is read;
this module is the one place a :class:`RideRequest` is constructed.
"""

from __future__ import annotations

import logging
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .clock import Clock, periodic_features
from .eta import eta_features
from .geo import GridSpec, Location, cell_arrays, center_of, haversine_arrays, haversine_coords
from .roadgraph import RoadGraph, hop_lengths, nearest_nodes, shortest_path

log = logging.getLogger(__name__)

# the free statuses, in which a vehicle can be matched or ordered, come first
IDLE = 0
DISPATCHING = 1
TO_PICKUP = 2
OCCUPIED = 3

STATUS_NAMES = {IDLE: "idle", DISPATCHING: "dispatching",
                TO_PICKUP: "to_pickup", OCCUPIED: "occupied"}

SLOT_MINUTES = 30          # demand heat-map slot length


@dataclass(frozen=True)
class RideRequest:
    rid: int
    minute: float
    pickup: Location
    dropoff: Location
    trip_minutes: float
    distance_km: float


class Trips(Sequence):
    """Ride requests as one read-only numpy column per :class:`RideRequest` field:
    ``rid`` (int64), ``minute``, ``pickup_lat``, ``pickup_lon``, ``dropoff_lat``,
    ``dropoff_lon``, ``trip_minutes`` and ``distance_km`` (float64).

    It is also a read-only sequence of requests: ``len``, indexing (numpy
    integers included) and iteration give :class:`RideRequest` rows built
    from the columns, a slice or a numpy index array gives the :class:`Trips` of
    its rows, and ``==`` compares row by row with any sequence of requests.
    Construction, the one check of a request, raises ``ValueError`` unless the
    columns are 1-D and of one length, every value is finite and every trip time
    is positive.
    """

    FIELDS = ("rid", "minute", "pickup_lat", "pickup_lon", "dropoff_lat",
              "dropoff_lon", "trip_minutes", "distance_km")
    __slots__ = FIELDS

    def __init__(self, rid, minute, pickup_lat, pickup_lon, dropoff_lat, dropoff_lon,
                 trip_minutes, distance_km):
        cols = [np.asarray(rid, dtype=np.int64)] + [
            np.asarray(c, dtype=np.float64) for c in (minute, pickup_lat, pickup_lon,
                                                      dropoff_lat, dropoff_lon,
                                                      trip_minutes, distance_km)]
        if any(c.ndim != 1 for c in cols) or len({len(c) for c in cols}) != 1:
            raise ValueError("trip columns must be 1-D and of one length, got shapes "
                             f"{[c.shape for c in cols]}")
        for name, c in zip(self.FIELDS[1:], cols[1:]):
            if not np.isfinite(c).all():
                raise ValueError(f"trip column {name} holds a value that is not finite")
        short = np.flatnonzero(cols[6] <= 0)  # trip_minutes
        if short.size:
            raise ValueError(f"request {cols[0][short[0]]}: trip must take positive time")
        for name, c in zip(self.FIELDS, cols):
            c = c.view()  # read-only here, whatever the caller does with its array
            c.flags.writeable = False
            setattr(self, name, c)

    @classmethod
    def of(cls, requests) -> "Trips":
        """``requests`` itself when it is a :class:`Trips`, else the columns of its
        rows, in the given order."""
        if isinstance(requests, Trips):
            return requests
        rows = list(requests)
        return cls([r.rid for r in rows], [r.minute for r in rows],
                   [r.pickup.lat for r in rows], [r.pickup.lon for r in rows],
                   [r.dropoff.lat for r in rows], [r.dropoff.lon for r in rows],
                   [r.trip_minutes for r in rows], [r.distance_km for r in rows])

    def window(self, start: float, end: float) -> "Trips":
        """The requests of minutes ``[start, end)``, in order, their minutes counted
        from ``start``."""
        keep = (start <= self.minute) & (self.minute < end)
        cols = [getattr(self, name)[keep] for name in self.FIELDS]
        cols[1] = cols[1] - start
        return Trips(*cols)

    def __len__(self) -> int:
        return len(self.rid)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return Trips(*(getattr(self, name)[index] for name in self.FIELDS))
        i = operator.index(index)
        return self._row(*(getattr(self, name)[i].item() for name in self.FIELDS))

    def __iter__(self):
        for row in zip(*(getattr(self, name).tolist() for name in self.FIELDS)):
            yield self._row(*row)

    @staticmethod
    def _row(rid, minute, pickup_lat, pickup_lon, dropoff_lat, dropoff_lon, trip_minutes,
             distance_km) -> RideRequest:
        return RideRequest(rid, minute, Location(pickup_lat, pickup_lon),
                           Location(dropoff_lat, dropoff_lon), trip_minutes, distance_km)

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trips({len(self)} requests)"


@dataclass(frozen=True)
class DispatchOrder:
    vehicle_id: int
    target_cell: tuple[int, int]


class Vehicle(NamedTuple):
    """One vehicle of a :attr:`Simulation.fleet` snapshot."""

    vid: int
    status: int


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


def idle_mask(status: np.ndarray, ordered_since_dropoff: np.ndarray,
              last_ride_time: np.ndarray, t: float, window: float) -> np.ndarray:
    """Dispatchable vehicles: unoccupied and uncommitted, and either not
    ordered since their last dropoff or ride-starved for ``window`` minutes."""
    return (status <= DISPATCHING) & (~ordered_since_dropoff | (t - last_ride_time >= window))


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
    idle_ids: np.ndarray              # dispatchable vehicle ids, ascending int64
    cells: np.ndarray                 # (N, 2) int64 current cell per vehicle
    idle_cell_counts: np.ndarray      # dispatchable vehicles per fine cell
    trailing_heat: np.ndarray         # requests per cell of minutes [t - 30, t), not minute t's
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

    ``policy`` (optional) needs an int ``cycle`` (invocation period, minutes) and
    ``dispatch(view) -> list[DispatchOrder]``.  A caller that acts between
    simulated minutes calls :meth:`step_minute` itself, as the DQN training
    loop does to run a training step after each minute.  :attr:`requests` is
    ``requests`` as one :class:`Trips`, sorted by minute and id, and each minute
    matches its arrivals as a slice; vehicle ``k`` starts idle at the ``k``-th pickup.
    A request before minute 0 raises ``ValueError``, and a pickup off the grid
    raises :class:`OutOfBoundsError`, when the simulation is built.
    """

    def __init__(self, grid: GridSpec, graph: RoadGraph, eta_model,
                 requests: Sequence[RideRequest], n_vehicles: int,
                 policy=None, clock0: Clock | None = None, *, warmup: int,
                 match_radius_m: float, idle_window: float):
        self.grid = grid
        self.graph = graph
        self.eta_model = eta_model
        trips = Trips.of(requests)
        self.requests = trips[np.lexsort((trips.rid, trips.minute))]
        self.policy = policy
        self.clock0 = clock0 or Clock(0.0)
        self.warmup = warmup
        self.match_radius_m = match_radius_m
        self.idle_window = idle_window

        if len(self.requests) and self.requests.minute[0] < 0:
            raise ValueError(f"request {self.requests.rid[0]} at minute "
                             f"{self.requests.minute[0]}, before the episode's minute 0")
        if len(self.requests) < n_vehicles:
            raise ValueError(
                f"need at least {n_vehicles} requests to place the fleet, "
                f"got {len(self.requests)}"
            )
        n = n_vehicles
        self.n_vehicles = n
        # the fleet's columns (module docstring); depart is NaN before the
        # first route, the dropoff NaN before the first ride
        self._status = np.full(n, IDLE, dtype=np.int64)
        self._lat = self.requests.pickup_lat[:n].copy()
        self._lon = self.requests.pickup_lon[:n].copy()
        self._depart = np.full(n, np.nan)
        self._arrival = np.full(n, np.inf)
        self._ride_trip = np.zeros(n)
        self._drop_lat = np.full(n, np.nan)
        self._drop_lon = np.full(n, np.nan)
        self._ride_m = np.zeros(n)
        self._ride_id = np.full(n, -1, dtype=np.int64)
        self._last_dropoff = np.full(n, -np.inf)
        self._last_ride = np.full(n, -np.inf)
        self._ordered = np.zeros(n, dtype=bool)
        self._pickups = np.zeros(n, dtype=np.int64)
        self._dispatch_minutes = np.zeros(n)
        self._route_len = np.zeros(n, dtype=np.int64)
        self._route_lat = np.zeros((n, 2))        # widened by _set_route as needed
        self._route_lon = np.zeros((n, 2))
        self._route_cum = np.full((n, 2), np.inf)
        self.metrics = EpisodeMetrics(n_vehicles=n)
        self.t = 0
        # each request's pickup cell, row-major; an off-grid pickup raises here
        rows, cols = cell_arrays(self.requests.pickup_lat, self.requests.pickup_lon, grid)
        self._pickup_cells = rows * grid.cols + cols

    @property
    def fleet(self) -> list[Vehicle]:
        """Every vehicle's id and status, in id order, copied from the columns."""
        return [Vehicle(vid, s) for vid, s in enumerate(self._status.tolist())]

    # -- vehicle helpers ------------------------------------------------------

    def positions(self, t: float, vids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Latitudes and longitudes of vehicles ``vids`` at minute ``t``.

        An idle vehicle is at its location.  A moving one is interpolated
        along its route: the elapsed fraction of its trip time, clipped to
        [0, 1] (1 for a zero-time trip), of the route length falls in the
        segment that ends at the first cumulative length not below it --
        the count of lengths below it in the +inf-padded row, which is
        ``bisect_left`` -- and the point is placed in that segment by the
        IEEE operations of the scalar formula, one array at a time.
        """
        lat, lon = self._lat[vids], self._lon[vids]
        moving = self._status[vids] != IDLE
        if not moving.any():
            return lat, lon
        m = vids[moving]
        k = np.arange(len(m))
        depart = self._depart[m]
        span = self._arrival[m] - depart
        frac = (t - depart) / np.where(span > 0, span, 1.0)
        frac = np.where(frac > 0.0, frac, 0.0)    # max(0.0, frac)
        frac = np.where(frac < 1.0, frac, 1.0)    # min(1.0, frac)
        frac = np.where(span <= 0, 1.0, frac)
        cum = self._route_cum[m]
        last = self._route_len[m] - 1
        target = frac * cum[k, last]
        i = np.count_nonzero(cum < target[:, None], axis=1)
        j = np.clip(i, 1, last)
        lo = cum[k, j - 1]
        seg = cum[k, j] - lo
        # seg > 0 wherever 0 < i <= last; the safe divisor keeps the other rows finite
        w = (target - lo) / np.where(seg > 0, seg, 1.0)
        for route, out in ((self._route_lat, lat), (self._route_lon, lon)):
            points = route[m]
            a, b = points[k, j - 1], points[k, j]
            between = a + w * (b - a)
            out[moving] = np.where(i <= 0, points[:, 0],
                                   np.where(i > last, points[k, last], between))
        return lat, lon

    def _plan_moves(self, lats: np.ndarray, lons: np.ndarray, dest_lats: np.ndarray,
                    dest_lons: np.ndarray, clock: Clock) -> list[tuple]:
        """Each move from ``(lats[k], lons[k])`` to ``(dest_lats[k], dest_lons[k])``:
        its waypoints' latitudes and longitudes, from origin to destination, segment and
        total meters, and the ETA model's minutes for those meters at ``clock``.

        One nearest-node lookup serves all moves.  A move follows A* between
        its nearest nodes, or the straight line where the graph has no path.
        Then one :meth:`_trip_minutes` call times all moves over their
        route meters at the phase's one clock.  The model evaluates each
        row as its own batch of one, so a move's minutes do not depend on
        the other moves of the phase.
        """
        k = len(lats)
        if not k:
            return []
        nodes = nearest_nodes(np.concatenate([lats, dest_lats]),
                              np.concatenate([lons, dest_lons]), self.graph).tolist()
        moves = []
        for lat, lon, dest_lat, dest_lon, o, d in zip(lats.tolist(), lons.tolist(),
                                                      dest_lats.tolist(), dest_lons.tolist(),
                                                      nodes[:k], nodes[k:]):
            path = shortest_path(o, d, self.graph)
            if path is None or len(path.nodes) < 2:
                meters = haversine_coords(lat, lon, dest_lat, dest_lon)
                route = [lat, dest_lat], [lon, dest_lon], [meters]
            else:
                points = [self.graph.nodes[n] for n in path.nodes]
                head = haversine_coords(lat, lon, points[0].lat, points[0].lon)
                tail = haversine_coords(points[-1].lat, points[-1].lon, dest_lat, dest_lon)
                meters = head + path.total_length + tail
                route = ([lat, *[p.lat for p in points], dest_lat],
                         [lon, *[p.lon for p in points], dest_lon],
                         [head, *hop_lengths(path, self.graph), tail])
            moves.append((*route, meters))
        etas = self._trip_minutes(clock, lats, lons, dest_lats, dest_lons,
                                  [move[-1] / 1000.0 for move in moves]).tolist()
        return [(*move, eta) for move, eta in zip(moves, etas)]

    def _trip_minutes(self, clock: Clock, lats, lons, dest_lats, dest_lons,
                      distance_km) -> np.ndarray:
        """The ETA model's minutes of k trips at ``clock`` (see :func:`eta.eta_features`):
        the one ``predict`` call that times both the moves and ``SimView.eta_minutes``."""
        return self.eta_model.predict(eta_features(
            periodic_features(clock), lats, lons, dest_lats, dest_lons, distance_km))

    def _set_route(self, vid: int, lats: list[float], lons: list[float],
                   segs: list[float], depart: float, arrival: float) -> None:
        """Put ``vid`` on the route through the waypoints ``lats``/``lons``,
        whose consecutive segments measure ``segs`` meters."""
        n = len(lats)
        width = self._route_cum.shape[1]
        if n > width:
            grow = max(n, 2 * width) - width
            self._route_lat = np.pad(self._route_lat, ((0, 0), (0, grow)))
            self._route_lon = np.pad(self._route_lon, ((0, 0), (0, grow)))
            self._route_cum = np.pad(self._route_cum, ((0, 0), (0, grow)),
                                     constant_values=np.inf)
        self._route_lat[vid, :n] = lats
        self._route_lon[vid, :n] = lons
        self._route_cum[vid, :n] = list(accumulate(segs, initial=0.0))
        if self._route_len[vid] > n:
            self._route_cum[vid, n:] = np.inf
        self._route_len[vid] = n
        self._depart[vid] = depart
        self._arrival[vid] = arrival

    def _stand(self, vids) -> None:
        """Leave vehicle(s) ``vids`` idle where they are, with no destination or route."""
        self._status[vids] = IDLE
        self._arrival[vids] = np.inf

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
        """Complete every arrival due by ``t``.

        Each round takes the vehicles due: all reach their destinations, a
        dispatch move or a ride ends there, and a pickup starts its ride at
        once, so a ride that ends by ``t`` too completes in a later round.
        Vehicles are independent, so a round is array operations.
        """
        arrival = self._arrival
        while True:
            due = (arrival <= t).nonzero()[0]   # +inf while idle
            if not due.size:
                return
            times, status = arrival[due], self._status[due]
            end = self._route_len[due] - 1
            self._lat[due] = self._route_lat[due, end]
            self._lon[due] = self._route_lon[due, end]
            ride = status == TO_PICKUP
            self._stand(due[~ride])
            dropped = status == OCCUPIED
            self._last_dropoff[due[dropped]] = times[dropped]
            self._ordered[due[dropped]] = False
            self._ride_id[due[dropped]] = -1
            # a pickup starts the straight two-point ride to the dropoff
            riders = due[ride]
            self._status[riders] = OCCUPIED
            self._pickups[riders] += 1
            self._route_lat[riders, 0] = self._lat[riders]
            self._route_lon[riders, 0] = self._lon[riders]
            self._route_lat[riders, 1] = self._drop_lat[riders]
            self._route_lon[riders, 1] = self._drop_lon[riders]
            self._route_cum[riders, 0] = 0.0
            self._route_cum[riders, 1] = 0.0 + self._ride_m[riders]
            self._route_cum[riders, 2:] = np.inf
            self._route_len[riders] = 2
            self._depart[riders] = times[ride]
            arrival[riders] = times[ride] + self._ride_trip[riders]

    def _match_requests(self, t: float, measured: bool) -> None:
        q = self.requests
        now = slice(*np.searchsorted(q.minute, [t, t + 1.0]).tolist())
        if now.start == now.stop:
            return

        lats, lons = q.pickup_lat[now], q.pickup_lon[now]

        # 1. match each request, in order, to the closest still-free vehicle
        free = (self._status <= DISPATCHING).nonzero()[0]
        free_lat, free_lon = self.positions(t, free)
        dists = haversine_arrays(free_lat[None, :], free_lon[None, :],
                                 lats[:, None], lons[:, None])
        matched, taken = [], []  # the matched requests, and their free-vehicle columns
        for i in range(len(lats)):
            if len(taken) < len(free):
                # columns are in ascending vehicle id, so ties go to the lowest id
                best = int(dists[i].argmin())
                if dists[i, best] <= self.match_radius_m:
                    matched.append(i)
                    taken.append(best)
                    dists[:, best] = np.inf  # taken

        # 2. the matched vehicles take their riders, and their moves to the
        #    pickups are routed and timed
        riders = now.start + np.array(matched, dtype=np.intp)
        vids = free[taken]
        self._status[vids] = TO_PICKUP
        self._last_ride[vids] = t
        self._ride_trip[vids] = q.trip_minutes[riders]
        self._drop_lat[vids] = q.dropoff_lat[riders]
        self._drop_lon[vids] = q.dropoff_lon[riders]
        ends = zip(lats[matched].tolist(), lons[matched].tolist(),
                   self._drop_lat[vids].tolist(), self._drop_lon[vids].tolist())
        self._ride_m[vids] = [haversine_coords(*end) for end in ends]
        self._ride_id[vids] = q.rid[riders]
        moves = iter(self._plan_moves(free_lat[taken], free_lon[taken], lats[matched],
                                      lons[matched], self.clock0.plus(t)))

        # 3. record each request in order
        vid_of = dict(zip(matched, vids.tolist()))
        for i in range(len(lats)):
            vid = vid_of.get(i)
            if vid is None:
                if measured:
                    self._count_request(t, None)
                continue

            route_lat, route_lon, segs, _, eta = next(moves)
            self._set_route(vid, route_lat, route_lon, segs, t, t + eta)
            if measured:
                self._count_request(t, eta)

    def build_view(self, t: float) -> SimView:
        n = self.n_vehicles
        status = self._status
        dispatchable = idle_mask(status, self._ordered, self._last_ride, t, self.idle_window)
        idle_ids = np.flatnonzero(dispatchable)
        ids = np.arange(n)
        lat, lon = self.positions(t, ids)
        # where, and in how many minutes, each vehicle next stands idle:
        # standing supply where it is now, a passenger's vehicle at the
        # dropoff, any other mover at its destination
        standing = (status == IDLE) | dispatchable
        to_pickup = status == TO_PICKUP
        end = np.maximum(self._route_len - 1, 0)
        dest_lat, dest_lon = self._route_lat[ids, end], self._route_lon[ids, end]
        next_lat = np.where(standing, lat, np.where(to_pickup, self._drop_lat, dest_lat))
        next_lon = np.where(standing, lon, np.where(to_pickup, self._drop_lon, dest_lon))
        left = np.where(to_pickup, self._arrival + self._ride_trip - t, self._arrival - t)
        minutes = np.where(standing, 0.0, np.where(left > 0.0, left, 0.0))
        rows, cols = cell_arrays(np.concatenate([lat, next_lat]),
                                 np.concatenate([lon, next_lon]), self.grid)
        cells = np.stack([rows, cols], axis=1)
        idle_cells = np.zeros(self.grid.shape)
        np.add.at(idle_cells, (rows[idle_ids], cols[idle_ids]), 1.0)

        clock = self.clock0.plus(t)
        grid = self.grid

        def eta_minutes(from_cell, to_cell):
            # one trip per call, straight between the cell centres: the
            # DQN's orders are made one after another
            a, b = center_of(from_cell, grid), center_of(to_cell, grid)
            km = haversine_coords(a.lat, a.lon, b.lat, b.lon) / 1000.0
            return float(self._trip_minutes(clock, [a.lat], [a.lon], [b.lat], [b.lon], [km])[0])

        # pickups of minutes [t - 30, t), then of the last two complete slots,
        # [s - 60, s - 30) and [s - 30, s); no request is before minute 0, so a
        # window reaching before it holds only its minutes from 0 on
        s = t // SLOT_MINUTES * SLOT_MINUTES
        edges = np.searchsorted(self.requests.minute, [
            t - SLOT_MINUTES, t, s - 2 * SLOT_MINUTES, s - SLOT_MINUTES, s - SLOT_MINUTES, s])
        trailing, prev2, prev1 = (
            np.bincount(self._pickup_cells[lo:hi], minlength=grid.rows * grid.cols)
            .astype(np.float64).reshape(grid.shape)
            for lo, hi in edges.reshape(3, 2).tolist())
        return SimView(
            t=t, clock=clock, idle_ids=idle_ids,
            cells=cells[:n], idle_cell_counts=idle_cells,
            trailing_heat=trailing, heat_prev1=prev1, heat_prev2=prev2,
            next_cells=cells[n:], next_minutes=minutes,
            pickups=self._pickups.astype(np.float64),
            dispatch_minutes=self._dispatch_minutes.copy(),
            last_dropoff=self._last_dropoff.copy(),
            eta_minutes=eta_minutes,
        )

    def apply_dispatch(self, orders: list[DispatchOrder], t: float) -> None:
        """Execute orders in list order.

        A list naming a vehicle twice, or a vehicle id outside the fleet, is
        rejected before any order runs.
        """
        n = self.n_vehicles
        vids = [order.vehicle_id for order in orders]
        unknown = sorted({vid for vid in vids if not 0 <= vid < n})
        if unknown:
            raise ValueError(f"dispatch orders name vehicles {unknown} outside "
                             f"the fleet of {n}")
        if len(set(vids)) != len(vids):
            twice = sorted({vid for vid in vids if vids.count(vid) > 1})
            raise ValueError(f"dispatch orders name vehicles {twice} more than once")
        status = self._status[vids].tolist() if vids else []
        free = [s <= DISPATCHING for s in status]
        movers = [vid for vid, f in zip(vids, free) if f]
        origin_lat, origin_lon = self.positions(t, np.array(movers, dtype=np.int64))
        centers = (center_of(order.target_cell, self.grid)
                   for order, f in zip(orders, free) if f)
        dests = np.array([(c.lat, c.lon) for c in centers]).reshape(-1, 2)
        moves = iter(self._plan_moves(origin_lat, origin_lon, dests[:, 0], dests[:, 1],
                                      self.clock0.plus(t)))

        for vid, s, f in zip(vids, status, free):
            if not f:
                log.warning("order for vehicle %d ignored: status %s",
                            vid, STATUS_NAMES[s])
                continue
            route_lat, route_lon, segs, meters, eta = next(moves)
            self._lat[vid], self._lon[vid] = route_lat[0], route_lon[0]
            self._ordered[vid] = True
            if meters <= 0.0 or eta <= 0.0:
                self._lat[vid], self._lon[vid] = route_lat[-1], route_lon[-1]
                self._stand(vid)
                continue
            self._status[vid] = DISPATCHING
            self._set_route(vid, route_lat, route_lon, segs, t, t + eta)

    def _accrue(self, measured: bool) -> None:
        status = self._status
        dispatching = status == DISPATCHING
        self._dispatch_minutes[dispatching] += 1.0
        if measured:
            m = self.metrics
            cruising = int(np.count_nonzero(dispatching | (status == TO_PICKUP)))
            if cruising:
                # whole minutes: adding the count adds 1.0 that many times, exactly
                m.cruise_sum += cruising
                m.hour_bucket(int(self.t) // 60)["cruise_sum"] += cruising
            m.occupied_minutes[status == OCCUPIED] += 1.0
            m.elapsed_minutes += 1

    def step_minute(self) -> None:
        t = float(self.t)
        measured = self.t >= self.warmup
        self._complete_arrivals(t)
        self._match_requests(t, measured)
        if (self.policy is not None and self.t >= self.warmup
                and self.t % self.policy.cycle == 0):
            view = self.build_view(t)
            orders = self.policy.dispatch(view)
            self.apply_dispatch(orders, t)
        self._accrue(measured)
        self.t += 1

    def run(self, total_minutes: int) -> EpisodeMetrics:
        for _ in range(total_minutes):
            self.step_minute()
        return self.metrics

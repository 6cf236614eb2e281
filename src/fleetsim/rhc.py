"""Model-based centralized dispatch: receding-horizon control over a zone LP.

Each invocation predicts zone-level supply dynamics over a short horizon,
solves a linear program for fractional zone-to-zone dispatch counts,
rounds the first slot's plan, and greedily maps dispatch units onto
concrete vehicles and fine-grid cells using the demand-supply mismatch.

The supply recursion keeps the printed index conventions of the source
dynamics: demand in slot k+1 is served from supply standing at slot k,
dispatch moves decided in slot k land in slot k+1, and vehicles dropping
off during slot k join the idle pool at slot k+1.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .geo import (GridSpec, RegionMap, aggregate_to_regions, haversine_arrays,
                  region_cells)
from .lp import LpProblem, LpSolution, solve
from .sim import DispatchOrder

log = logging.getLogger(__name__)

DEFAULT_SLOT_MINUTES = 15.0
DEFAULT_HORIZON = 3
DEFAULT_REJECT_PENALTY = 20.0
DEFAULT_DISCOUNT = 0.99
FALLBACK_SPEED_KMH = 25.0


# --- historical tables -----------------------------------------------------

@dataclass
class TripTimeTable:
    """Expected zone-to-zone minutes per (day-of-week, hour)."""

    minutes: np.ndarray  # (7, 24, M, M)

    def at(self, dow: int, hour: int) -> np.ndarray:
        return self.minutes[dow, hour]


@dataclass
class DestDistribution:
    """Row-stochastic destination probabilities per (day-of-week, hour)."""

    prob: np.ndarray  # (7, 24, M, M)

    def at(self, dow: int, hour: int) -> np.ndarray:
        return self.prob[dow, hour]


def zone_centroid_distances(rm: RegionMap, grid: GridSpec) -> np.ndarray:
    """Pairwise great-circle distances between zone centroids, meters."""
    rows, cols = np.indices((grid.rows, grid.cols))
    count = np.maximum(aggregate_to_regions(np.ones(rows.shape), rm), 1)
    lats = aggregate_to_regions(grid.origin.lat + (rows + 0.5) * grid.d_lat, rm) / count
    lons = aggregate_to_regions(grid.origin.lon + (cols + 0.5) * grid.d_lon, rm) / count
    return np.array([haversine_arrays(lat, lon, lats, lons) for lat, lon in zip(lats, lons)])


def estimate_tables(origin_zone, dest_zone, dow_idx, hour_idx, minutes,
                    zone_count: int, centroid_dist_m: np.ndarray | None = None,
                    fallback_speed_kmh: float = FALLBACK_SPEED_KMH
                    ) -> tuple[TripTimeTable, DestDistribution]:
    """Histogram trip records into travel-time and destination tables.

    Trip times are arithmetic means of observed durations per
    (dow, hour, origin, dest); missing entries fall back to centroid
    distance at a conservative urban speed.  Destination rows fall back
    to the origin's all-hours marginal, then to uniform.
    """
    m = zone_count
    origin_zone = np.asarray(origin_zone, dtype=np.int64)
    dest_zone = np.asarray(dest_zone, dtype=np.int64)
    dow_idx = np.asarray(dow_idx, dtype=np.int64)
    hour_idx = np.asarray(hour_idx, dtype=np.int64)
    minutes = np.asarray(minutes, dtype=np.float64)

    time_sum = np.zeros((7, 24, m, m))
    counts = np.zeros((7, 24, m, m))
    np.add.at(time_sum, (dow_idx, hour_idx, origin_zone, dest_zone), minutes)
    np.add.at(counts, (dow_idx, hour_idx, origin_zone, dest_zone), 1.0)

    if centroid_dist_m is None:
        default = np.zeros((m, m))
    else:
        default = (np.asarray(centroid_dist_m) / 1000.0) / fallback_speed_kmh * 60.0
    tau = np.where(counts > 0, time_sum / np.maximum(counts, 1.0),
                   np.broadcast_to(default, (7, 24, m, m)))

    marginal = counts.sum(axis=(0, 1))  # (m, m) over all hours
    prob = np.empty((7, 24, m, m))
    uniform = np.full(m, 1.0 / m)
    marg_rows = np.where(marginal.sum(axis=1, keepdims=True) > 0,
                         marginal / np.maximum(marginal.sum(axis=1, keepdims=True), 1e-12),
                         uniform)
    for d in range(7):
        for h in range(24):
            rows = counts[d, h]
            row_sums = rows.sum(axis=1, keepdims=True)
            prob[d, h] = np.where(row_sums > 0, rows / np.maximum(row_sums, 1e-12),
                                  marg_rows)
    return TripTimeTable(tau), DestDistribution(prob)


def _write_table(path, column: str, table: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dow", "hour", "origin", "dest", column])
        for key in np.ndindex(table.shape):
            w.writerow([*key, repr(float(table[key]))])


def save_tables(tt: TripTimeTable, dd: DestDistribution, tau_path, prob_path) -> None:
    _write_table(tau_path, "minutes", tt.minutes)
    _write_table(prob_path, "prob", dd.prob)


class ZoneTableError(ValueError):
    """A trip-time or destination table file does not fit the zone layout."""


def _read_table(path, column: str, zone_count: int) -> np.ndarray:
    """One (7, 24, M, M) table from CSV; every entry must appear and be in range."""
    shape = (7, 24, zone_count, zone_count)
    table = np.zeros(shape)
    seen = np.zeros(shape, dtype=bool)
    with open(path, newline="") as fh:
        for line, rec in enumerate(csv.DictReader(fh), start=2):
            try:
                key = tuple(int(rec[k]) for k in ("dow", "hour", "origin", "dest"))
                value = float(rec[column])
            except (KeyError, TypeError, ValueError) as exc:
                raise ZoneTableError(f"{path}:{line}: malformed row ({exc})") from None
            if not all(0 <= k < n for k, n in zip(key, shape)):
                raise ZoneTableError(f"{path}:{line}: entry {key} is outside "
                                     f"7 days x 24 hours x {zone_count} zones")
            table[key] = value
            seen[key] = True
    if not seen.all():
        missing = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise ZoneTableError(f"{path}: {int((~seen).sum())} entries missing for "
                             f"{zone_count} zones, first {missing}")
    return table


def load_tables(tau_path, prob_path, zone_count: int) -> tuple[TripTimeTable, DestDistribution]:
    """Read the tables written by :func:`save_tables` for ``zone_count`` zones.

    Raises :class:`ZoneTableError` unless each file holds every
    (dow, hour, origin, dest) entry and no other, the minutes are finite
    and non-negative, and each destination row is a probability vector
    summing to 1 within 1e-9.
    """
    tau = _read_table(tau_path, "minutes", zone_count)
    if not (np.isfinite(tau).all() and (tau >= 0).all()):
        raise ZoneTableError(f"{tau_path}: trip minutes must be finite and non-negative")
    prob = _read_table(prob_path, "prob", zone_count)
    if not (np.isfinite(prob).all() and (prob >= 0).all()):
        raise ZoneTableError(f"{prob_path}: probabilities must be finite and non-negative")
    bad = np.abs(prob.sum(axis=-1) - 1.0) > 1e-9
    if bad.any():
        row = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ZoneTableError(f"{prob_path}: destination row (dow, hour, origin) = "
                             f"{row} does not sum to 1")
    return TripTimeTable(tau), DestDistribution(prob)


# --- supply dynamics -------------------------------------------------------

def predict_supply(x0: np.ndarray, sched: np.ndarray, wbar: np.ndarray,
                   tau_slots, p_slots, u_slots=None,
                   slot_minutes: float = DEFAULT_SLOT_MINUTES) -> np.ndarray:
    """Roll the supply recursion forward for slots 1..T with fixed dispatches.

    ``x0`` is the standing idle count, ``sched[k]`` the occupied-now
    vehicles dropping off during relative slot k, ``wbar[k]`` predicted
    demand, ``tau_slots[k]``/``p_slots[k]`` the per-slot travel-time and
    destination matrices, and ``u_slots[k]`` an optional fixed dispatch
    matrix per slot.  Returns an array of shape (T, M).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    wbar = np.asarray(wbar, dtype=np.float64)
    sched = np.asarray(sched, dtype=np.float64)
    horizon = wbar.shape[0] - 1
    m = x0.shape[0]
    if (x0 < 0).any() or (wbar < 0).any() or (sched < 0).any():
        raise ValueError("supply inputs must be non-negative")

    xs = np.zeros((horizon + 1, m))
    xs[0] = x0
    served = np.zeros((horizon, m))
    for k in range(horizon):
        leftover = np.maximum(xs[k] - wbar[k + 1], 0.0)
        served[k] = np.minimum(wbar[k + 1], xs[k])
        net_u = np.zeros(m)
        if u_slots is not None:
            u = np.asarray(u_slots[k], dtype=np.float64)
            net_u = u.sum(axis=1) - u.sum(axis=0)
        arrivals = np.zeros(m)
        for kp in range(k + 1):
            lag = np.floor(np.asarray(tau_slots[kp]) / slot_minutes).astype(int)
            mask = (lag.T == (k - kp))  # mask[i, j]: trips j -> i landing in slot k
            if mask.any():
                p = np.asarray(p_slots[kp])
                arrivals += ((p.T * mask) * served[kp][None, :]).sum(axis=1)
        xs[k + 1] = leftover - net_u + sched[k] + arrivals
    return xs[1:]


# --- the receding-horizon linear program -----------------------------------

@dataclass
class RhcLpIndex:
    """Where each variable block of the assembled LP sits among its columns."""

    n_vars: int
    u: tuple[np.ndarray, np.ndarray, np.ndarray]  # (k, i, j) of dispatch columns 0, 1, ...
    x_cols: np.ndarray  # (T, M): [k - 1, i] -> column of x[k, i], k = 1..T
    s_cols: np.ndarray  # (T + 1, M)
    m_cols: np.ndarray  # (T, M)
    l_cols: np.ndarray  # (T, M)


def build_rhc_lp(x0: np.ndarray, sched: np.ndarray, wbar: np.ndarray,
                 tau_slots, p_slots, reject_penalty: float = DEFAULT_REJECT_PENALTY,
                 discount: float = DEFAULT_DISCOUNT,
                 slot_minutes: float = DEFAULT_SLOT_MINUTES) -> tuple[LpProblem, RhcLpIndex]:
    """Assemble the horizon dispatch LP.

    Decision variables are zone-to-zone dispatch counts per slot
    (restricted to pairs reachable within one slot), future supply
    levels, shortage epigraph variables, and a served/leftover split of
    each slot's standing supply.  Served mass redistributes through the
    destination distribution with the travel-time lag; shortages are
    penalized at ``reject_penalty`` per predicted unserved request.

    Columns: ``u[k, i, j]`` for each ``i != j`` reachable in slot k,
    row-major in ``(k, i, j)``, then the blocks ``x`` (k = 1..T), ``s``
    (k = 0..T), ``m`` and ``L`` (k = 0..T-1), each row-major in ``(k, i)``.
    Rows come in blocks row-major in ``(k, i)``, with ``x[0] = x0`` moved
    to the right-hand side.  Inequalities: the budgets
    ``sum_j u[k, i, j] <= x[k, i]`` (only where zone i has a reachable
    move), the shortages ``s[k, i] >= wbar[k, i] - x[k, i]`` and the caps
    ``m[k, i] <= wbar[k + 1, i]``.  Equalities: the splits ``m + L = x``
    and the dynamics ``x[k + 1, i] = L[k, i] - out + in + sched[k, i] +
    arrivals``, where the served trips j -> i of slot kp <= k arrive with
    weight ``p_slots[kp][j, i]`` if
    ``floor(tau_slots[kp][j, i] / slot_minutes) == k - kp``.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    wbar = np.asarray(wbar, dtype=np.float64)
    sched = np.asarray(sched, dtype=np.float64)
    m = x0.shape[0]
    horizon = wbar.shape[0] - 1
    if sched.shape != (max(horizon, 0), m) and horizon > 0:
        raise ValueError(f"sched shape {sched.shape} != ({horizon}, {m})")

    tau = np.array([tau_slots[k] for k in range(horizon + 1)], dtype=np.float64)
    p = np.array([p_slots[k] for k in range(horizon)], dtype=np.float64)
    u = np.nonzero((tau <= slot_minutes) & ~np.eye(m, dtype=bool))
    uk, ui, uj = u
    nu = uk.size
    blocks = np.arange(nu, nu + (4 * horizon + 1) * m).reshape(-1, m)
    x_cols, s_cols, m_cols, l_cols = np.split(blocks, [horizon, 2 * horizon + 1,
                                                       3 * horizon + 1])
    n = nu + blocks.size
    r = np.arange(horizon * m)          # a row per (k, i), k < T
    rs = np.arange((horizon + 1) * m)   # a row per (k, i), k <= T

    budget = np.unique(uk * m + ui)  # flat k * M + i of each budget row
    a_budget = np.zeros((budget.size, n))
    a_budget[np.searchsorted(budget, uk * m + ui), np.arange(nu)] = 1.0
    later = np.flatnonzero(budget >= m)
    a_budget[later, x_cols.ravel()[budget[later] - m]] = -1.0
    a_short = np.zeros((rs.size, n))
    a_short[rs, s_cols.ravel()] = -1.0
    a_short[rs[m:], x_cols.ravel()] = -1.0
    a_cap = np.zeros((r.size, n))
    a_cap[r, m_cols.ravel()] = 1.0

    a_split = np.zeros((r.size, n))
    a_split[r, m_cols.ravel()] = 1.0
    a_split[r, l_cols.ravel()] = 1.0
    a_split[r[m:], x_cols[:-1].ravel()] = -1.0
    a_dyn = np.zeros((r.size, n))
    a_dyn[r, x_cols.ravel()] = 1.0
    a_dyn[r, l_cols.ravel()] = -1.0
    now = np.flatnonzero(uk < horizon)
    a_dyn[uk[now] * m + ui[now], now] = 1.0
    a_dyn[uk[now] * m + uj[now], now] = -1.0
    lag = np.floor(tau[:horizon] / slot_minutes).astype(int)
    for k in range(horizon):
        for kp in range(k + 1):
            j, i = np.nonzero((lag[kp] == k - kp) & (p[kp] > 0))
            a_dyn[k * m + i, m_cols[kp, j]] = -p[kp, j, i]

    g = np.array([discount ** k for k in range(horizon + 1)])
    c = np.zeros(n)
    # subtracted from +0.0, so a zero penalty or trip time stays +0.0
    c[s_cols] -= g[:, None] * reject_penalty
    c[:nu] -= g[uk] * tau[u]

    problem = LpProblem(
        c=c,
        a_ub=np.vstack([a_budget, a_short, a_cap]),
        # -(wbar - x0), not x0 - wbar: an equal pair gives -0.0, as it always has
        b_ub=np.concatenate([np.where(budget < m, x0[budget % m], 0.0),
                             -(wbar[0] - x0), -wbar[1:].ravel(), wbar[1:].ravel()]),
        a_eq=np.vstack([a_split, a_dyn]) if horizon else None,
        b_eq=np.concatenate([np.where(r < m, x0[r % m], 0.0), sched.ravel()])
        if horizon else None,
    )
    return problem, RhcLpIndex(n, u, x_cols, s_cols, m_cols, l_cols)


@dataclass
class RhcPlan:
    """LP outcome for the executed slot plus diagnostics."""

    u_star: np.ndarray        # (M, M) fractional dispatch counts, slot 0
    u_rounded: np.ndarray     # (M, M) integer plan, largest-remainder rounding
    objective: float
    status: str
    shortage: np.ndarray      # (T+1, M) LP shortage variables
    x_future: np.ndarray      # (T, M) LP supply for slots 1..T


def round_plan(u: np.ndarray) -> np.ndarray:
    """Largest-remainder rounding per origin row, preserving row budgets.

    Row totals round to the nearest integer; since the LP keeps each row
    sum within the (integer) zone supply, the rounded total can never
    exceed the budget.  Units go to the largest fractional remainders,
    ties to the lowest destination index.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u, dtype=np.int64)
    for i in range(u.shape[0]):
        row = np.maximum(u[i], 0.0)
        total = int(np.floor(row.sum() + 0.5 + 1e-9))
        base = np.floor(row + 1e-9).astype(np.int64)
        deficit = total - int(base.sum())
        out[i] = base
        if deficit > 0:
            rem = row - base
            order = np.lexsort((np.arange(row.size), -rem))
            out[i][order[:deficit]] += 1
    return out


def solve_rhc(x0, sched, wbar, tau_slots, p_slots,
              reject_penalty: float = DEFAULT_REJECT_PENALTY,
              discount: float = DEFAULT_DISCOUNT,
              slot_minutes: float = DEFAULT_SLOT_MINUTES) -> RhcPlan:
    """Build and solve the horizon LP, returning the executed-slot plan."""
    problem, index = build_rhc_lp(x0, sched, wbar, tau_slots, p_slots,
                                  reject_penalty, discount, slot_minutes)
    sol: LpSolution = solve(problem)
    m = index.s_cols.shape[1]
    u0 = np.zeros((m, m))
    if sol.status != "optimal":
        log.warning("RHC LP not optimal (%s); dispatching nothing", sol.status)
        return RhcPlan(u0, np.zeros((m, m), dtype=np.int64), float("nan"), sol.status,
                       np.zeros(index.s_cols.shape), np.zeros(index.x_cols.shape))
    k, i, j = index.u
    first = k == 0
    u0[i[first], j[first]] = sol.x[:k.size][first]
    plan = RhcPlan(u0, round_plan(u0), sol.objective, sol.status,
                   sol.x[index.s_cols], sol.x[index.x_cols])
    check_plan_feasibility(plan, np.asarray(x0, dtype=np.float64),
                           np.asarray(tau_slots[0]), slot_minutes)
    return plan


def check_plan_feasibility(plan: RhcPlan, x0: np.ndarray, tau0: np.ndarray,
                           slot_minutes: float) -> None:
    """Assert the executed plan respects budgets and the one-slot reach rule."""
    row_use = plan.u_star.sum(axis=1)
    if (row_use > x0 + 1e-6).any():
        raise AssertionError(f"LP plan exceeds zone budgets: {row_use} vs {x0}")
    far = tau0 > slot_minutes
    if (np.abs(plan.u_star[far]) > 1e-9).any():
        raise AssertionError("LP plan dispatches beyond the one-slot travel limit")
    if (plan.u_rounded.sum(axis=1) > np.floor(x0 + 0.5 + 1e-9)).any():
        raise AssertionError("rounded plan exceeds zone budgets")


def reward_rhc(u: np.ndarray, x: np.ndarray, wbar: np.ndarray, tau: np.ndarray,
               reject_penalty: float) -> float:
    """Slot reward: minus weighted predicted rejects, minus dispatch travel cost."""
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    wbar = np.asarray(wbar, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    shortage = np.maximum(wbar - x, 0.0).sum()
    cruise = float((tau * u).sum())
    return -reject_penalty * float(shortage) - cruise


# --- location-level mismatch and vehicle assignment ------------------------

def mismatch(x_cells: np.ndarray, w_cells: np.ndarray) -> np.ndarray:
    """Supply share minus demand share per location; zero shares on empty totals."""
    x = np.asarray(x_cells, dtype=np.float64)
    w = np.asarray(w_cells, dtype=np.float64)
    if x.shape != w.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {w.shape}")
    xs = x.sum()
    ws = w.sum()
    x_share = x / xs if xs > 0 else np.zeros_like(x)
    w_share = w / ws if ws > 0 else np.zeros_like(w)
    return x_share - w_share


def assign_vehicles(u_rounded: np.ndarray, eta: np.ndarray, x_cells: np.ndarray,
                    idle_vehicles, rm: RegionMap) -> tuple[list[DispatchOrder], list[str]]:
    """Map integer zone dispatch counts onto concrete vehicles and cells.

    For each dispatch unit from zone i to zone j the source is the
    highest-mismatch cell of zone i that still holds an idle vehicle, and
    the target is the lowest-mismatch cell of zone j.  The mismatch map
    is updated by one vehicle share after every assignment.  Ties break
    to the lowest row-major cell index, then the lowest vehicle id.

    ``idle_vehicles`` is an iterable of (vehicle_id, (row, col)).
    Returns (orders, warnings); a shortage of idle vehicles truncates the
    plan with a warning rather than failing.
    """
    eta = np.asarray(eta, dtype=np.float64).copy()
    x = np.asarray(x_cells, dtype=np.float64).copy()
    total_supply = x.sum()
    share = 1.0 / total_supply if total_supply > 0 else 0.0

    by_cell: dict[tuple[int, int], list[int]] = {}
    for vid, cell in idle_vehicles:
        by_cell.setdefault(tuple(cell), []).append(vid)
    for vids in by_cell.values():
        vids.sort(reverse=True)  # pop() yields the lowest id

    zone_cells = region_cells(rm)

    orders: list[DispatchOrder] = []
    warnings: list[str] = []
    m = u_rounded.shape[0]
    for i in range(m):
        for j in range(m):
            for _ in range(int(u_rounded[i, j])):
                best_src = None
                best_val = -np.inf
                for cell in zone_cells.get(i, ()):
                    if x[cell] > 0 and by_cell.get(cell):
                        v = eta[cell]
                        if v > best_val:
                            best_val = v
                            best_src = cell
                if best_src is None:
                    msg = f"zone {i}: no idle vehicle left for dispatch to zone {j}"
                    warnings.append(msg)
                    log.warning("%s", msg)
                    continue
                best_dst = None
                best_dst_val = np.inf
                for cell in zone_cells.get(j, ()):
                    if eta[cell] < best_dst_val:
                        best_dst_val = eta[cell]
                        best_dst = cell
                vid = by_cell[best_src].pop()
                orders.append(DispatchOrder(vid, best_dst))
                x[best_src] -= 1
                eta[best_src] -= share
                eta[best_dst] += share
    return orders, warnings


# --- the policy object wired into the simulator -----------------------------

class RhcPolicy:
    """Receding-horizon dispatch policy bound to tables and a zone partition.

    Invoked once per slot: predicts zone demand from the demand model,
    assembles the horizon LP from the simulator's supply snapshot, and
    turns the executed slot's rounded plan into per-vehicle orders via
    the location-level mismatch.
    """

    def __init__(self, zones: RegionMap, trip_times: TripTimeTable,
                 destinations: DestDistribution, demand_predictor,
                 future_demand=None,
                 reject_penalty: float = DEFAULT_REJECT_PENALTY,
                 discount: float = DEFAULT_DISCOUNT,
                 slot_minutes: float = DEFAULT_SLOT_MINUTES,
                 horizon: int = DEFAULT_HORIZON,
                 prediction_window: float = 30.0):
        self.zones = zones
        self.trip_times = trip_times
        self.destinations = destinations
        self.demand_predictor = demand_predictor  # callable(view) -> fine heat
        # clock-indexed predictor for slots beyond the model's window, so
        # the horizon can anticipate surges instead of persisting the
        # current level; None falls back to persistence
        self.future_demand = future_demand        # callable(clock) -> fine heat
        self.reject_penalty = reject_penalty
        self.discount = discount
        self.slot_minutes = slot_minutes
        self.horizon = horizon
        self.prediction_window = prediction_window
        self.cycle = int(slot_minutes)
        self.last_plan: RhcPlan | None = None
        self.warnings: list[str] = []

    def dispatch(self, view) -> list[DispatchOrder]:
        m = self.zones.region_count
        horizon = self.horizon

        x0 = np.zeros(m)
        sched = np.zeros((horizon, m))
        for vid, cell, minutes in view.supply_events:
            zone = int(self.zones.assignment[cell])
            if minutes <= 0.0:
                x0[zone] += 1
            else:
                k = int(minutes // self.slot_minutes)
                if k < horizon:
                    sched[k, zone] += 1

        heat = self.demand_predictor(view)
        scale = self.slot_minutes / self.prediction_window
        near = aggregate_to_regions(heat, self.zones) * scale
        n_near = max(1, int(self.prediction_window // self.slot_minutes))
        wbar = np.tile(near, (horizon + 1, 1))
        if self.future_demand is not None:
            for k in range(n_near, horizon + 1):
                clock = view.clock.plus(k * self.slot_minutes)
                wbar[k] = aggregate_to_regions(self.future_demand(clock),
                                               self.zones) * scale

        tau_slots = []
        p_slots = []
        for k in range(horizon + 1):
            clock = view.clock.plus(k * self.slot_minutes)
            tau_slots.append(self.trip_times.at(clock.dow_index, clock.hour_index))
            p_slots.append(self.destinations.at(clock.dow_index, clock.hour_index))

        plan = solve_rhc(x0, sched, wbar, tau_slots, p_slots,
                         self.reject_penalty, self.discount, self.slot_minutes)
        self.last_plan = plan
        if plan.status != "optimal":
            return []

        eta = mismatch(view.idle_cell_counts, view.trailing_heat)
        idle_vehicles = [(vid, view.vehicle_cells[vid]) for vid in sorted(view.idle_ids)]
        orders, warnings = assign_vehicles(plan.u_rounded, eta,
                                           view.idle_cell_counts, idle_vehicles,
                                           self.zones)
        self.warnings = warnings
        return orders

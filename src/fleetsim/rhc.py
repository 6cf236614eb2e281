"""Model-based centralized dispatch: receding-horizon control over a zone LP.

Each invocation predicts zone-level supply dynamics over a short horizon,
solves a linear program for fractional zone-to-zone dispatch counts,
rounds the first slot's plan, and greedily maps dispatch units onto
concrete vehicles and fine-grid cells using the demand-supply mismatch.

The LP's supply dynamics keep the printed index conventions of the source
paper: demand in slot k+1 is served from supply standing at slot k,
dispatch moves decided in slot k land in slot k+1, and vehicles dropping
off during slot k join the idle pool at slot k+1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geo import RegionMap, aggregate_to_regions, haversine_arrays, mismatch
from .lp import LpProblem, LpSolution, SparseRows, highs_bindings, solve
from .neural import CheckpointError
from .sim import SLOT_MINUTES, DispatchOrder

log = logging.getLogger(__name__)

FALLBACK_SPEED_KMH = 25.0


# --- historical tables -----------------------------------------------------

def zone_centroid_distances(rm: RegionMap) -> np.ndarray:
    """Pairwise great-circle distances between zone centroids, meters."""
    centre_lats, centre_lons = rm.grid.center(*np.indices(rm.grid.shape))
    count = np.maximum(aggregate_to_regions(np.ones(rm.grid.shape), rm), 1)
    lats = aggregate_to_regions(centre_lats, rm) / count
    lons = aggregate_to_regions(centre_lons, rm) / count
    return np.array([haversine_arrays(lat, lon, lats, lons) for lat, lon in zip(lats, lons)])


def estimate_tables(origin_zone, dest_zone, dow_idx, hour_idx, minutes,
                    zone_count: int, centroid_dist_m: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Histogram trip records into (7, 24, M, M) travel-time and destination tables.

    Returns ``(minutes, prob)``, indexed ``[dow, hour, origin, dest]``.
    Trip times are arithmetic means of observed durations per
    (dow, hour, origin, dest); missing entries fall back to the
    ``centroid_dist_m`` distance at a conservative urban speed,
    ``FALLBACK_SPEED_KMH``.  Destination rows are row-stochastic and fall
    back to the origin's all-hours marginal, then to uniform.
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

    default = (np.asarray(centroid_dist_m) / 1000.0) / FALLBACK_SPEED_KMH * 60.0
    tau = np.where(counts > 0, time_sum / np.maximum(counts, 1.0),
                   np.broadcast_to(default, (7, 24, m, m)))

    marginal = counts.sum(axis=(0, 1))  # (m, m) over all hours
    uniform = np.full(m, 1.0 / m)
    marg_rows = np.where(marginal.sum(axis=1, keepdims=True) > 0,
                         marginal / np.maximum(marginal.sum(axis=1, keepdims=True), 1e-12),
                         uniform)
    row_sums = counts.sum(axis=-1, keepdims=True)
    prob = np.where(row_sums > 0, counts / np.maximum(row_sums, 1e-12), marg_rows)
    return tau, prob


def check_tables(path, minutes: np.ndarray, prob: np.ndarray) -> None:
    """Raise :class:`neural.CheckpointError`, naming ``path`` and the table, unless
    the finite ``(minutes, prob)`` tables read from the model file at ``path``
    are non-negative and each destination row of ``prob`` sums to 1 within 1e-9."""
    for name, table in (("minutes", minutes), ("prob", prob)):
        if (table < 0).any():
            raise CheckpointError(f"{path}: {name} must be non-negative")
    bad = np.abs(prob.sum(axis=-1) - 1.0) > 1e-9
    if bad.any():
        row = tuple(int(i) for i in np.argwhere(bad)[0])
        raise CheckpointError(f"{path}: prob row (dow, hour, origin) = {row} does not sum to 1")


# --- the receding-horizon linear program -----------------------------------

@dataclass
class RhcLpIndex:
    """Where each variable block of the assembled LP sits among its columns."""

    u: tuple[np.ndarray, np.ndarray, np.ndarray]  # (k, i, j) of dispatch columns 0, 1, ...
    x_cols: np.ndarray  # (T, M): [k - 1, i] -> column of x[k, i], k = 1..T
    s_cols: np.ndarray  # (T + 1, M)
    m_cols: np.ndarray  # (T, M)
    l_cols: np.ndarray  # (T, M)


def build_rhc_lp(x0: np.ndarray, sched: np.ndarray, wbar: np.ndarray,
                 tau_slots, p_slots, reject_penalty: float, discount: float,
                 slot_minutes: float) -> tuple[LpProblem, RhcLpIndex]:
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
    x, s, mc, lc = (b.ravel() for b in (x_cols, s_cols, m_cols, l_cols))

    budget = np.unique(uk * m + ui)  # flat k * M + i of each budget row
    later = np.flatnonzero(budget >= m)
    nb, ns = budget.size, rs.size
    a_ub = SparseRows.from_triplets((nb + ns + r.size, n), [
        # budgets: sum_j u[k, i, j] - x[k, i] <= x0[i] or 0
        (np.searchsorted(budget, uk * m + ui), np.arange(nu), 1.0),
        (later, x[budget[later] - m], -1.0),
        # shortages: -s[k, i] - x[k, i] <= -wbar[k, i]
        (nb + rs, s, -1.0),
        (nb + rs[m:], x, -1.0),
        # caps: m[k, i] <= wbar[k + 1, i]
        (nb + ns + r, mc, 1.0),
    ])
    a_eq = None
    if horizon:
        now = np.flatnonzero(uk < horizon)
        # served trips j -> i of slot kp land in slot kp + lag
        kp, j, i = np.nonzero(p > 0)
        lag = np.floor(tau[kp, j, i] / slot_minutes).astype(int)
        lands = (lag >= 0) & (kp + lag < horizon)
        kp, j, i, k = kp[lands], j[lands], i[lands], kp[lands] + lag[lands]
        dyn = r.size
        a_eq = SparseRows.from_triplets((2 * r.size, n), [
            # splits: m[k, i] + L[k, i] - x[k, i] == x0[i] or 0
            (r, mc, 1.0), (r, lc, 1.0), (r[m:], x_cols[:-1].ravel(), -1.0),
            # dynamics: x[k + 1, i] - L[k, i] + out - in - arrivals == sched[k, i]
            (dyn + r, x, 1.0), (dyn + r, lc, -1.0),
            (dyn + uk[now] * m + ui[now], now, 1.0),
            (dyn + uk[now] * m + uj[now], now, -1.0),
            (dyn + k * m + i, m_cols[kp, j], -p[kp, j, i]),
        ])

    g = np.array([discount ** k for k in range(horizon + 1)])
    c = np.zeros(n)
    # subtracted from +0.0, so a zero penalty or trip time stays +0.0
    c[s_cols] -= g[:, None] * reject_penalty
    c[:nu] -= g[uk] * tau[u]

    problem = LpProblem(
        c=c,
        a_ub=a_ub,
        # -(wbar - x0), not x0 - wbar: an equal pair gives -0.0, as it always has
        b_ub=np.concatenate([np.where(budget < m, x0[budget % m], 0.0),
                             -(wbar[0] - x0), -wbar[1:].ravel(), wbar[1:].ravel()]),
        a_eq=a_eq,
        b_eq=np.concatenate([np.where(r < m, x0[r % m], 0.0), sched.ravel()])
        if horizon else None,
    )
    return problem, RhcLpIndex(u, x_cols, s_cols, m_cols, l_cols)


@dataclass
class RhcPlan:
    """LP outcome for the executed slot plus diagnostics."""

    u_star: np.ndarray        # (M, M) fractional dispatch counts, slot 0
    u_rounded: np.ndarray     # (M, M) integer plan, largest-remainder rounding
    objective: float
    status: str
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


def solve_rhc(x0, sched, wbar, tau_slots, p_slots, reject_penalty: float,
              discount: float, slot_minutes: float) -> RhcPlan:
    """Build and solve the horizon LP, returning the executed-slot plan."""
    problem, index = build_rhc_lp(x0, sched, wbar, tau_slots, p_slots,
                                  reject_penalty, discount, slot_minutes)
    sol: LpSolution = solve(problem)
    m = index.s_cols.shape[1]
    u0 = np.zeros((m, m))
    if sol.status != "optimal":
        log.warning("RHC LP not optimal (%s); dispatching nothing", sol.status)
        return RhcPlan(u0, np.zeros((m, m), dtype=np.int64), float("nan"), sol.status,
                       np.zeros(index.x_cols.shape))
    k, i, j = index.u
    first = k == 0
    u0[i[first], j[first]] = sol.x[:k.size][first]
    plan = RhcPlan(u0, round_plan(u0), sol.objective, sol.status, sol.x[index.x_cols])
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


# --- vehicle assignment by location-level mismatch -------------------------

def assign_vehicles(u_rounded: np.ndarray, surplus: np.ndarray,
                    idle_vehicles: list[tuple[int, tuple[int, int]]],
                    zone_cells: tuple[tuple[tuple[int, int], ...], ...]
                    ) -> tuple[list[DispatchOrder], list[str]]:
    """Map integer zone dispatch counts onto concrete vehicles and cells.

    ``surplus`` is the per-cell :func:`geo.mismatch`, the paper's eta:
    idle supply share minus demand share, not a travel time.  For each
    dispatch unit from zone i to zone j, in row-major order of (i, j),
    the source is the highest-surplus cell of zone i that still holds an
    idle vehicle, and the target is the lowest-surplus cell of zone j.
    The map moves by one over the idle vehicle count after every
    assignment.  Ties break to the first cell in the zone's row-major
    cell order (``max`` and ``min`` keep the first of equal keys, as
    :meth:`dqn.DqnPolicy.dispatch` does), then to the lowest vehicle id.

    ``idle_vehicles`` lists each idle vehicle as (vehicle_id, (row, col)), and
    ``zone_cells[i]`` holds zone ``i``'s cells in row-major order, as
    :attr:`geo.RegionMap.cells` does.
    Returns (orders, warnings); a shortage of idle vehicles truncates the
    plan with a warning rather than failing.
    """
    surplus = np.asarray(surplus, dtype=np.float64).copy()
    share = 1.0 / len(idle_vehicles) if idle_vehicles else 0.0

    by_cell: dict[tuple[int, int], list[int]] = {}
    for vid, cell in idle_vehicles:
        by_cell.setdefault(tuple(cell), []).append(vid)
    for vids in by_cell.values():
        vids.sort(reverse=True)  # pop() yields the lowest id

    orders: list[DispatchOrder] = []
    warnings: list[str] = []
    src_zones, dst_zones = np.nonzero(u_rounded > 0)
    for i, j in zip(src_zones.tolist(), dst_zones.tolist()):
        for _ in range(int(u_rounded[i, j])):
            src = max((cell for cell in zone_cells[i] if by_cell.get(cell)),
                      key=surplus.__getitem__, default=None)
            if src is None:
                msg = f"zone {i}: no idle vehicle left for dispatch to zone {j}"
                warnings.append(msg)
                log.warning("%s", msg)
                continue
            dst = min(zone_cells[j], key=surplus.__getitem__)
            orders.append(DispatchOrder(by_cell[src].pop(), dst))
            surplus[src] -= share
            surplus[dst] += share
    return orders, warnings


# --- the policy object wired into the simulator -----------------------------

class RhcPolicy:
    """Receding-horizon dispatch policy bound to tables and a zone partition.

    Invoked once per slot: predicts zone demand from the demand model,
    assembles the horizon LP from the simulator's supply snapshot, and
    turns the executed slot's rounded plan into per-vehicle orders via
    the location-level mismatch.
    """

    def __init__(self, zones: RegionMap, trip_times: np.ndarray,
                 destinations: np.ndarray, demand_predictor, future_demand,
                 reject_penalty: float, discount: float, slot_minutes: float,
                 horizon: int):
        self.zones = zones
        self.trip_times = trip_times        # (7, 24, M, M) minutes, see estimate_tables
        self.destinations = destinations    # (7, 24, M, M) probabilities
        self.demand_predictor = demand_predictor  # callable(view) -> fine heat
        # (7, 24, rows, cols) demand history for slots beyond the model's
        # window, so the horizon can anticipate surges instead of
        # persisting the current level; see demand.historical_average
        self.future_demand = future_demand
        self.reject_penalty = reject_penalty
        self.discount = discount
        self.slot_minutes = slot_minutes
        self.horizon = horizon
        self.cycle = int(slot_minutes)
        self.last_plan: RhcPlan | None = None
        highs_bindings()  # import the solver now, not inside the first plan

    def dispatch(self, view) -> list[DispatchOrder]:
        m = self.zones.region_count
        horizon = self.horizon

        zone = self.zones.assignment[view.next_cells[:, 0], view.next_cells[:, 1]]
        standing = view.next_minutes <= 0.0
        x0 = np.bincount(zone[standing], minlength=m).astype(np.float64)
        k = (view.next_minutes // self.slot_minutes).astype(np.int64)
        soon = ~standing & (k < horizon)
        sched = np.zeros((horizon, m))
        np.add.at(sched, (k[soon], zone[soon]), 1.0)

        # the (dow, hour) table index of each slot's clock
        clocks = [view.clock.plus(k * self.slot_minutes) for k in range(horizon + 1)]
        dow, hour = [c.dow_index for c in clocks], [c.hour_index for c in clocks]

        heat = self.demand_predictor(view)
        # the demand model predicts one SLOT_MINUTES window ahead
        scale = self.slot_minutes / SLOT_MINUTES
        near = aggregate_to_regions(heat, self.zones) * scale
        n_near = max(1, int(SLOT_MINUTES // self.slot_minutes))
        wbar = np.tile(near, (horizon + 1, 1))
        for k in range(n_near, horizon + 1):
            future = self.future_demand[dow[k], hour[k]]
            wbar[k] = aggregate_to_regions(future, self.zones) * scale

        plan = solve_rhc(x0, sched, wbar, self.trip_times[dow, hour],
                         self.destinations[dow, hour],
                         self.reject_penalty, self.discount, self.slot_minutes)
        self.last_plan = plan
        if plan.status != "optimal":
            return []

        surplus = mismatch(view.idle_cell_counts, view.trailing_heat)
        idle = view.idle_ids
        idle_vehicles = list(zip(idle.tolist(), map(tuple, view.cells[idle].tolist())))
        orders, _ = assign_vehicles(plan.u_rounded, surplus, idle_vehicles,
                                     self.zones.cells)
        return orders

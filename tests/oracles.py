"""Independent brute-force oracles shared by the test modules.

These stay deliberately naive: enumeration and elementary linear algebra
only, none of the code paths they are used to check.  Some restate, as a
second statement, a rule the program states once: ``eta_feature_row``
builds one trip's ETA features in scalar code, as ``eta.eta_features``
does for k trips; ``legal_action_mask`` and ``explore_action_reference``
state the DQN's legal moves as a boolean 15x15 mask, where the program
reads the ``dqn._legal_rect`` rectangle; ``assign_vehicles_reference``
is ``rhc.assign_vehicles`` with its zone-cell picks as hand-written
argmax and argmin loops; ``contains_reference`` and ``region_cells``
state the grid's bounds test as a chained scalar comparison and a
region's cells as a walk over the assignment, where the program reads
``GridSpec.contains`` and ``RegionMap.cells``; and ``episode_requests_reference``,
``eta_training_arrays_reference``, ``zone_trip_arrays_reference``,
``demand_slot_series_reference`` and ``fleet_window_count_reference``
build the set-up's arrays one request at a time from
``sim.RideRequest`` rows, as the harness did before it read the
``sim.Trips`` columns; ``rhc_zone_demand_reference`` builds RHC's zone
demand from the two sources it read before ``RhcPolicy.zone_demand``.
A few helpers that only the tests call live
here too: ``predict_supply``, ``avg_pool`` (built from the library's
pooling pieces), ``masked_q``, ``render_config``, ``lp_from_dense`` and
``fake_demand``.

``CFG`` holds the program's settings: a test that needs a value the program
takes from its config reads it there, so a change to a config default
reaches the tests.
"""

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass, fields, replace
from itertools import chain, combinations

import numpy as np

from fleetsim.clock import Clock, periodic_features
from fleetsim import demand as demand_mod
from fleetsim import neural
from fleetsim.dqn import (ACTION_RADIUS, ACTION_SIZE, AUX_PLANES, MAIN_PLANES, Q_SPEC,
                          STAY_CELL, SUPPLY_HORIZONS, DqnPolicy, QInput, Transition,
                          VehicleContext, _Pending, action_offset, greedy_action, reward_dqn)
from fleetsim.eta import ETA_SPEC, eta_features
from fleetsim.geo import (_BOUNDARY_SNAP, GridSpec, Location, OutOfBoundsError,
                          RegionMap, aggregate_to_regions, cell_arrays, center_of, haversine,
                          haversine_arrays, mismatch)
from fleetsim.harness import experiment as ex
from fleetsim.harness.config import ExperimentConfig
from fleetsim.harness.synth import (_HOTSPOTS, SLOT_MINUTES, SynthCity,
                                    _activity_level, _dest_weights,
                                    _slot_rates, _speed_kmh)
from fleetsim.lp import LpProblem, SparseRows
from fleetsim.roadgraph import Path, RoadGraph
from fleetsim.sim import SLOT_MINUTES as HEAT_SLOT_MINUTES
from fleetsim.sim import (DISPATCHING, IDLE, OCCUPIED, STATUS_NAMES, TO_PICKUP, DispatchOrder,
                          EpisodeMetrics, RideRequest, SimView, log)

CFG = ExperimentConfig(seed=0)


def sim_settings(**overrides) -> dict:
    """The settings ``experiment.make_simulation`` passes a ``Simulation`` from
    ``CFG``, with ``overrides``."""
    return {"warmup": CFG.warmup_minutes, "match_radius_m": CFG.match_radius_m,
            "idle_window": CFG.idle_window_minutes, **overrides}


def rhc_settings(**overrides) -> dict:
    """The settings ``experiment.make_policy`` passes an ``RhcPolicy`` from ``CFG``,
    with ``overrides``."""
    return {"reject_penalty": CFG.rhc_reject_penalty, "discount": CFG.rhc_discount,
            "slot_minutes": CFG.rhc_slot_minutes, "horizon": CFG.rhc_horizon, **overrides}


def lp_from_dense(c, a_ub, b_ub, a_eq=None, b_eq=None) -> LpProblem:
    """The ``LpProblem`` of 2-D dense blocks; an empty block reads as having no rows.

    Exact zeros of either sign are dropped and NaNs kept, so that a
    non-finite entry raises ``ValueError`` as in a sparse block.
    """
    n = np.atleast_1d(np.asarray(c)).size
    return LpProblem(c, dense_rows(a_ub, n), b_ub,
                     None if a_eq is None else dense_rows(a_eq, n), b_eq)


def dense_rows(a, n_cols: int) -> SparseRows:
    """The ``SparseRows`` of the dense block ``a`` with ``n_cols`` columns."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        a = a.reshape(0, n_cols)
    if a.ndim != 2:
        raise ValueError(f"a dense block must be 2-D, got shape {a.shape}")
    rows, cols = np.nonzero(a != 0.0)
    return SparseRows.from_triplets(a.shape, [(rows, cols, a[rows, cols])])


def eta_feature_row(origin, dest, clock, distance_km) -> tuple:
    """One trip's nine ETA features, scalar: the clock's weekday and hour trig
    pairs, the endpoint coordinates and the distance in km."""
    sd, cd, sh, ch = periodic_features(clock)
    return (sd, cd, sh, ch, origin.lat, origin.lon, dest.lat, dest.lon, float(distance_km))


def eta_one_row(eta_model, origin, dest, clock, distance_km) -> float:
    """Minutes of one trip: the model's ``predict`` on a one-row batch."""
    row = eta_feature_row(origin, dest, clock, distance_km)
    return float(eta_model.predict(np.array([row]))[0])


def eta_single_row_reference(model, features) -> float:
    """Minutes of one ``(9,)`` feature row by the single-row formula: the
    network on the z-scored row alone, clamped with Python's ``max``."""
    z = (np.asarray(features, dtype=np.float64) - model.mean) / model.std
    raw = neural.forward(ETA_SPEC, model.params, z[None])[0]
    return float(max(0.0, raw[0] * model.y_std + model.y_mean))


def vertex_enumeration_optimum(c, a_ub, b_ub):
    """Best objective of max c.x s.t. a_ub x <= b_ub, x >= 0 over all vertices.

    Enumerates every choice of n active constraints among the inequality
    rows and the sign constraints, solves the square system and keeps the
    best feasible point.  Returns (objective, x) or (None, None) when no
    feasible vertex exists.  Only sensible for bounded feasible problems.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    n = c.size
    rows = np.vstack([a, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best_obj, best_x = None, None
    for combo in combinations(range(rows.shape[0]), n):
        m = rows[list(combo)]
        r = rhs[list(combo)]
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        x = np.linalg.solve(m, r)
        if (x >= -1e-8).all() and (a @ x <= b + 1e-8).all():
            obj = float(c @ x)
            if best_obj is None or obj > best_obj:
                best_obj, best_x = obj, x
    return best_obj, best_x


def event_supply_oracle(x0, sched, wbar, tau_slots, dest_idx, u_slots, dt):
    """Micro-simulation of individual vehicles for the supply recursion.

    Integer pools only; destinations are one-hot (``dest_idx[k][j]`` is
    the region where slot-k serving trips from region j drop off).
    Serving draws min(demand, pool) per region; dispatches draw from the
    post-serving leftover and land next slot; a trip started in slot k
    with travel time tau rejoins the pool at slot k + floor(tau/dt) + 1.
    Returns x for slots 1..T.
    """
    m = len(x0)
    horizon = len(wbar) - 1
    idle = np.array(x0, dtype=np.int64).copy()
    future = defaultdict(int)
    for k in range(horizon):
        for i in range(m):
            if sched[k][i]:
                future[(k + 1, i)] += int(sched[k][i])
    xs = []
    for k in range(horizon):
        serving = np.minimum(np.asarray(wbar[k + 1], dtype=np.int64), idle)
        out = (np.asarray(u_slots[k]).sum(axis=1).astype(np.int64)
               if u_slots is not None else np.zeros(m, dtype=np.int64))
        idle = idle - serving - out
        assert (idle >= 0).all(), "oracle scenario overdraws the pool"
        for j in range(m):
            if serving[j]:
                i = int(dest_idx[k][j])
                lag = int(np.asarray(tau_slots[k])[j, i] // dt)
                future[(k + 1 + lag, i)] += int(serving[j])
        if u_slots is not None:
            u = np.asarray(u_slots[k], dtype=np.int64)
            for i in range(m):
                for j in range(m):
                    if u[i, j]:
                        future[(k + 1, j)] += int(u[i, j])
        arrivals = np.array([future.pop((k + 1, r), 0) for r in range(m)])
        idle = idle + arrivals
        xs.append(idle.copy())
    return np.array(xs, dtype=np.float64)


def predict_supply(x0: np.ndarray, sched: np.ndarray, wbar: np.ndarray,
                   tau_slots, p_slots, u_slots, slot_minutes: float) -> np.ndarray:
    """Roll the supply recursion forward for slots 1..T with fixed dispatches.

    The recursion behind ``rhc.build_rhc_lp``'s dynamics rows, with each
    slot's served trips fixed at ``min(demand, supply)`` where the LP
    chooses the split itself.

    ``x0`` is the standing idle count, ``sched[k]`` the occupied-now
    vehicles dropping off during relative slot k, ``wbar[k]`` predicted
    demand, ``tau_slots[k]``/``p_slots[k]`` the per-slot travel-time and
    destination matrices, and ``u_slots[k]`` a fixed dispatch matrix per
    slot, or ``u_slots`` None for none.  Returns an array of shape (T, M).
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


def random_supply_scenario(rng, dt=15.0):
    """Random small scenario with slot-aligned travel times and feasible u.

    Dispatch draws are kept within the post-serving leftover so the fluid
    recursion and the vehicle-level oracle describe the same physical
    process.  Returns kwargs for the supply predictor plus the one-hot
    destination index table the oracle uses.
    """
    m = int(rng.integers(2, 5))
    horizon = int(rng.integers(1, 5))
    x0 = rng.integers(0, 6, size=m)
    wbar = rng.integers(0, 5, size=(horizon + 1, m))
    sched = rng.integers(0, 3, size=(horizon, m))
    tau_slots = []
    dest_idx = []
    p_slots = []
    for _ in range(horizon + 1):
        tau = dt * rng.integers(0, horizon + 1, size=(m, m)).astype(float)
        np.fill_diagonal(tau, 0.0)
        tau_slots.append(tau)
        dest = rng.integers(0, m, size=m)
        dest_idx.append(dest)
        p = np.zeros((m, m))
        p[np.arange(m), dest] = 1.0
        p_slots.append(p)

    # draw u sequentially against the oracle's own pool bookkeeping
    u_slots = [np.zeros((m, m), dtype=np.int64) for _ in range(horizon + 1)]
    idle = np.array(x0, dtype=np.int64).copy()
    future = defaultdict(int)
    for k in range(horizon):
        for i in range(m):
            if sched[k][i]:
                future[(k + 1, i)] += int(sched[k][i])
    for k in range(horizon):
        serving = np.minimum(wbar[k + 1], idle)
        leftover = idle - serving
        for i in range(m):
            budget = int(leftover[i])
            for j in rng.permutation(m):
                if budget == 0:
                    break
                if j == i:
                    continue
                take = int(rng.integers(0, budget + 1))
                u_slots[k][i, j] = take
                budget -= take
        idle = leftover - u_slots[k].sum(axis=1)
        for j in range(m):
            if serving[j]:
                i = int(dest_idx[k][j])
                lag = int(tau_slots[k][j, i] // dt)
                future[(k + 1 + lag, i)] += int(serving[j])
        for i in range(m):
            for j in range(m):
                if u_slots[k][i, j]:
                    future[(k + 1, j)] += int(u_slots[k][i, j])
        idle = idle + np.array([future.pop((k + 1, r), 0) for r in range(m)])
    return {
        "x0": x0.astype(float),
        "sched": sched.astype(float),
        "wbar": wbar.astype(float),
        "tau_slots": tau_slots,
        "p_slots": p_slots,
        "u_slots": [u.astype(float) for u in u_slots],
        "dest_idx": dest_idx,
        "dt": dt,
    }


def random_bounded_lp(rng, max_vars=6, max_rows=6):
    """Random feasible, bounded LP instance for oracle comparisons.

    Feasible because b >= 0 keeps the origin feasible; bounded because a
    sum(x) <= cap row is always appended.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows))
    a = rng.uniform(-1.0, 2.0, size=(m, n))
    b = rng.uniform(0.0, 5.0, size=m)
    cap = np.ones((1, n))
    a = np.vstack([a, cap])
    b = np.concatenate([b, [float(rng.uniform(1.0, 10.0))]])
    c = rng.uniform(-2.0, 3.0, size=n)
    return c, a, b


# linprog status codes; 1 and 4 are the solver giving up, not a verdict
_LINPROG_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible", 3: "unbounded",
                   4: "numerical_difficulties"}


def dense(block):
    """The dense ``(rows, n_cols)`` array of an ``lp.SparseRows`` block."""
    out = np.zeros(block.shape)
    for r in range(block.shape[0]):
        cols = slice(block.start[r], block.start[r + 1])
        out[r, block.index[cols]] = block.value[cols]
    return out


def rowwise_reference(blocks, n):
    """Row starts, column indices and values of the nonzeros of the stacked dense blocks.

    The lists that ``lp.solve`` passed to HiGHS when programs held dense
    blocks: each block's ``a != 0.0`` mask is scanned row-major, so zeros
    of either sign are dropped.
    """
    start, index, value = [0], [], []
    for a in blocks:
        for row in np.asarray(a, dtype=np.float64).reshape(-1, n):
            cols = np.flatnonzero(row != 0.0)
            index += cols.tolist()
            value += row[cols].tolist()
            start.append(len(index))
    return start, index, value


def linprog_solve_reference(problem):
    """``lp.solve`` as a ``scipy.optimize.linprog(method="highs")`` adapter,
    given the program's blocks as dense arrays."""
    from scipy.optimize import linprog

    from fleetsim.lp import LpSolution

    a_eq = None if problem.a_eq is None else dense(problem.a_eq)
    res = linprog(-problem.c, A_ub=dense(problem.a_ub), b_ub=problem.b_ub,
                  A_eq=a_eq, b_eq=problem.b_eq, bounds=(0, None), method="highs")
    status = _LINPROG_STATUS.get(res.status, f"linprog_status_{res.status}")
    if status != "optimal":
        return LpSolution(status, None, None)
    x = res.x + 0.0  # HiGHS can return -0.0, which prints as a negative value
    return LpSolution(status, x, float(problem.c @ x))


def random_sparse_lp(rng, max_vars=12, max_rows=10):
    """Random sparse LP that may be infeasible or unbounded: ``(c, a_ub, b_ub, a_eq, b_eq)``.

    Rows may be all zero, right-hand sides negative and costs of either
    sign; a third of the draws add equality rows, and about half append a
    ``sum(x) <= cap`` row that bounds the program.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    density = float(rng.uniform(0.1, 0.6))
    a = np.where(rng.random((m, n)) < density, rng.integers(-3, 4, (m, n)), 0).astype(float)
    b = np.where(rng.random(m) < 0.7, rng.integers(-2, 6, m), 0).astype(float)
    if rng.random() < 0.5:
        a = np.vstack([a, np.ones((1, n))])
        b = np.concatenate([b, [float(rng.integers(0, 8))]])
    c = rng.integers(-3, 4, n).astype(float)
    if rng.random() < 1 / 3:
        k = int(rng.integers(1, 4))
        a_eq = np.where(rng.random((k, n)) < density, rng.uniform(-1, 2, (k, n)), 0.0)
        return c, a, b, a_eq, rng.uniform(0.0, 3.0, k)
    return c, a, b, None, None


def crop_pad_center(plane, center, out_h, out_w):
    """Crop an ``out_h x out_w`` window centered at ``center``, zero-padding outside.

    Operates on the trailing two axes.  Output dims must be odd so the
    center is well defined; the output's middle element equals
    ``plane[center]``.
    """
    if out_h % 2 == 0 or out_w % 2 == 0:
        raise ValueError(f"output dims must be odd, got {out_h}x{out_w}")
    x = np.asarray(plane, dtype=np.float64)
    h, w = x.shape[-2], x.shape[-1]
    cr, cc = center
    mr, mc = out_h // 2, out_w // 2
    out = np.zeros(x.shape[:-2] + (out_h, out_w))
    sr0, sr1 = max(0, cr - mr), min(h, cr + mr + 1)
    sc0, sc1 = max(0, cc - mc), min(w, cc + mc + 1)
    if sr0 < sr1 and sc0 < sc1:
        dr0 = sr0 - (cr - mr)
        dc0 = sc0 - (cc - mc)
        out[..., dr0:dr0 + (sr1 - sr0), dc0:dc0 + (sc1 - sc0)] = x[..., sr0:sr1, sc0:sc1]
    return out


def q_main_planes_51(demand, supply, idle, region):
    """The Q-network's (23, 23, 15) main planes from a vehicle-centred 51x51 window.

    Each of the five source maps is embedded, zero-padded, in a 51x51
    window centred on ``region``; the planes are its 23x23 centre crop,
    then the 23x23 centre crops of its 15x15 and of its 30x30 stride-1
    mean pools.  The 30-pool window at crop offset +11 reaches offset +26,
    outside the 51x51 window, so for region grids wider than 26 cells this
    reference drops the last row and column of that window.
    """
    rows, cols = demand.shape
    sources = np.empty((5, rows, cols))
    sources[0] = demand
    sources[1:4] = supply
    sources[4] = idle
    big = crop_pad_center(sources, region, 51, 51)
    main = np.empty((15, 23, 23))
    main[0:5] = crop_pad_center(big, (25, 25), 23, 23)
    main[5:10] = crop_pad_center(avg_pool(big, 15), (25, 25), 23, 23)
    main[10:15] = crop_pad_center(avg_pool(big, 30), (25, 25), 23, 23)
    return main.transpose(1, 2, 0)


def zone_centroid_distances_reference(rm):
    """Pairwise zone-centroid distances, meters, summing cell centres one by one."""
    grid = rm.grid
    m = rm.region_count
    lat_sum = np.zeros(m)
    lon_sum = np.zeros(m)
    count = np.zeros(m)
    for r in range(grid.rows):
        for c in range(grid.cols):
            z = rm.assignment[r, c]
            loc = center_of((r, c), grid)
            lat_sum[z] += loc.lat
            lon_sum[z] += loc.lon
            count[z] += 1
    lats = lat_sum / np.maximum(count, 1)
    lons = lon_sum / np.maximum(count, 1)
    out = np.zeros((m, m))
    for i in range(m):
        out[i] = haversine_arrays(lats[i], lons[i], lats, lons)
    return out


def seeded_rhc_lp_inputs(seed: int, slot_minutes: float) -> dict:
    """``build_rhc_lp`` keyword arguments of a small program drawn from ``seed``.

    Up to 6 zones and a horizon of 0 to 4 slots; trip times sit on, just
    past and well past slot boundaries, and the penalty may be zero.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    horizon = int(rng.integers(0, 5))
    minutes = slot_minutes * np.array([0.0, 1.0, 0.5, 1.01, 2.0, 3.3])
    return dict(
        x0=rng.integers(0, 4, m).astype(float),
        sched=rng.integers(0, 3, (horizon, m)).astype(float),
        wbar=rng.integers(0, 4, (horizon + 1, m)).astype(float),
        tau_slots=[rng.choice(minutes, (m, m)) for _ in range(horizon + 1)],
        p_slots=[rng.choice([0.0, 0.25, 0.5, 1.0], (m, m)) for _ in range(horizon + 1)],
        reject_penalty=float(rng.choice([0.0, 20.0])),
        discount=float(rng.choice([0.99, 1.0])),
        slot_minutes=slot_minutes,
    )


def rhc_lp_reference(x0: np.ndarray, sched: np.ndarray, wbar: np.ndarray,
                     tau_slots, p_slots, reject_penalty: float, discount: float,
                     slot_minutes: float):
    """The horizon dispatch LP of ``rhc.build_rhc_lp``, one coefficient at a time.

    Registers every column in a dict keyed by ``(k, i, j)`` or ``(k, i)``
    and adds the rows one by one, in the order the library builds them
    in blocks; returns the ``LpProblem`` that :func:`lp_from_dense` makes
    of the dense rows.

    Decision variables are zone-to-zone dispatch counts per slot
    (restricted to pairs reachable within one slot), future supply
    levels, shortage epigraph variables, and a served/leftover split of
    each slot's standing supply.  Served mass redistributes through the
    destination distribution with the travel-time lag; shortages are
    penalized at ``reject_penalty`` per predicted unserved request.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    wbar = np.asarray(wbar, dtype=np.float64)
    sched = np.asarray(sched, dtype=np.float64)
    m = x0.shape[0]
    horizon = wbar.shape[0] - 1
    if sched.shape != (max(horizon, 0), m) and horizon > 0:
        raise ValueError(f"sched shape {sched.shape} != ({horizon}, {m})")

    u_cols: dict = {}
    x_cols: dict = {}
    s_cols: dict = {}
    m_cols: dict = {}
    l_cols: dict = {}
    col = 0
    for k in range(horizon + 1):
        tau = np.asarray(tau_slots[k])
        for i in range(m):
            for j in range(m):
                if i != j and tau[i, j] <= slot_minutes:
                    u_cols[(k, i, j)] = col
                    col += 1
    for k in range(1, horizon + 1):
        for i in range(m):
            x_cols[(k, i)] = col
            col += 1
    for k in range(horizon + 1):
        for i in range(m):
            s_cols[(k, i)] = col
            col += 1
    for k in range(horizon):
        for i in range(m):
            m_cols[(k, i)] = col
            col += 1
    for k in range(horizon):
        for i in range(m):
            l_cols[(k, i)] = col
            col += 1
    n = col

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []

    def add_row(coeffs: dict[int, float], bound: float) -> None:
        row = np.zeros(n)
        for c, v in coeffs.items():
            row[c] += v
        rows.append(row)
        rhs.append(bound)

    def add_eq(coeffs: dict[int, float], bound: float) -> None:
        row = np.zeros(n)
        for c, v in coeffs.items():
            row[c] += v
        eq_rows.append(row)
        eq_rhs.append(bound)

    # dispatch budgets: sum_j u[k,i,j] <= x[k,i]
    for k in range(horizon + 1):
        for i in range(m):
            coeffs = {u_cols[(k, i, j)]: 1.0 for j in range(m) if (k, i, j) in u_cols}
            if not coeffs:
                continue
            if k == 0:
                add_row(coeffs, float(x0[i]))
            else:
                coeffs[x_cols[(k, i)]] = -1.0
                add_row(coeffs, 0.0)

    # shortage epigraph: s[k,i] >= wbar[k,i] - x[k,i]
    for k in range(horizon + 1):
        for i in range(m):
            if k == 0:
                add_row({s_cols[(k, i)]: -1.0}, -(float(wbar[0, i] - x0[i])))
            else:
                add_row({s_cols[(k, i)]: -1.0, x_cols[(k, i)]: -1.0}, -float(wbar[k, i]))

    # served/leftover split of standing supply: m + L = x, m <= next demand
    for k in range(horizon):
        for i in range(m):
            coeffs = {m_cols[(k, i)]: 1.0, l_cols[(k, i)]: 1.0}
            if k == 0:
                add_eq(coeffs, float(x0[i]))
            else:
                coeffs[x_cols[(k, i)]] = -1.0
                add_eq(coeffs, 0.0)
            add_row({m_cols[(k, i)]: 1.0}, float(wbar[k + 1, i]))

    # dynamics: x[k+1] = L[k] - out(u) + in(u) + sched[k] + lagged served arrivals
    for k in range(horizon):
        lags = [np.floor(np.asarray(tau_slots[kp]) / slot_minutes).astype(int)
                for kp in range(k + 1)]
        for i in range(m):
            coeffs: dict[int, float] = {x_cols[(k + 1, i)]: 1.0, l_cols[(k, i)]: -1.0}
            for j in range(m):
                if (k, i, j) in u_cols:
                    coeffs[u_cols[(k, i, j)]] = coeffs.get(u_cols[(k, i, j)], 0.0) + 1.0
                if (k, j, i) in u_cols:
                    coeffs[u_cols[(k, j, i)]] = coeffs.get(u_cols[(k, j, i)], 0.0) - 1.0
            for kp in range(k + 1):
                p = np.asarray(p_slots[kp])
                for j in range(m):
                    if lags[kp][j, i] == k - kp and p[j, i] > 0:
                        c = m_cols[(kp, j)]
                        coeffs[c] = coeffs.get(c, 0.0) - float(p[j, i])
            add_eq(coeffs, float(sched[k, i]))

    objective = np.zeros(n)
    for k in range(horizon + 1):
        g = discount ** k
        for i in range(m):
            objective[s_cols[(k, i)]] -= g * reject_penalty
        tau = np.asarray(tau_slots[k])
        for i in range(m):
            for j in range(m):
                if (k, i, j) in u_cols:
                    objective[u_cols[(k, i, j)]] -= g * float(tau[i, j])

    problem = lp_from_dense(
        c=objective,
        a_ub=np.asarray(rows) if rows else np.zeros((0, n)),
        b_ub=np.asarray(rhs),
        a_eq=np.asarray(eq_rows) if eq_rows else None,
        b_eq=np.asarray(eq_rhs) if eq_rows else None,
    )
    return problem


def dijkstra_length(origin, dest, graph):
    """Plain Dijkstra distance from ``origin`` to ``dest``; None if unreachable."""
    if origin == dest:
        return 0.0
    dist = {origin: 0.0}
    done = set()
    frontier = [(0.0, origin)]
    while frontier:
        g, node = heapq.heappop(frontier)
        if node in done:
            continue
        if node == dest:
            return g
        done.add(node)
        for nbr, length in graph.adjacency[node]:
            g2 = g + length
            if g2 < dist.get(nbr, np.inf):
                dist[nbr] = g2
                heapq.heappush(frontier, (g2, nbr))
    return None


def astar_reference(origin, dest, graph):
    """A* over node ids with the heuristic ``haversine(node, dest)``.

    The id-keyed search ``roadgraph.shortest_path`` replaced; it must return
    the same node tuple and the same ``total_length``, bit for bit.
    """
    if origin == dest:
        return Path(nodes=(), total_length=0.0)

    goal = graph.nodes[dest]

    def h(node: int) -> float:
        return haversine(graph.nodes[node], goal)

    dist: dict[int, float] = {origin: 0.0}
    parent: dict[int, int] = {}
    done: set[int] = set()
    frontier: list[tuple[float, float, int]] = [(h(origin), 0.0, origin)]
    while frontier:
        f, g, node = heapq.heappop(frontier)
        if node in done:
            continue
        if node == dest:
            seq = [node]
            while seq[-1] != origin:
                seq.append(parent[seq[-1]])
            seq.reverse()
            return Path(nodes=tuple(seq), total_length=g)
        done.add(node)
        for nbr, length in graph.adjacency[node]:
            if nbr in done:
                continue
            g2 = g + length
            if g2 < dist.get(nbr, np.inf):
                dist[nbr] = g2
                parent[nbr] = node
                heapq.heappush(frontier, (g2 + h(nbr), g2, nbr))
    return None


def contains_reference(grid, lat, lon) -> bool:
    """Whether one point is inside the grid's half-open bounds, as the chained
    scalar comparison that :meth:`fleetsim.geo.GridSpec.contains` replaced."""
    return grid.origin.lat <= lat < grid.lat_max and grid.origin.lon <= lon < grid.lon_max


def region_cells(rm):
    """Cells of each region id of ``rm``, in row-major order, by a walk over
    its assignment: the reference for :attr:`fleetsim.geo.RegionMap.cells`."""
    cells = {}
    rows, cols = rm.assignment.shape
    for r in range(rows):
        for c in range(cols):
            cells.setdefault(int(rm.assignment[r, c]), []).append((r, c))
    return cells


def cell_of(loc, grid):
    """The (row, col) cell of one location; out-of-bounds locations raise.

    The scalar reference for :func:`fleetsim.geo.cell_arrays`: floor of
    the snapped offset, so boundary points go to the higher-index cell.
    """
    if not contains_reference(grid, loc.lat, loc.lon):
        raise OutOfBoundsError(
            f"location ({loc.lat}, {loc.lon}) outside grid bounds "
            f"[{grid.origin.lat}, {grid.lat_max}) x [{grid.origin.lon}, {grid.lon_max})"
        )
    row = int(math.floor((loc.lat - grid.origin.lat) / grid.d_lat + _BOUNDARY_SNAP))
    col = int(math.floor((loc.lon - grid.origin.lon) / grid.d_lon + _BOUNDARY_SNAP))
    return (min(row, grid.rows - 1), min(col, grid.cols - 1))


def demand_slot_counts_reference(requests, grid, total_minutes):
    """The pickups of each heat-map slot of ``experiment.demand_slot_series``,
    counted one request at a time; pickups outside the series are dropped."""
    n_slots = int(total_minutes // HEAT_SLOT_MINUTES)
    slots = np.zeros((n_slots,) + grid.shape)
    for r in requests:
        k = int(r.minute // HEAT_SLOT_MINUTES)
        if 0 <= k < n_slots:
            row, col = cell_of(r.pickup, grid)
            slots[k, row, col] += 1
    return slots


def demand_slot_series_reference(requests, grid, total_minutes, epoch_dow):
    """``experiment.demand_slot_series`` on per-request lists of the pickups and
    their minutes."""
    n_slots = int(total_minutes // HEAT_SLOT_MINUTES)
    slots = np.zeros((n_slots,) + grid.shape)
    lats = np.array([r.pickup.lat for r in requests])
    lons = np.array([r.pickup.lon for r in requests])
    rows, cols = cell_arrays(lats, lons, grid)
    k = np.array([r.minute for r in requests]) // HEAT_SLOT_MINUTES
    inside = (0 <= k) & (k < n_slots)
    np.add.at(slots, (k[inside].astype(np.intp), rows[inside], cols[inside]), 1.0)
    clocks = [Clock(float(k * HEAT_SLOT_MINUTES), epoch_dow) for k in range(n_slots)]
    return slots, clocks


def episode_requests_reference(requests, start, end):
    """``experiment.episode_requests`` as a row comprehension: a copy of each
    request of minutes ``[start, end)`` with its minute counted from ``start``."""
    return [replace(r, minute=r.minute - start) for r in requests if start <= r.minute < end]


def eta_training_arrays_reference(requests, cfg):
    """``experiment.eta_training_arrays`` as one ``fromiter`` pass over the rows:
    each request's clock features, endpoints, km and trip minutes."""
    cols = np.fromiter(chain.from_iterable(
        (*periodic_features(Clock(r.minute, cfg.epoch_dow)), r.pickup.lat, r.pickup.lon,
         r.dropoff.lat, r.dropoff.lon, r.distance_km, r.trip_minutes) for r in requests),
        dtype=np.float64, count=10 * len(requests)).reshape(-1, 10)
    return eta_features(cols[:, :4], *cols[:, 4:9].T), cols[:, 9].copy()


def zone_trip_arrays_reference(requests, zones, epoch_dow):
    """``experiment.zone_trip_arrays`` on per-request lists of the endpoints, the
    clocks and the trip minutes."""
    lats_o = np.array([r.pickup.lat for r in requests])
    lons_o = np.array([r.pickup.lon for r in requests])
    lats_d = np.array([r.dropoff.lat for r in requests])
    lons_d = np.array([r.dropoff.lon for r in requests])
    ro, co = cell_arrays(lats_o, lons_o, zones.grid)
    rd, cd = cell_arrays(lats_d, lons_d, zones.grid)
    clocks = [Clock(r.minute, epoch_dow) for r in requests]
    return (zones.assignment[ro, co], zones.assignment[rd, cd],
            np.array([c.dow_index for c in clocks]), np.array([c.hour_index for c in clocks]),
            np.array([r.trip_minutes for r in requests]))


def fleet_window_count_reference(requests, start, end) -> int:
    """The requests of minutes ``[start, end)`` that ``experiment._check_fleet_windows``
    counts, one at a time."""
    return sum(start <= r.minute < end for r in requests)


def nearest_node_reference(loc, graph):
    """Id of the node minimizing haversine distance to ``loc``, one point per
    call; ids are indices, so the first minimum is the lowest id."""
    d = haversine_arrays(loc.lat, loc.lon, graph._lats, graph._lons)
    return int(np.argmin(d))


def legal_action_mask(region, grid_shape) -> np.ndarray:
    """True where the move lands inside the region grid (the center always does)."""
    r, c = region
    rows, cols = grid_shape
    dr = np.arange(ACTION_SIZE) - ACTION_RADIUS
    dc = np.arange(ACTION_SIZE) - ACTION_RADIUS
    ok_r = (r + dr >= 0) & (r + dr < rows)
    ok_c = (c + dc >= 0) & (c + dc < cols)
    return ok_r[:, None] & ok_c[None, :]


def explore_action_reference(legal, epsilon, rng):
    """With probability ``epsilon`` a uniform cell of the boolean mask ``legal``,
    else None: one ``random()``, then one ``integers`` over the mask's
    ``flatnonzero`` cells only when it explores."""
    if rng.random() >= epsilon:
        return None
    legal_flat = np.flatnonzero(legal)
    return divmod(int(legal_flat[rng.integers(legal_flat.size)]), ACTION_SIZE)


def assign_vehicles_reference(u_rounded, eta, idle_vehicles, zone_cells):
    """``rhc.assign_vehicles`` with its source and target picks as loops that keep
    the first strictly greater (argmax) and strictly smaller (argmin) cell."""
    eta = np.asarray(eta, dtype=np.float64).copy()
    share = 1.0 / len(idle_vehicles) if idle_vehicles else 0.0

    by_cell = {}
    for vid, cell in idle_vehicles:
        by_cell.setdefault(tuple(cell), []).append(vid)
    for vids in by_cell.values():
        vids.sort(reverse=True)  # pop() yields the lowest id

    orders = []
    warnings = []
    m = u_rounded.shape[0]
    for i in range(m):
        for j in range(m):
            for _ in range(int(u_rounded[i, j])):
                best_src = None
                best_val = -np.inf
                for cell in zone_cells.get(i, ()):
                    if by_cell.get(cell):
                        v = eta[cell]
                        if v > best_val:
                            best_val = v
                            best_src = cell
                if best_src is None:
                    msg = f"zone {i}: no idle vehicle left for dispatch to zone {j}"
                    warnings.append(msg)
                    continue
                best_dst = None
                best_dst_val = np.inf
                for cell in zone_cells.get(j, ()):
                    if eta[cell] < best_dst_val:
                        best_dst_val = eta[cell]
                        best_dst = cell
                vid = by_cell[best_src].pop()
                orders.append(DispatchOrder(vid, best_dst))
                eta[best_src] -= share
                eta[best_dst] += share
    return orders, warnings


def aux_planes_reference(ctx):
    """The Q-network's (15, 15, 11) aux planes, every plane built per call."""
    from fleetsim.dqn import _DIAGONAL_REACH

    rows, cols = ctx.demand.shape
    aux = np.zeros((ACTION_SIZE, ACTION_SIZE, AUX_PLANES))
    sin_dow, cos_dow, sin_hour, cos_hour = ctx.clock
    aux[..., 0] = sin_dow
    aux[..., 1] = cos_dow
    aux[..., 2] = sin_hour
    aux[..., 3] = cos_hour
    aux[ACTION_RADIUS, ACTION_RADIUS, 4] = 1.0
    r, c = ctx.region
    aux[..., 5] = r / (rows - 1) if rows > 1 else 0.0
    aux[..., 6] = c / (cols - 1) if cols > 1 else 0.0
    dr = np.arange(ACTION_SIZE) - ACTION_RADIUS
    dest_r = (r + dr[:, None]) / (rows - 1) if rows > 1 else np.zeros((ACTION_SIZE, 1))
    dest_c = (c + dr[None, :]) / (cols - 1) if cols > 1 else np.zeros((1, ACTION_SIZE))
    aux[..., 7] = np.clip(np.broadcast_to(dest_r, (ACTION_SIZE, ACTION_SIZE)), 0.0, 1.0)
    aux[..., 8] = np.clip(np.broadcast_to(dest_c, (ACTION_SIZE, ACTION_SIZE)), 0.0, 1.0)
    aux[..., 9] = np.sqrt(dr[:, None] ** 2 + dr[None, :] ** 2) / _DIAGONAL_REACH
    aux[..., 10] = legal_action_mask(ctx.region, (rows, cols)).astype(np.float64)
    return aux


@dataclass
class VehicleState:
    """One vehicle of :class:`ReferenceSimulation`, a mutable object per vehicle."""

    vid: int
    loc: Location
    status: int = IDLE
    dest: Location | None = None
    arrival_time: float | None = None
    depart_time: float | None = None
    path: tuple[Location, ...] = ()
    path_cumlen: np.ndarray | None = None  # meters from path[0] to each waypoint
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


def idle_set(fleet, t, window):
    """Ids of the dispatchable vehicles, one vehicle at a time."""
    out = []
    for v in fleet:
        if v.status not in (IDLE, DISPATCHING):
            continue
        if not v.ordered_since_dropoff or (t - v.last_ride_time) >= window:
            out.append(v.vid)
    return out


class ReferenceSimulation:
    """The simulator one vehicle, request and order at a time, on its own.

    The fleet is a list of mutable :class:`VehicleState` objects, and every
    phase loops over it.  Each request is mapped to its cell with the
    scalar :func:`cell_of`, scans the free fleet on its own and routes at
    once; each route looks up its two nearest nodes on its own, with paths
    from :func:`astar_reference` (never memoised) and every segment length
    from :func:`geo.haversine`.  Route positions keep ``path_cumlen`` as an
    array and find their segment with ``np.searchsorted``.  The view maps
    each vehicle's cell and next idle cell with :func:`cell_of` in one loop
    over the fleet, and only then stacks them into the view's arrays.
    Orders execute one by one.
    """

    def __init__(self, grid, graph, eta_model, requests, n_vehicles, policy=None,
                 clock0=None, *, warmup, match_radius_m, idle_window):
        self.grid = grid
        self.graph = graph
        self.eta_model = eta_model
        self.requests = sorted(requests, key=lambda r: (r.minute, r.rid))
        self.policy = policy
        self.clock0 = clock0 or Clock(0.0)
        self.warmup = warmup
        self.match_radius_m = match_radius_m
        self.idle_window = idle_window
        if len(self.requests) < n_vehicles:
            raise ValueError(f"need at least {n_vehicles} requests to place the fleet")
        self.fleet = [VehicleState(vid=k, loc=self.requests[k].pickup)
                      for k in range(n_vehicles)]
        self.metrics = EpisodeMetrics(occupied_minutes=np.zeros(n_vehicles))
        self.t = 0
        self._queue = deque(self.requests)
        self._heat_current = np.zeros(grid.shape)
        self._heat_slots = deque([np.zeros(grid.shape), np.zeros(grid.shape)], maxlen=2)
        self._trailing = deque(maxlen=HEAT_SLOT_MINUTES)
        self._trailing_heat = np.zeros(grid.shape)

    def position(self, v, t):
        if v.status == IDLE or v.arrival_time is None or not v.path:
            return v.loc
        span = v.arrival_time - v.depart_time
        frac = 1.0 if span <= 0 else min(1.0, max(0.0, (t - v.depart_time) / span))
        target = frac * v.path_cumlen[-1]
        i = int(np.searchsorted(v.path_cumlen, target))
        if i <= 0:
            return v.path[0]
        if i >= len(v.path):
            return v.path[-1]
        seg = v.path_cumlen[i] - v.path_cumlen[i - 1]
        w = 0.0 if seg <= 0 else (target - v.path_cumlen[i - 1]) / seg
        a, b = v.path[i - 1], v.path[i]
        return Location(a.lat + w * (b.lat - a.lat), a.lon + w * (b.lon - a.lon))

    def _set_route(self, v, points, depart, arrival, dest):
        v.path = points
        lens = [0.0]
        for a, b in zip(points[:-1], points[1:]):
            lens.append(lens[-1] + haversine(a, b))
        v.path_cumlen = np.asarray(lens)
        v.depart_time = depart
        v.arrival_time = arrival
        v.dest = dest

    def _route(self, origin, dest):
        o = nearest_node_reference(origin, self.graph)
        d = nearest_node_reference(dest, self.graph)
        path = astar_reference(o, d, self.graph)
        if not path.nodes:  # both ends share their nearest node
            dist = haversine(origin, dest)
            return (origin, dest), dist
        points = [origin] + [self.graph.nodes[n] for n in path.nodes] + [dest]
        dist = (haversine(origin, points[1]) + path.total_length
                + haversine(points[-2], dest))
        return tuple(points), dist

    def _eta(self, origin, dest, distance_m, t):
        return eta_one_row(self.eta_model, origin, dest, self.clock0.plus(t),
                           distance_m / 1000.0)

    def _stand(self, v, loc):
        v.loc = loc
        v.status = IDLE
        v.dest = None
        v.arrival_time = None
        v.path = ()

    def _complete_arrivals(self, t):
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
                elif v.status == TO_PICKUP:
                    v.loc = v.dest
                    v.pickups += 1
                    v.status = OCCUPIED
                    self._set_route(v, (v.loc, v.ride_dropoff), when,
                                    when + v.ride_trip_minutes, v.ride_dropoff)
                elif v.status == OCCUPIED:
                    self._stand(v, v.dest)
                    v.last_dropoff_time = when
                    v.ordered_since_dropoff = False
                    v.ride_id = -1

    def _match_requests(self, t, measured):
        while self._queue and self._queue[0].minute < t + 1.0:
            req = self._queue.popleft()
            cell = cell_of(req.pickup, self.grid)
            self._heat_current[cell] += 1
            self._minute_heat[cell] += 1

            candidates = [v for v in self.fleet if v.status in (IDLE, DISPATCHING)]
            assigned = None
            if candidates:
                pos = [self.position(v, t) for v in candidates]
                lats = np.array([p.lat for p in pos])
                lons = np.array([p.lon for p in pos])
                dists = haversine_arrays(lats, lons, req.pickup.lat, req.pickup.lon)
                order = np.lexsort((np.array([v.vid for v in candidates]), dists))
                best = order[0]
                if dists[best] <= self.match_radius_m:
                    assigned = candidates[best]
                    origin = pos[best]
            if assigned is None:
                if measured:
                    self.metrics.total_requests += 1
                    self.metrics.rejects += 1
                    hour = self.metrics.hour(int(t) // 60)
                    hour.total_requests += 1
                    hour.rejects += 1
                continue

            points, dist_m = self._route(origin, req.pickup)
            eta = self._eta(origin, req.pickup, dist_m, t)
            v = assigned
            v.status = TO_PICKUP
            v.last_ride_time = t
            v.ride_trip_minutes = req.trip_minutes
            v.ride_dropoff = req.dropoff
            v.ride_id = req.rid
            self._set_route(v, points, t, t + eta, req.pickup)
            if measured:
                self.metrics.total_requests += 1
                self.metrics.accepted += 1
                self.metrics.wait_sum += eta
                hour = self.metrics.hour(int(t) // 60)
                hour.total_requests += 1
                hour.accepted += 1
                hour.wait_sum += eta

    def build_view(self, t):
        idle_ids = idle_set(self.fleet, t, self.idle_window)
        dispatchable = set(idle_ids)
        vehicle_cells = {}
        idle_cells = np.zeros(self.grid.shape)
        supply_events = []
        for v in self.fleet:
            pos = self.position(v, t)
            cell = cell_of(pos, self.grid)
            vehicle_cells[v.vid] = cell
            if v.status == IDLE or (v.status == DISPATCHING and v.vid in dispatchable):
                supply_events.append((v.vid, cell, 0.0))
            elif v.status == DISPATCHING:
                dcell = cell_of(v.dest, self.grid)
                supply_events.append((v.vid, dcell, max(0.0, v.arrival_time - t)))
            elif v.status == TO_PICKUP:
                dropoff_t = v.arrival_time + v.ride_trip_minutes
                dcell = cell_of(v.ride_dropoff, self.grid)
                supply_events.append((v.vid, dcell, max(0.0, dropoff_t - t)))
            else:
                dcell = cell_of(v.dest, self.grid)
                supply_events.append((v.vid, dcell, max(0.0, v.arrival_time - t)))
        for vid in idle_ids:
            idle_cells[vehicle_cells[vid]] += 1
        # one row per vehicle id, from the per-vehicle entries above
        cells = np.array([vehicle_cells[v.vid] for v in self.fleet], dtype=np.int64)
        next_cells = np.array([e[1] for e in supply_events], dtype=np.int64)
        next_minutes = np.array([e[2] for e in supply_events], dtype=np.float64)

        pickups = np.array([v.pickups for v in self.fleet], dtype=np.float64)
        cruise = np.array([v.dispatch_minutes for v in self.fleet])
        dropoffs = np.array([v.last_dropoff_time for v in self.fleet])
        clock = self.clock0.plus(t)
        grid = self.grid

        def eta_minutes(from_cell, to_cell):
            a = center_of(from_cell, grid)
            b = center_of(to_cell, grid)
            return eta_one_row(self.eta_model, a, b, clock, haversine(a, b) / 1000.0)

        slots = list(self._heat_slots)
        return SimView(
            t=t, clock=clock, idle_ids=np.array(idle_ids, dtype=np.int64),
            cells=cells.reshape(-1, 2), idle_cell_counts=idle_cells,
            trailing_heat=self._trailing_heat.copy(),
            heat_prev1=slots[-1].copy(), heat_prev2=slots[-2].copy(),
            next_cells=next_cells.reshape(-1, 2), next_minutes=next_minutes, pickups=pickups,
            dispatch_minutes=cruise, last_dropoff=dropoffs,
            eta_minutes=eta_minutes,
        )

    def apply_dispatch(self, orders, t):
        for order in orders:
            v = self.fleet[order.vehicle_id]
            if v.status in (TO_PICKUP, OCCUPIED):
                log.warning("order for vehicle %d ignored: status %s",
                            v.vid, STATUS_NAMES[v.status])
                continue
            origin = self.position(v, t)
            dest = center_of(order.target_cell, self.grid)
            v.loc = origin
            v.ordered_since_dropoff = True
            points, dist_m = self._route(origin, dest)
            eta = self._eta(origin, dest, dist_m, t)
            if dist_m <= 0.0 or eta <= 0.0:
                v.status = IDLE
                v.loc = dest
                v.dest = None
                v.arrival_time = None
                v.path = ()
                continue
            v.status = DISPATCHING
            self._set_route(v, points, t, t + eta, dest)

    def _accrue(self, measured):
        for v in self.fleet:
            if v.status == DISPATCHING:
                v.dispatch_minutes += 1.0
            if measured:
                if v.status in (DISPATCHING, TO_PICKUP):
                    self.metrics.cruise_sum += 1.0
                    self.metrics.hour(int(self.t) // 60).cruise_sum += 1.0
                elif v.status == OCCUPIED:
                    self.metrics.occupied_minutes[v.vid] += 1.0
        if measured:
            self.metrics.elapsed_minutes += 1

    def _roll_demand_buffers(self, t):
        if len(self._trailing) == self._trailing.maxlen:
            self._trailing_heat -= self._trailing[0]
        self._trailing.append(self._minute_heat)
        self._trailing_heat += self._minute_heat
        if (t + 1) % HEAT_SLOT_MINUTES == 0:
            self._heat_slots.append(self._heat_current)
            self._heat_current = np.zeros(self.grid.shape)

    def step_minute(self):
        t = float(self.t)
        measured = self.t >= self.warmup
        self._minute_heat = np.zeros(self.grid.shape)
        self._complete_arrivals(t)
        self._match_requests(t, measured)
        if (self.policy is not None and self.t >= self.warmup
                and self.t % self.policy.cycle == 0):
            view = self.build_view(t)
            orders = self.policy.dispatch(view)
            self.apply_dispatch(orders, t)
        self._accrue(measured)
        self._roll_demand_buffers(t)
        self.t += 1

    def run(self, total_minutes):
        for _ in range(total_minutes):
            self.step_minute()
        return self.metrics


def rhc_supply_reference(view, zones, slot_minutes, horizon):
    """RHC's standing supply ``x0`` and arrival schedule ``sched``, one vehicle at a time."""
    x0 = np.zeros(zones.region_count)
    sched = np.zeros((horizon, zones.region_count))
    for cell, minutes in zip(view.next_cells.tolist(), view.next_minutes.tolist()):
        zone = int(zones.assignment[tuple(cell)])
        if minutes <= 0.0:
            x0[zone] += 1
        else:
            k = int(minutes // slot_minutes)
            if k < horizon:
                sched[k, zone] += 1
    return x0, sched


def fake_demand(forecast, historical) -> demand_mod.DemandModel:
    """A ``demand.DemandModel`` without a network whose ``forecast`` is
    ``forecast(view)``; its ``history`` reads the ``(7, 24, rows, cols)``
    table ``historical`` as the model's does."""
    model = demand_mod.DemandModel([], historical)
    model.forecast = forecast
    return model


def rhc_zone_demand_reference(model, view, zones, slot_minutes, horizon):
    """RHC's ``(horizon + 1, M)`` zone demand from two sources, as the policy read
    it before it read one ``DemandModel``: the model's network floored at its
    history (the history alone in an episode's first hour) for the
    ``max(1, 30 // slot)`` slots of the network's window, then the history table
    indexed at each later slot's weekday and hour, both scaled from 30 minutes
    to a slot."""
    table = model.historical
    history = table[view.clock.dow_index, view.clock.hour_index]
    if view.t < 2.0 * HEAT_SLOT_MINUTES:
        heat = history
    else:
        planes = demand_mod.build_demand_input(view.heat_prev1, view.heat_prev2, view.clock)
        heat = np.maximum(model.predict(planes), history)
    scale = slot_minutes / HEAT_SLOT_MINUTES
    near = aggregate_to_regions(heat, zones) * scale
    n_near = max(1, int(HEAT_SLOT_MINUTES // slot_minutes))
    wbar = np.tile(near, (horizon + 1, 1))
    for k in range(n_near, horizon + 1):
        clock = view.clock.plus(k * slot_minutes)
        wbar[k] = aggregate_to_regions(table[clock.dow_index, clock.hour_index], zones) * scale
    return wbar


def avg_pool_reference(plane, k):
    """Same-size k x k stride-1 mean pooling from one integral image per call."""
    x = np.asarray(plane, dtype=np.float64)
    h, w = x.shape[-2], x.shape[-1]
    if h < k or w < k:
        raise ValueError(f"plane {h}x{w} smaller than {k}x{k} pooling kernel")
    integ = np.zeros(x.shape[:-2] + (h + 1, w + 1))
    integ[..., 1:, 1:] = x.cumsum(axis=-2).cumsum(axis=-1)
    lo = -((k - 1) // 2)
    hi = k // 2 + 1
    r0 = np.clip(np.arange(h) + lo, 0, h)
    r1 = np.clip(np.arange(h) + hi, 0, h)
    c0 = np.clip(np.arange(w) + lo, 0, w)
    c1 = np.clip(np.arange(w) + hi, 0, w)
    rows = integ[..., r1, :] - integ[..., r0, :]
    sums = rows[..., :, c1] - rows[..., :, c0]
    return sums / float(k * k)


def avg_pool(plane: np.ndarray, k: int) -> np.ndarray:
    """Same-size k x k mean pooling with stride 1 and zero padding at edges, from
    the library's pooling pieces, as ``dqn._pooled`` calls them.

    Operates on the trailing two axes.  Every output is the window sum
    divided by k*k, so windows hanging off the plane average in zeros
    (see :func:`neural.pool_bounds` for the window of each index).
    """
    x = np.asarray(plane, dtype=np.float64)
    h, w = x.shape[-2], x.shape[-1]
    if h < k or w < k:
        raise ValueError(f"plane {h}x{w} smaller than {k}x{k} pooling kernel")
    return neural.window_mean(neural.integral_image(x), neural.pool_bounds(h, w, k), k)


def pooled_reference(maps, pad):
    """(R + 2 pad, C + 2 pad, 3, n): raw, 15- and 30-pooled maps, each pool on its own."""
    n, rows, cols = maps.shape
    padded = np.zeros((n, rows + 2 * pad, cols + 2 * pad))
    padded[:, pad:pad + rows, pad:pad + cols] = maps
    pools = [padded] + [avg_pool_reference(padded, k) for k in (15, 30)]
    return np.stack(pools).transpose(2, 3, 0, 1)


class CanvasReference:
    """The pooled region canvas, every pool built by :func:`pooled_reference`.

    The program pools each decision's input block on its own
    (``dqn.build_feature_planes``); this oracle keeps the other design,
    one canvas per dispatch invocation, whose supply pools
    :meth:`set_supply` replaces after each order, so
    :class:`DqnPolicyReference` checks that both give the same bytes.
    """

    def __init__(self, demand, supply, idle):
        self.pad = max(11, -(-(30 - min(demand.shape)) // 2))
        self.planes = pooled_reference(np.concatenate([demand[None], supply, idle[None]]),
                                       self.pad)
        self.supply = supply

    def set_supply(self, supply):
        self.supply = supply
        self.planes[..., 1:4] = pooled_reference(supply, self.pad)

    def main(self, region):
        r = region[0] + self.pad - 11
        c = region[1] + self.pad - 11
        return np.array(self.planes[r:r + 23, c:c + 23]).reshape(23, 23, 15)


def full_window_reference(ctx):
    """A decision's whole (23, 23, 15) main and (15, 15, 11) aux input, from
    :class:`CanvasReference` and :func:`aux_planes_reference`."""
    return (CanvasReference(ctx.demand, ctx.supply, ctx.idle).main(ctx.region),
            aux_planes_reference(ctx))


def legal_window_reference(main, aux, legal):
    """The :class:`QInput` over the bounding rectangle of ``legal``'s cells, cut
    from a whole (23, 23, 15) main and (15, 15, 11) aux input."""
    rows = np.flatnonzero(legal.any(axis=1))
    cols = np.flatnonzero(legal.any(axis=0))
    r0, r1, c0, c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    return QInput(main[r0:r1 + 8, c0:c1 + 8], aux[r0:r1, c0:c1], (int(r0), int(c0)))


def masked_q(qmap, legal):
    """Illegal cells forced to -inf so they can never be selected."""
    return np.where(legal, qmap, -np.inf)


class DqnPolicyReference(DqnPolicy):
    """:class:`DqnPolicy` whose dispatch maps each vehicle and event on its own.

    Idle counts and supply projections add one vehicle at a time, and
    every decision builds its legal mask, :class:`VehicleContext` and all
    its aux planes afresh.
    """

    def _region_cell(self, fine_cell):
        rid = int(self.region_map.assignment[fine_cell])
        return (rid // self.region_map.shape[1], rid % self.region_map.shape[1])

    def dispatch(self, view):
        training = self.training
        train = training is not None
        rr, rc = self.region_map.shape
        horizon = SUPPLY_HORIZONS[-1]

        heat = self.demand.forecast(view)
        demand_regions = aggregate_to_regions(heat, self.region_map).reshape(rr, rc)
        vehicle_cells = [tuple(cell) for cell in view.cells.tolist()]
        idle_regions = np.zeros((rr, rc))
        for vid in view.idle_ids.tolist():
            idle_regions[self._region_cell(vehicle_cells[vid])] += 1

        x = np.zeros((rr, rc, horizon + 1))
        for cell, minutes in zip(view.next_cells.tolist(), view.next_minutes.tolist()):
            h = int(np.ceil(minutes))
            if h <= horizon:
                x[self._region_cell(tuple(cell)) + (h,)] += 1

        eta_cells = None
        supply3 = None
        canvas = None
        clock = periodic_features(view.clock)
        eps = training.epsilon(self.step) if train else 0.0
        alpha = training.alpha(self.step) if train else 1.0

        orders = []
        for vid in sorted(view.idle_ids.tolist()):
            if not self._eligible(vid, view.t, float(view.last_dropoff[vid])):
                continue
            if train and self.rng.random() >= alpha:
                continue

            region = self._region_cell(vehicle_cells[vid])
            if supply3 is None:
                supply3 = np.stack([
                    x[..., :1].sum(axis=-1),
                    x[..., :16].sum(axis=-1),
                    x[..., :horizon + 1].sum(axis=-1),
                ])
            ctx = VehicleContext(demand=demand_regions, supply=supply3,
                                 idle=idle_regions, region=region, clock=clock)
            legal = legal_action_mask(region, (rr, rc))
            action = explore_action_reference(legal, eps, self.rng) if train else None
            if action is None:
                if canvas is None:
                    canvas = CanvasReference(demand_regions, supply3, idle_regions)
                elif canvas.supply is not supply3:
                    canvas.set_supply(supply3)
                qin = legal_window_reference(canvas.main(region), aux_planes_reference(ctx),
                                             legal)
                action = greedy_action(self.net.q_map(qin))

            tau_steps = 0
            if action != STAY_CELL:
                dr, dc = action_offset(action)
                dest_region = (region[0] + dr, region[1] + dc)
                if eta_cells is None:
                    eta_cells = mismatch(view.idle_cell_counts, view.trailing_heat)
                dest_cell = None
                best = -np.inf
                rid = dest_region[0] * rc + dest_region[1]
                for cell in region_cells(self.region_map)[rid]:
                    if eta_cells[cell] > best:
                        best = eta_cells[cell]
                        dest_cell = cell
                minutes = view.eta_minutes(vehicle_cells[vid], dest_cell)
                tau_steps = max(1, int(np.ceil(minutes)))
                orders.append(DispatchOrder(vid, dest_cell))
                x[region + (0,)] -= 1
                x[dest_region + (min(tau_steps, horizon),)] += 1
                supply3 = None

            if train:
                prev = self.pending.get(vid)
                if prev is not None:
                    reward = reward_dqn(
                        float(view.pickups[vid]) - prev.pickups,
                        float(view.dispatch_minutes[vid]) - prev.dispatch_minutes,
                        training.reject_weight,
                    )
                    self.buffer.push(Transition(prev.ctx, prev.action, reward,
                                                ctx, tau_steps))
                self.pending[vid] = _Pending(ctx, action,
                                             float(view.pickups[vid]),
                                             float(view.dispatch_minutes[vid]))
            self.last_decision[vid] = view.t
        return orders



def train_step_reference(online, target, buffer, opt, gamma, rng, batch_size):
    """The double-Q update on stacked full windows and full 15x15 Q-maps.

    Every sample's whole 23x23 main and 15x15 aux input, from
    :func:`full_window_reference`, is stacked, the
    online network maps all 225 actions, eight inputs per call, and the
    legal mask is read back from aux plane 10; the target valuation and
    the update then run on per-sample crops of the stacked inputs.
    """
    if len(buffer) < batch_size:
        return None
    batch = buffer.sample(rng, batch_size)

    def stacked(contexts):
        windows = [full_window_reference(ctx) for ctx in contexts]
        return np.stack([main for main, _ in windows]), np.stack([aux for _, aux in windows])

    def crops(mains, auxs, rows, cols):
        n = mains.shape[0]
        main_c = np.empty((n, 9, 9, MAIN_PLANES))
        aux_c = np.empty((n, 1, 1, AUX_PLANES))
        for i in range(n):
            r, c = rows[i], cols[i]
            main_c[i] = mains[i, r:r + 9, c:c + 9, :]
            aux_c[i] = auxs[i, r:r + 1, c:c + 1, :]
        return main_c, aux_c

    next_mains, next_auxs = stacked([t.next_ctx for t in batch])
    q_next_online = np.concatenate([
        neural.forward(Q_SPEC, online.params, next_mains[i:i + 8], aux=next_auxs[i:i + 8])[..., 0]
        for i in range(0, batch_size, 8)])
    legal = next_auxs[..., 10] > 0.5
    q_next_online = np.where(legal, q_next_online, -np.inf)
    flat_argmax = q_next_online.reshape(batch_size, -1).argmax(axis=1)
    amax_r = flat_argmax // ACTION_SIZE
    amax_c = flat_argmax % ACTION_SIZE
    tgt_main, tgt_aux = crops(next_mains, next_auxs, amax_r, amax_c)
    future = neural.forward(Q_SPEC, target.params, tgt_main,
                            aux=tgt_aux)[..., 0].reshape(batch_size)

    taus = np.array([t.tau_steps for t in batch], dtype=np.float64)
    rewards = np.array([t.reward for t in batch])
    targets = rewards + gamma ** (1.0 + taus) * future

    mains, auxs = stacked([t.ctx for t in batch])
    rows = np.array([t.action[0] for t in batch])
    cols = np.array([t.action[1] for t in batch])
    cur_main, cur_aux = crops(mains, auxs, rows, cols)
    out, caches = neural.forward_cached(Q_SPEC, online.params, cur_main, cur_aux)
    picked = out.reshape(batch_size)
    err = picked - targets
    loss = float(np.mean(err ** 2))

    d_out = (2.0 * err / batch_size).reshape(out.shape)
    grads = neural.backward_from_grad(Q_SPEC, online.params, caches, d_out)
    opt.step(online.params, grads)

    mean_max_q = float(q_next_online.reshape(batch_size, -1).max(axis=1).mean())
    return loss, mean_max_q


def synth_city_reference(cfg, seed: int, days: int):
    """``synth.synth_city`` as first written: numpy calls per trip, in draw order."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(rows=cfg.fine_rows, cols=cfg.fine_cols, cell_size=cfg.cell_size_m,
                    origin=Location(cfg.origin_lat, cfg.origin_lon))
    rates = _slot_rates(grid, cfg)
    level = _activity_level(rng, days * 48)
    spot_centers = [((fr * (grid.rows - 1)), (fc * (grid.cols - 1)))
                    for _, fr, fc, _ in _HOTSPOTS]
    spot_sigma = [sigma * max(grid.rows, grid.cols) for *_x, sigma in _HOTSPOTS]

    draws = []
    for day in range(days):
        dow = (cfg.epoch_dow + day) % 7
        for slot in range(48):
            hour = slot * 0.5
            counts = rng.poisson(rates[dow, slot] * level[day * 48 + slot])
            cells = np.argwhere(counts > 0)
            for r, c in cells:
                for _ in range(int(counts[r, c])):
                    minute = day * 1440.0 + slot * SLOT_MINUTES + rng.uniform(0, SLOT_MINUTES)
                    pickup = Location(
                        grid.origin.lat + (r + rng.random()) * grid.d_lat,
                        grid.origin.lon + (c + rng.random()) * grid.d_lon,
                    )
                    if rng.random() < 0.45:
                        dr = rng.uniform(0, grid.rows)
                        dc = rng.uniform(0, grid.cols)
                    else:
                        k = int(rng.choice(4, p=_dest_weights(hour)))
                        r0, c0 = spot_centers[k]
                        dr = np.clip(r0 + rng.normal(0, spot_sigma[k]) + rng.random(),
                                     0.0, grid.rows - 1e-6)
                        dc = np.clip(c0 + rng.normal(0, spot_sigma[k]) + rng.random(),
                                     0.0, grid.cols - 1e-6)
                    dropoff = Location(grid.origin.lat + dr * grid.d_lat,
                                       grid.origin.lon + dc * grid.d_lon)
                    straight = haversine(pickup, dropoff)
                    if straight < 100.0:
                        continue  # hop too short to be a recorded taxi trip
                    dist_km = straight * 1.25 / 1000.0
                    speed = _speed_kmh(hour, cfg)
                    minutes = dist_km / speed * 60.0 * float(np.exp(
                        rng.normal(0.0, cfg.synth_noise)))
                    draws.append((minute, pickup, dropoff, max(1.0, minutes), dist_km))
    draws.sort(key=lambda draw: draw[0])
    trips = [RideRequest(i, *draw) for i, draw in enumerate(draws)]
    return SynthCity(grid=grid, graph=RoadGraph(grid),
                     regions=RegionMap(grid, cfg.region_block),
                     zones=RegionMap(grid, cfg.zone_block), trips=trips)


def destination_table_reference(origin, dest, dow, hour, zone_count):
    """The (7, 24, M, M) destination table of ``rhc.estimate_tables``, row by row.

    A (weekday, hour, origin) row with trips holds each destination's
    share of them; an empty one takes the origin's all-hours shares, or
    uniform shares when the origin has no trips at all.
    """
    m = zone_count
    counts = np.zeros((7, 24, m, m))
    for o, d, w, h in zip(origin, dest, dow, hour):
        counts[w, h, o, d] += 1.0
    prob = np.empty((7, 24, m, m))
    for o in range(m):
        marginal = [float(counts[:, :, o, d].sum()) for d in range(m)]
        total = sum(marginal)
        for w in range(7):
            for h in range(24):
                row = [float(v) for v in counts[w, h, o]]
                row_total = sum(row)
                for d in range(m):
                    if row_total > 0:
                        prob[w, h, o, d] = row[d] / row_total
                    elif total > 0:
                        prob[w, h, o, d] = marginal[d] / total
                    else:
                        prob[w, h, o, d] = 1.0 / m
    return prob


def historical_average_reference(slots, clocks, shape):
    """The (7, 24, rows, cols) table of ``demand.historical_average``, slot by slot.

    Each slot is added to its (weekday, hour) bucket and to the all-slot
    sum in turn; a bucket with slots reads its sum over its count, an
    empty one the all-slot sum over the slot count, or zeros when there
    are no slots.
    """
    sums = np.zeros((7, 24) + tuple(shape))
    counts = np.zeros((7, 24))
    total = np.zeros(shape)
    n = 0
    for heat, clock in zip(slots, clocks):
        sums[clock.dow_index, clock.hour_index] += heat
        counts[clock.dow_index, clock.hour_index] += 1
        total += heat
        n += 1
    out = np.empty((7, 24) + tuple(shape))
    for d in range(7):
        for h in range(24):
            if counts[d, h] > 0:
                out[d, h] = sums[d, h] / counts[d, h]
            elif n:
                out[d, h] = total / n
            else:
                out[d, h] = np.zeros(shape)
    return out


def render_config(cfg):
    """A config file that ``parse_config`` reads back as ``cfg``: one ``key = value``
    line per field of :class:`ExperimentConfig`."""
    lines = []
    for f in fields(ExperimentConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"


def serial_models_reference(cfg, city) -> None:
    """The model files of ``experiment.train_models`` written from its fits run
    one after another in this process, the ETA fit, the demand fit and the
    zone tables, by ``save_models`` on the bundle they make."""
    eta_model, eta_metrics = ex.train_eta_model(cfg, city)
    slots, clocks = ex.demand_slot_series(city.requests, city.grid,
                                          cfg.train_days * 1440.0, cfg.epoch_dow)
    demand_model, demand_metrics = demand_mod.train_demand(
        slots, clocks, seed=cfg.train_seed, epochs=cfg.demand_epochs, lr=cfg.demand_lr)
    trip_times, destinations = ex.build_zone_tables(cfg, city)
    ex.save_models(cfg, ex.ModelBundle(eta_model, demand_model, trip_times, destinations,
                                       {**eta_metrics, **demand_metrics}))

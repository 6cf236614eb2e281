"""Independent brute-force oracles shared by the unit and acceptance suites.

These stay deliberately naive: enumeration and elementary linear algebra
only, none of the code paths they are used to check.
"""

import heapq
from collections import defaultdict
from itertools import combinations

import numpy as np


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
    from fleetsim.neural import avg_pool

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


def zone_centroid_distances_reference(rm, grid):
    """Pairwise zone-centroid distances, meters, summing cell centres one by one."""
    from fleetsim.geo import center_of, haversine_arrays

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


def rhc_lp_reference(x0: np.ndarray, sched: np.ndarray, wbar: np.ndarray,
                     tau_slots, p_slots, reject_penalty: float = 20.0,
                     discount: float = 0.99, slot_minutes: float = 15.0):
    """The horizon dispatch LP of ``rhc.build_rhc_lp``, one coefficient at a time.

    Registers every column in a dict keyed by ``(k, i, j)`` or ``(k, i)``
    and adds the rows one by one, in the order the library builds them
    in blocks; returns the ``LpProblem`` only.

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

    from fleetsim.lp import LpProblem

    problem = LpProblem(
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

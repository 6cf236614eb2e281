"""Independent brute-force oracles shared by the unit and acceptance suites.

These stay deliberately naive: enumeration and elementary linear algebra
only, none of the code paths they are used to check.
"""

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


def q_main_planes_51(demand, supply, idle, region):
    """The Q-network's (23, 23, 15) main planes from a vehicle-centred 51x51 window.

    Each of the five source maps is embedded, zero-padded, in a 51x51
    window centred on ``region``; the planes are its 23x23 centre crop,
    then the 23x23 centre crops of its 15x15 and of its 30x30 stride-1
    mean pools.  The 30-pool window at crop offset +11 reaches offset +26,
    outside the 51x51 window, so for region grids wider than 26 cells this
    reference drops the last row and column of that window.
    """
    from fleetsim import neural

    rows, cols = demand.shape
    sources = np.empty((5, rows, cols))
    sources[0] = demand
    sources[1:4] = supply
    sources[4] = idle
    big = neural.crop_pad_center(sources, region, 51, 51)
    main = np.empty((15, 23, 23))
    main[0:5] = neural.crop_pad_center(big, (25, 25), 23, 23)
    main[5:10] = neural.crop_pad_center(neural.avg_pool(big, 15), (25, 25), 23, 23)
    main[10:15] = neural.crop_pad_center(neural.avg_pool(big, 30), (25, 25), 23, 23)
    return main.transpose(1, 2, 0)

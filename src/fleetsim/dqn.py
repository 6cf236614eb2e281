"""Distributed per-vehicle deep-Q dispatch policy.

Each idle vehicle independently evaluates a 15x15 map of Q-values over
destination regions at most 7 region steps away; only the moves that
stay on the region grid are evaluated: one rectangle of the map,
:func:`_legal_rect`, which input, legality plane and exploration all
read.  The network sees a 23x23 vehicle-centred window of the
region-level demand, supply and idle maps and of their 15- and 30-cell
mean pools, plus auxiliary clock and geometry planes.  Each decision's
input has one builder, :func:`build_feature_planes`, which reads the
decision's :class:`VehicleContext` alone.  Training is double Q-learning
over an experience replay of per-vehicle transitions, with a
trip-time-aware discount exponent and a periodically synced target
network.  A training step values each next state as dispatch does a
decision: the online network's ``q_map`` over the input of the vehicle's
legal moves picks the greedy action.  A policy trains exactly when it is
given a :class:`Training`; without one it only evaluates and holds no
random stream, replay or optimizer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import neural
from .clock import periodic_features
from .geo import RegionMap, aggregate_to_regions, mismatch
from .neural import Concat, Conv2D
from .sim import DispatchOrder

ACTION_SIZE = 15          # side of the action map
ACTION_RADIUS = 7         # moves up to 7 regions per axis
MAIN_SIZE = 23            # spatial side of the main input branch
MAIN_PLANES = 15          # (raw, 15-pool, 30-pool) x 5 sources
AUX_PLANES = 11
POOL_SIZES = (15, 30)     # mean-pool sides of the main branch
SUPPLY_HORIZONS = (0, 15, 30)  # minutes ahead counted by the three supply maps
# a training policy's exploration rate and deciding share ramp between these
EPS_START, EPS_END = 1.0, 0.05
ALPHA_START, ALPHA_END = 0.3, 1.0

Q_SPEC = (
    Conv2D(MAIN_PLANES, 16, 5, 5, "relu", "valid"),
    Conv2D(16, 32, 3, 3, "relu", "valid"),
    Conv2D(32, 64, 3, 3, "relu", "valid"),
    Concat(Conv2D(AUX_PLANES, 32, 1, 1, "relu", "valid")),
    Conv2D(96, 128, 1, 1, "relu", "valid"),
    Conv2D(128, 1, 1, 1, "linear", "valid"),
)

_DIAGONAL_REACH = ACTION_RADIUS * math.sqrt(2.0)

# side of one output cell's receptive field in the main input
# (valid 5x5 + 3x3 + 3x3 convolutions; the 1x1 layers do not widen it)
_FIELD = 9


@dataclass(frozen=True)
class VehicleContext:
    """Compact per-decision state snapshot; feature planes derive from it.

    ``demand``/``idle`` are region-grid maps shared within a simulation
    minute; ``supply`` holds the available-vehicle maps at the 0/15/30
    minute horizons as seen by this vehicle (after earlier vehicles'
    choices in the same minute).  ``clock`` is the minute's
    :func:`periodic_features`: sin and cos of the weekday, then of the hour.
    """

    demand: np.ndarray        # (R, C)
    supply: np.ndarray        # (3, R, C)
    idle: np.ndarray          # (R, C)
    region: tuple[int, int]
    clock: tuple[float, float, float, float]


@dataclass(frozen=True)
class QInput:
    """The network's input over a rectangle of the 15x15 action map.

    The rectangle is action rows ``origin[0]`` on by columns ``origin[1]``
    on, ``h`` by ``w`` cells: ``aux`` holds their (h, w, 11) aux planes
    and ``main`` the (h + 8, w + 8, 15) main planes that their Q-values
    read, since each output cell sees a 9x9 main field.  A decision's
    legal window covers its legal moves; a field covers one cell.
    """

    main: np.ndarray
    aux: np.ndarray
    origin: tuple[int, int]

    def __post_init__(self):
        h, w = self.aux.shape[:2]
        if self.aux.shape[2:] != (AUX_PLANES,) or h < 1 or w < 1:
            raise ValueError(f"aux planes must be (h, w, 11) with h, w >= 1, got {self.aux.shape}")
        if self.main.shape != (h + _FIELD - 1, w + _FIELD - 1, MAIN_PLANES):
            raise ValueError(f"main planes must be ({h + _FIELD - 1}, {w + _FIELD - 1}, 15) "
                             f"for {h}x{w} aux cells, got {self.main.shape}")

    def field(self, cell: tuple[int, int]) -> "QInput":
        """The 9x9 main and 1x1 aux field that action ``cell``'s Q-value reads, in new arrays."""
        r, c = cell[0] - self.origin[0], cell[1] - self.origin[1]
        return QInput(np.array(self.main[r:r + _FIELD, c:c + _FIELD]),
                      np.array(self.aux[r:r + 1, c:c + 1]), cell)


def action_offset(cell: tuple[int, int]) -> tuple[int, int]:
    """Region offset encoded by an action cell; (0, 0) is the stay action."""
    return (cell[0] - ACTION_RADIUS, cell[1] - ACTION_RADIUS)


STAY_CELL = (ACTION_RADIUS, ACTION_RADIUS)


def _legal_rect(region: tuple[int, int], grid_shape: tuple[int, int]
               ) -> tuple[int, int, int, int]:
    """The action rows ``r0..r1-1`` and columns ``c0..c1-1`` of the legal moves.

    A move is legal when it lands on the region grid: a run of row
    offsets by a run of column offsets, always holding the stay cell.
    """
    (r, c), (rows, cols) = region, grid_shape
    return (max(0, ACTION_RADIUS - r), min(ACTION_SIZE, ACTION_RADIUS + rows - r),
            max(0, ACTION_RADIUS - c), min(ACTION_SIZE, ACTION_RADIUS + cols - c))


def _pooled(maps: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """(h, w, 3, n): canvas rows ``rows`` and columns ``cols`` of the raw, 15- and
    30-pooled (n, R, C) maps on their zero-bordered canvas (see :func:`_canvas_geometry`).

    Both pools read one integral image of the whole canvas, and each
    value is a window sum of it, so pooling a block of the canvas gives
    the bytes that pooling the whole canvas gives there.
    :func:`build_feature_planes` pools only the block that one input
    reads, at dispatch and in a training step alike.
    """
    n, grid_rows, grid_cols = maps.shape
    pad, bounds = _canvas_geometry((grid_rows, grid_cols))
    padded = np.zeros((n, grid_rows + 2 * pad, grid_cols + 2 * pad))
    padded[:, pad:pad + grid_rows, pad:pad + grid_cols] = maps
    integ = neural.integral_image(maps, pad)
    pools = [padded[:, rows, cols]] + [
        neural.window_mean(integ, (r0[rows], r1[rows], c0[cols], c1[cols]), k)
        for (r0, r1, c0, c1), k in zip(bounds, POOL_SIZES)]
    return np.stack(pools).transpose(2, 3, 0, 1)


@lru_cache(maxsize=None)
def _canvas_geometry(grid_shape: tuple[int, int]
                     ) -> tuple[int, tuple[tuple[np.ndarray, ...], ...]]:
    """The canvas border of a region grid and the pool bounds of each pool size on it.

    The border is at least 11 cells, for a window centred on an edge
    region, and wide enough that each side is at least 30 cells, which
    the 30-cell pool needs.  Computed once per grid shape; read-only.
    """
    rows, cols = grid_shape
    pad = max(MAIN_SIZE // 2, -(-(POOL_SIZES[-1] - min(rows, cols)) // 2))
    bounds = tuple(neural.pool_bounds(rows + 2 * pad, cols + 2 * pad, k) for k in POOL_SIZES)
    for b in bounds:
        for a in b:
            a.setflags(write=False)
    return pad, bounds


def build_feature_planes(ctx: VehicleContext, cell: tuple[int, int] | None = None) -> QInput:
    """A decision's network input, in new arrays: the legal window, or with
    ``cell`` the field of that one action cell.

    The input covers action rows ``r0..r1-1`` by columns ``c0..c1-1`` (the
    :func:`_legal_rect`, or the one cell).  Main branch: each source map
    (demand, supply at the three horizons, idle), then its 15x15 and its
    30x30 stride-1 mean pool, on the zero-bordered region canvas (see
    :func:`_canvas_geometry`), over rows ``r0..r1+7`` by columns
    ``c0..c1+7`` of the vehicle's 23x23 region window; only that block is
    pooled.  Auxiliary branch: the region's :func:`_region_aux` planes at
    the same cells, with ``ctx.clock`` written into planes 0-3.
    """
    shape = ctx.demand.shape
    r0, r1, c0, c1 = _legal_rect(ctx.region, shape) if cell is None else (
        cell[0], cell[0] + 1, cell[1], cell[1] + 1)
    pad = _canvas_geometry(shape)[0]
    top = ctx.region[0] + pad - MAIN_SIZE // 2 + r0
    left = ctx.region[1] + pad - MAIN_SIZE // 2 + c0
    h, w = r1 - r0 + _FIELD - 1, c1 - c0 + _FIELD - 1
    maps = np.concatenate([ctx.demand[None], ctx.supply, ctx.idle[None]])
    main = _pooled(maps, slice(top, top + h), slice(left, left + w)).reshape(h, w, MAIN_PLANES)
    aux = _region_aux(ctx.region, shape)[r0:r1, c0:c1].copy()
    aux[..., :4] = ctx.clock
    return QInput(main, aux, (r0, c0))


@lru_cache(maxsize=None)
def _region_aux(region: tuple[int, int], grid_shape: tuple[int, int]) -> np.ndarray:
    """The (15, 15, 11) aux planes of ``region``, clock zero.

    Planes 0-3 (the clock) are left zero for each decision's copy to
    fill; 4 is the stay one-hot, 5-6 the region's normalized
    coordinates, 7-8 each move's clipped destination coordinates, 9 the
    normalized move distance and 10 the legality plane, one on the
    :func:`_legal_rect` and zero off it.  Computed once per region and
    grid shape; read-only.
    """
    rows, cols = grid_shape
    r, c = region
    r0, r1, c0, c1 = _legal_rect(region, grid_shape)
    aux = np.zeros((ACTION_SIZE, ACTION_SIZE, AUX_PLANES))
    aux[ACTION_RADIUS, ACTION_RADIUS, 4] = 1.0
    aux[..., 5] = r / (rows - 1) if rows > 1 else 0.0
    aux[..., 6] = c / (cols - 1) if cols > 1 else 0.0
    dr = np.arange(ACTION_SIZE) - ACTION_RADIUS
    dest_r = (r + dr[:, None]) / (rows - 1) if rows > 1 else np.zeros((ACTION_SIZE, 1))
    dest_c = (c + dr[None, :]) / (cols - 1) if cols > 1 else np.zeros((1, ACTION_SIZE))
    aux[..., 7] = np.clip(np.broadcast_to(dest_r, (ACTION_SIZE, ACTION_SIZE)), 0.0, 1.0)
    aux[..., 8] = np.clip(np.broadcast_to(dest_c, (ACTION_SIZE, ACTION_SIZE)), 0.0, 1.0)
    aux[..., 9] = np.sqrt(dr[:, None] ** 2 + dr[None, :] ** 2) / _DIAGONAL_REACH
    aux[r0:r1, c0:c1, 10] = 1.0
    aux.setflags(write=False)
    return aux


@dataclass
class QNetwork:
    """The parameters of the fixed two-branch convolutional value network, ``Q_SPEC``."""

    params: list[np.ndarray]

    @classmethod
    def create(cls, rng: np.random.Generator) -> "QNetwork":
        return cls(neural.init_params(Q_SPEC, rng))

    def copy(self) -> "QNetwork":
        return QNetwork([p.copy() for p in self.params])

    def q_map(self, qin: QInput) -> np.ndarray:
        """The 15x15 action-value map of the cells of ``qin``, -inf elsewhere.

        The network runs on ``qin`` as a batch of one.  On a decision's
        legal window (:func:`build_feature_planes`) that values exactly
        the legal moves, and their values equal the network's full map on
        the whole 23x23 window up to float rounding in the last bits.
        """
        (r0, c0), (h, w) = qin.origin, qin.aux.shape[:2]
        qmap = np.full((ACTION_SIZE, ACTION_SIZE), -np.inf)
        qmap[r0:r0 + h, c0:c0 + w] = neural.forward(
            Q_SPEC, self.params, qin.main[None], qin.aux[None])[0, ..., 0]
        return qmap


def explore_action(rect: tuple[int, int, int, int], epsilon: float,
                   rng: np.random.Generator) -> tuple[int, int] | None:
    """With probability ``epsilon`` a uniform cell of the legal ``rect``, else None.

    Draws one ``random()``, then, only to explore, one ``integers`` over
    the rectangle's cells in row-major order; an empty one raises ``ValueError``.
    """
    if rng.random() >= epsilon:
        return None
    r0, r1, c0, c1 = rect
    r, c = divmod(int(rng.integers((r1 - r0) * (c1 - c0))), c1 - c0)
    return r0 + r, c0 + c


def greedy_action(qmap: np.ndarray) -> tuple[int, int]:
    """The highest cell of a masked Q-map, ties to the lowest row-major index."""
    return divmod(int(np.argmax(qmap)), ACTION_SIZE)


def reward_dqn(pickups: float, dispatch_minutes: float, reject_weight: float) -> float:
    """Weighted rides minus dispatch cruising cost over a decision window."""
    if pickups < 0 or dispatch_minutes < 0:
        raise ValueError("reward inputs must be non-negative")
    return reject_weight * pickups - dispatch_minutes


@dataclass(frozen=True)
class Transition:
    """One replay entry linking consecutive decisions of a vehicle.

    ``tau_steps`` is the dispatch trip time (in simulation steps) of the
    action selected at the *next* state; it drives the discount exponent
    ``gamma ** (1 + tau_steps)`` of the double-Q target.
    """

    ctx: VehicleContext
    action: tuple[int, int]
    reward: float
    next_ctx: VehicleContext
    tau_steps: int


class ReplayBuffer:
    """Ring buffer of the most recent transitions."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._pos = 0

    def push(self, item: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._pos] = item
        self._pos = (self._pos + 1) % self.capacity

    def sample(self, rng: np.random.Generator, n: int) -> list[Transition]:
        idx = rng.choice(len(self._items), size=n, replace=False)
        return [self._items[i] for i in idx]

    def __len__(self) -> int:
        return len(self._items)


def _stacked(fields: list[QInput]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked 9x9 main and 1x1 aux planes of one-cell inputs."""
    return np.stack([f.main for f in fields]), np.stack([f.aux for f in fields])


def train_step(online: QNetwork, target: QNetwork, buffer: ReplayBuffer,
               opt: neural.RmsProp, gamma: float, rng: np.random.Generator,
               batch_size: int) -> tuple[float, float] | None:
    """One double-Q minibatch update; returns (loss, mean max-Q) or None.

    Each next state is valued as :meth:`DqnPolicy.dispatch` values a
    decision: the online network's ``q_map`` over the legal window from
    :func:`build_feature_planes`, then :func:`greedy_action`.  The target
    network values that action, and the future term is discounted by
    ``gamma ** (1 + tau)`` where tau is the next decision's dispatch trip
    time in steps.  The fully convolutional network reads only a 9x9 main
    and 1x1 aux field for one action's Q-value, so the step keeps only
    fields: each next state's greedy field is cut from its window, and
    each current state's field at the taken action is built on its own.
    The target valuation and the forward/backward pass at the taken
    action each run on the minibatch's stacked fields in one call.  A
    buffer below one minibatch is a signalled no-op.
    """
    if len(buffer) < batch_size:
        return None
    batch = buffer.sample(rng, batch_size)

    fields, max_qs = [], []
    for t in batch:
        window = build_feature_planes(t.next_ctx)
        qmap = online.q_map(window)
        cell = greedy_action(qmap)
        fields.append(window.field(cell))  # a copy, so the window is dropped here
        max_qs.append(qmap[cell])
    tgt_main, tgt_aux = _stacked(fields)
    future = neural.forward(Q_SPEC, target.params, tgt_main, tgt_aux).reshape(batch_size)

    taus = np.array([t.tau_steps for t in batch], dtype=np.float64)
    rewards = np.array([t.reward for t in batch])
    targets = rewards + gamma ** (1.0 + taus) * future

    cur_main, cur_aux = _stacked([build_feature_planes(t.ctx, t.action) for t in batch])
    out, caches = neural.forward_cached(Q_SPEC, online.params, cur_main, cur_aux)
    picked = out.reshape(batch_size)
    err = picked - targets
    loss = float(np.mean(err ** 2))

    d_out = (2.0 * err / batch_size).reshape(out.shape)
    grads = neural.backward_from_grad(Q_SPEC, online.params, caches, d_out)
    opt.step(online.params, grads)

    return loss, float(np.mean(max_qs))


def sync_target(online: QNetwork, target: QNetwork, step: int, period: int) -> bool:
    """Copy online weights into the target every ``period`` steps."""
    if period < 1:
        raise ValueError("sync period must be at least 1")
    if step % period == 0:
        for mine, theirs in zip(target.params, online.params):
            np.copyto(mine, theirs)
        return True
    return False


def write_training_log(path, rows: list[tuple]) -> None:
    """CSV of per-step training diagnostics: step, loss, mean max-Q, eps, alpha."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "loss", "mean_max_q", "epsilon", "alpha"])
        for row in rows:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])


# --- the policy object wired into the simulator -----------------------------

def _ramp(start: float, end: float, length: int, step: int) -> float:
    """``start`` moved linearly to ``end`` over ``length`` steps, then held."""
    if step >= length:
        return end
    return start + (end - start) * (step / length)


@dataclass(frozen=True, kw_only=True)
class Training:
    """What a training :class:`DqnPolicy` adds: reward, update and exploration ramps.

    ``epsilon`` (the exploration rate) ramps linearly from ``EPS_START``
    to ``EPS_END`` over the first ``eps_ramp`` training steps, and
    ``alpha`` (the share of eligible vehicles that decide) from
    ``ALPHA_START`` to ``ALPHA_END`` over the first ``alpha_ramp``.
    """

    reject_weight: float
    discount: float          # per one-minute simulation step
    seed: int
    lr: float
    batch_size: int
    buffer_capacity: int
    eps_ramp: int
    alpha_ramp: int
    sync_period: int         # training steps between target-network syncs

    def epsilon(self, step: int) -> float:
        return _ramp(EPS_START, EPS_END, self.eps_ramp, step)

    def alpha(self, step: int) -> float:
        return _ramp(ALPHA_START, ALPHA_END, self.alpha_ramp, step)


@dataclass
class _Pending:
    ctx: VehicleContext
    action: tuple[int, int]
    pickups: float
    dispatch_minutes: float


class DqnPolicy:
    """Per-vehicle greedy dispatch, trained in the simulation when given a :class:`Training`.

    Vehicles decide sequentially in ascending id order; after each move
    the supply projection is decremented at the origin and incremented
    at the destination's arrival horizon, so later vehicles observe
    earlier choices.  A vehicle re-decides at most every
    ``decision_interval`` minutes, except that a fresh dropoff makes it
    immediately eligible again.  The simulator invokes the policy every
    ``cycle`` minutes; 15 mimics the RHC slot cycle.
    """

    def __init__(self, net: QNetwork, region_map: RegionMap, demand, *,
                 decision_interval: float, cycle: int = 1, training: Training | None = None):
        self.net = net
        self.region_map = region_map
        self.demand = demand  # forecast(view) -> fine heat: demand.DemandModel
        self.decision_interval = decision_interval
        self.cycle = cycle
        self.training = training
        self.last_decision: dict[int, float] = {}
        if training is not None:
            self.rng = np.random.default_rng(training.seed)
            self.target = net.copy()
            self.buffer = ReplayBuffer(training.buffer_capacity)
            self.opt = neural.RmsProp(lr=training.lr)
            self.pending: dict[int, _Pending] = {}
            self.step = 0
            self.training_log: list[tuple] = []

    def _eligible(self, vid: int, t: float, last_dropoff: float) -> bool:
        last = self.last_decision.get(vid)
        if last is None:
            return True
        if t - last >= self.decision_interval:
            return True
        return last_dropoff > last

    def dispatch(self, view) -> list[DispatchOrder]:
        """Decide, in ascending id order, where each eligible idle vehicle goes.

        Built once per invocation: the region maps of idle vehicles and of
        the supply projected at each of ``SUPPLY_HORIZONS`` (each a count
        by ``np.bincount``) and, at the first decision, the region map of
        predicted demand (so an invocation in which no vehicle decides
        runs no demand prediction).  Each decision's
        :class:`VehicleContext` holds these maps as it sees them.
        Exploration draws from the decision's :func:`_legal_rect`, and a
        greedy decision runs ``q_map`` on the legal window that
        :func:`build_feature_planes` builds from the context, as a
        training step values a next state.

        Decisions stay sequential: a move takes its vehicle out of the
        supply at its origin at every horizon and adds it at its
        destination at each horizon from its arrival on, in a new array,
        so each vehicle sees the moves before it and a stored context
        keeps the maps it saw.  The counts are whole numbers, so they are
        exact.  The Q-network runs on one input at a time because another
        batch shape can change the last bits of Q and with them an argmax.

        A move goes to the chosen region's first cell of highest surplus
        in row-major order, as ``max`` picks it.  The surplus map is
        :func:`geo.mismatch`, the paper's eta (supply share minus demand
        share, not a travel time); :func:`rhc.assign_vehicles` picks its
        targets by the same map and rule, lowest first.  The move's
        ``tau_steps`` comes from ``view.eta_minutes`` to that cell: the
        simulator's one ETA call, over the straight line between cell
        centres, where the simulator times the move itself over its route.
        """
        training = self.training
        rr, rc = self.region_map.shape
        horizons = np.array(SUPPLY_HORIZONS)

        assignment = self.region_map.assignment
        rids = assignment[view.cells[:, 0], view.cells[:, 1]]  # region id per vehicle
        idle_regions = np.bincount(rids[view.idle_ids], minlength=rr * rc
                                   ).reshape(rr, rc).astype(np.float64)
        next_rids = assignment[view.next_cells[:, 0], view.next_cells[:, 1]]
        h = np.ceil(view.next_minutes)
        supply = np.stack([np.bincount(next_rids[h <= k], minlength=rr * rc)
                           for k in SUPPLY_HORIZONS]).reshape(3, rr, rc).astype(np.float64)

        demand_regions = None  # built at the first decision
        surplus = None    # built lazily; many invocations issue no orders
        clock = periodic_features(view.clock)
        if training is not None:
            eps, alpha = training.epsilon(self.step), training.alpha(self.step)

        orders: list[DispatchOrder] = []
        for vid in view.idle_ids.tolist():
            if not self._eligible(vid, view.t, float(view.last_dropoff[vid])):
                continue
            if training is not None and self.rng.random() >= alpha:
                continue  # skipped outright; no decision, no transition

            region = divmod(int(rids[vid]), rc)
            if demand_regions is None:
                heat = self.demand.forecast(view)
                demand_regions = aggregate_to_regions(heat, self.region_map).reshape(rr, rc)
            ctx = VehicleContext(demand=demand_regions, supply=supply,
                                 idle=idle_regions, region=region, clock=clock)
            action = (explore_action(_legal_rect(region, (rr, rc)), eps, self.rng)
                      if training is not None else None)
            if action is None:
                action = greedy_action(self.net.q_map(build_feature_planes(ctx)))

            tau_steps = 0
            if action != STAY_CELL:
                dr, dc = action_offset(action)
                dest_r, dest_c = region[0] + dr, region[1] + dc
                if surplus is None:
                    surplus = mismatch(view.idle_cell_counts, view.trailing_heat)
                dest_cell = max(self.region_map.cells[dest_r * rc + dest_c],
                                key=surplus.__getitem__)
                minutes = view.eta_minutes(tuple(view.cells[vid].tolist()), dest_cell)
                tau_steps = max(1, int(np.ceil(minutes)))
                orders.append(DispatchOrder(vid, dest_cell))
                supply = supply.copy()
                supply[:, region[0], region[1]] -= 1.0
                supply[horizons >= min(tau_steps, SUPPLY_HORIZONS[-1]), dest_r, dest_c] += 1.0

            if training is not None:
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

    def train_tick(self) -> None:
        """One training step after a simulation minute; logs diagnostics."""
        training = self.training
        result = train_step(self.net, self.target, self.buffer, self.opt,
                            training.discount, self.rng, training.batch_size)
        if result is None:
            loss, mean_max_q = float("nan"), float("nan")
        else:
            loss, mean_max_q = result
        self.training_log.append((self.step, loss, mean_max_q,
                                  training.epsilon(self.step), training.alpha(self.step)))
        self.step += 1
        sync_target(self.net, self.target, self.step, training.sync_period)

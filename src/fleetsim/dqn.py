"""Distributed per-vehicle deep-Q dispatch policy.

Each idle vehicle independently evaluates a 15x15 map of Q-values over
destination regions at most 7 region steps away; only the moves that
stay on the region grid are evaluated.  The network sees a 23x23
vehicle-centred window of the region-level demand, supply and idle maps
and of their 15- and 30-cell mean pools, plus auxiliary clock and
geometry planes.  Training is double Q-learning over an experience
replay of per-vehicle transitions, with a trip-time-aware discount
exponent and a periodically synced target network.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .clock import Clock, periodic_features
from .geo import region_cells
from .neural import Concat, Conv2D
from .rhc import mismatch
from .sim import DispatchOrder

ACTION_SIZE = 15          # side of the action map
ACTION_RADIUS = 7         # moves up to 7 regions per axis
MAIN_SIZE = 23            # spatial side of the main input branch
MAIN_PLANES = 15          # (raw, 15-pool, 30-pool) x 5 sources
AUX_PLANES = 11
POOL_SIZES = (15, 30)     # mean-pool sides of the main branch

Q_SPEC = (
    Conv2D(MAIN_PLANES, 16, 5, 5, "relu", "valid"),
    Conv2D(16, 32, 3, 3, "relu", "valid"),
    Conv2D(32, 64, 3, 3, "relu", "valid"),
    Concat(branch=(Conv2D(AUX_PLANES, 32, 1, 1, "relu", "valid"),)),
    Conv2D(96, 128, 1, 1, "relu", "valid"),
    Conv2D(128, 1, 1, 1, "linear", "valid"),
)

_DIAGONAL_REACH = ACTION_RADIUS * math.sqrt(2.0)

# side of one output cell's receptive field in the main input
# (valid 5x5 + 3x3 + 3x3 convolutions; the 1x1 layers do not widen it)
_FIELD = 9

# full-size inputs per network call in QNetwork.q_map_batch
_MAP_CHUNK = 8


@dataclass(frozen=True)
class VehicleContext:
    """Compact per-decision state snapshot; feature planes derive from it.

    ``demand``/``idle`` are region-grid maps shared within a simulation
    minute; ``supply`` holds the available-vehicle maps at the 0/15/30
    minute horizons as seen by this vehicle (after earlier vehicles'
    choices in the same minute).
    """

    demand: np.ndarray        # (R, C)
    supply: np.ndarray        # (3, R, C)
    idle: np.ndarray          # (R, C)
    region: tuple[int, int]
    sin_dow: float
    cos_dow: float
    sin_hour: float
    cos_hour: float


@dataclass(frozen=True)
class QInput:
    main: np.ndarray  # (23, 23, 15) row-major plane stack
    aux: np.ndarray   # (15, 15, 11)

    def __post_init__(self):
        if self.main.shape != (MAIN_SIZE, MAIN_SIZE, MAIN_PLANES):
            raise ValueError(f"main planes must be (23, 23, 15), got {self.main.shape}")
        if self.aux.shape != (ACTION_SIZE, ACTION_SIZE, AUX_PLANES):
            raise ValueError(f"aux planes must be (15, 15, 11), got {self.aux.shape}")


def legal_action_mask(region: tuple[int, int], grid_shape: tuple[int, int]) -> np.ndarray:
    """True where the move lands inside the region grid (the center always does)."""
    r, c = region
    rows, cols = grid_shape
    dr = np.arange(ACTION_SIZE) - ACTION_RADIUS
    dc = np.arange(ACTION_SIZE) - ACTION_RADIUS
    ok_r = (r + dr >= 0) & (r + dr < rows)
    ok_c = (c + dc >= 0) & (c + dc < cols)
    return ok_r[:, None] & ok_c[None, :]


def action_offset(cell: tuple[int, int]) -> tuple[int, int]:
    """Region offset encoded by an action cell; (0, 0) is the stay action."""
    return (cell[0] - ACTION_RADIUS, cell[1] - ACTION_RADIUS)


STAY_CELL = (ACTION_RADIUS, ACTION_RADIUS)


def _pooled(maps: np.ndarray, pad: int) -> np.ndarray:
    """(R + 2 pad, C + 2 pad, 3, n): raw, 15- and 30-pooled (n, R, C) maps on a zero border."""
    n, rows, cols = maps.shape
    padded = np.zeros((n, rows + 2 * pad, cols + 2 * pad))
    padded[:, pad:pad + rows, pad:pad + cols] = maps
    pools = [padded] + [neural.avg_pool(padded, k) for k in POOL_SIZES]
    return np.stack(pools).transpose(2, 3, 0, 1)


class FeatureCanvas:
    """The main-branch planes of every region, from which each vehicle slices its window.

    The five source maps (demand, supply at the 0/15/30 minute horizons,
    idle) and their 15x15 and 30x30 stride-1 mean pools sit on one
    zero-padded region canvas.  Pooling the padded canvas once equals
    pooling each vehicle's zero-padded window, so a vehicle's 23x23 main
    input is a slice.  The border is at least 11 cells, for a window
    centred on an edge region, and wide enough that each side is at
    least 30 cells, which the 30-cell pool needs.
    """

    def __init__(self, demand: np.ndarray, supply: np.ndarray, idle: np.ndarray):
        self.pad = max(MAIN_SIZE // 2, -(-(POOL_SIZES[-1] - min(demand.shape)) // 2))
        self.planes = _pooled(np.concatenate([demand[None], supply, idle[None]]), self.pad)
        self.supply = supply

    def set_supply(self, supply: np.ndarray) -> None:
        """Replace the three supply maps (3, R, C) and their pools."""
        self.supply = supply
        self.planes[..., 1:4] = _pooled(supply, self.pad)

    def main(self, region: tuple[int, int]) -> np.ndarray:
        """The (23, 23, 15) main input centred on ``region``, as a new array."""
        r = region[0] + self.pad - MAIN_SIZE // 2
        c = region[1] + self.pad - MAIN_SIZE // 2
        window = np.array(self.planes[r:r + MAIN_SIZE, c:c + MAIN_SIZE])
        return window.reshape(MAIN_SIZE, MAIN_SIZE, MAIN_PLANES)


def build_feature_planes(ctx: VehicleContext) -> QInput:
    """Assemble the two-branch network input for one vehicle.

    Main branch: a 23x23 window centred on the vehicle's region of each
    of the five source maps (demand, supply at three horizons, idle),
    then of their 15x15 and of their 30x30 stride-1 mean pools, with the
    maps zero outside the region grid (see :class:`FeatureCanvas`).

    Auxiliary branch: constant clock trig planes, the one-hot position
    plane, the vehicle's normalized coordinates, per-action destination
    coordinates, normalized move distance, and the legality plane.
    """
    canvas = FeatureCanvas(ctx.demand, ctx.supply, ctx.idle)
    return QInput(canvas.main(ctx.region), _aux_planes(ctx))


def _aux_planes(ctx: VehicleContext) -> np.ndarray:
    rows, cols = ctx.demand.shape
    aux = np.zeros((ACTION_SIZE, ACTION_SIZE, AUX_PLANES))
    aux[..., 0] = ctx.sin_dow
    aux[..., 1] = ctx.cos_dow
    aux[..., 2] = ctx.sin_hour
    aux[..., 3] = ctx.cos_hour
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


class QNetwork:
    """The fixed two-branch convolutional value network."""

    def __init__(self, net: neural.Network):
        if net.spec != Q_SPEC:
            raise ValueError("network spec does not match the Q architecture")
        self.net = net

    @classmethod
    def create(cls, rng: np.random.Generator) -> "QNetwork":
        return cls(neural.Network.create(Q_SPEC, rng))

    def copy(self) -> "QNetwork":
        return QNetwork(self.net.copy())

    def q_map(self, qin: QInput, legal: np.ndarray | None = None) -> np.ndarray:
        """The 15x15 action-value map; with ``legal``, only its legal cells.

        Without ``legal`` every cell is evaluated and none is masked.  With
        a (15, 15) boolean ``legal`` mask, the network runs only on the
        bounding rectangle of the legal cells, rows ``r0..r1`` by columns
        ``c0..c1``: main input rows ``r0..r1+8`` and columns ``c0..c1+8``
        (each output cell sees a 9x9 main window) and the same rows and
        columns of the aux input.  Every cell outside ``legal`` is -inf.
        The result equals ``masked_q(q_map(qin), legal)`` up to float
        rounding in the last bits; a mask without a legal cell raises.
        """
        if legal is None:
            return self.net.forward(qin.main, aux=qin.aux)[..., 0]
        rows = np.flatnonzero(legal.any(axis=1))
        cols = np.flatnonzero(legal.any(axis=0))
        if rows.size == 0:
            raise ValueError("no legal action available")
        r0, r1 = rows[0], rows[-1] + 1
        c0, c1 = cols[0], cols[-1] + 1
        qmap = np.full((ACTION_SIZE, ACTION_SIZE), -np.inf)
        qmap[r0:r1, c0:c1] = self.net.forward(
            qin.main[r0:r1 + _FIELD - 1, c0:c1 + _FIELD - 1],
            aux=qin.aux[r0:r1, c0:c1])[..., 0]
        return masked_q(qmap, legal)

    def q_map_batch(self, mains: np.ndarray, auxs: np.ndarray) -> np.ndarray:
        """Q-maps of a batch; full-size inputs go ``_MAP_CHUNK`` at a time.

        In one call, a minibatch of 64 full 23x23 inputs builds a 69 MB
        first-layer patch matrix and 20-30 MB ones after it.  How much of
        such transients the allocator kept after a train step varied from
        run to run, and with it the peak RSS of training by 30 MB.  In
        chunks the largest patch matrix is 9 MB, and the maps are the same
        bit for bit.  Receptive-field crops (9x9 main inputs) are small
        and go in one call: split, their last bits would change.
        """
        if mains.shape[1] <= _FIELD:
            return self.net.forward(mains, aux=auxs)[..., 0]
        return np.concatenate([self.net.forward(mains[i:i + _MAP_CHUNK],
                                                aux=auxs[i:i + _MAP_CHUNK])[..., 0]
                               for i in range(0, len(mains), _MAP_CHUNK)])

    def save(self, path, optimizer: neural.RmsProp | None = None,
             extra: dict | None = None) -> None:
        neural.save_model(path, Q_SPEC, self.net.params, optimizer, extra)

    @classmethod
    def load(cls, path) -> tuple["QNetwork", neural.RmsProp | None, dict | None]:
        spec, params, opt, extra = neural.load_model(path)
        if spec != Q_SPEC:
            raise ValueError("checkpoint is not a Q-network")
        return cls(neural.Network(spec, params)), opt, extra


def masked_q(qmap: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """Illegal cells forced to -inf so they can never be selected."""
    return np.where(legal, qmap, -np.inf)


def explore_action(legal: np.ndarray, epsilon: float, rng: np.random.Generator
                   ) -> tuple[int, int] | None:
    """With probability ``epsilon`` a uniform legal cell, else None (act greedily).

    Draws one ``random()``, then one ``integers`` only when it explores.
    """
    if rng.random() >= epsilon:
        return None
    legal_flat = np.flatnonzero(legal)
    return divmod(int(legal_flat[rng.integers(legal_flat.size)]), ACTION_SIZE)


def greedy_action(qmap: np.ndarray) -> tuple[int, int]:
    """The highest cell of a masked Q-map, ties to the lowest row-major index."""
    return divmod(int(np.argmax(qmap)), ACTION_SIZE)


def select_action(qmap: np.ndarray, epsilon: float, rng: np.random.Generator
                  ) -> tuple[int, int]:
    """Epsilon-greedy over the legal (finite) cells of a masked Q-map.

    Greedy ties resolve to the lowest row-major index.  The random
    branch draws uniformly over legal cells.
    """
    legal = np.isfinite(qmap)
    if not legal.any():
        raise ValueError("no legal action available")
    action = explore_action(legal, epsilon, rng)
    return greedy_action(qmap) if action is None else action


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

    def __init__(self, capacity: int = 10_000):
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


@dataclass(frozen=True)
class Schedules:
    """Exploration and action-rate ramps over training steps."""

    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_ramp: int = 5000
    alpha_start: float = 0.3
    alpha_end: float = 1.0
    alpha_ramp: int = 5000
    sync_period: int = 150

    def epsilon(self, step: int) -> float:
        if step >= self.eps_ramp:
            return self.eps_end
        frac = step / self.eps_ramp
        return self.eps_start + (self.eps_end - self.eps_start) * frac

    def alpha(self, step: int) -> float:
        if step >= self.alpha_ramp:
            return self.alpha_end
        frac = step / self.alpha_ramp
        return self.alpha_start + (self.alpha_end - self.alpha_start) * frac


def assemble_batch(contexts: list[VehicleContext]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_feature_planes` stacked: (n, 23, 23, 15) mains, (n, 15, 15, 11) auxs."""
    qins = [build_feature_planes(ctx) for ctx in contexts]
    return np.stack([q.main for q in qins]), np.stack([q.aux for q in qins])


def _crop_at_cells(mains: np.ndarray, auxs: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample receptive-field crops so only one output cell is computed.

    The network is fully convolutional, so evaluating it on the 9x9 main
    window and 1x1 aux window of an action cell reproduces exactly that
    cell of the full 15x15 map.
    """
    n = mains.shape[0]
    main_c = np.empty((n, _FIELD, _FIELD, MAIN_PLANES))
    aux_c = np.empty((n, 1, 1, AUX_PLANES))
    for i in range(n):
        r, c = rows[i], cols[i]
        main_c[i] = mains[i, r:r + _FIELD, c:c + _FIELD, :]
        aux_c[i] = auxs[i, r:r + 1, c:c + 1, :]
    return main_c, aux_c


def train_step(online: QNetwork, target: QNetwork, buffer: ReplayBuffer,
               opt: neural.RmsProp, gamma: float, rng: np.random.Generator,
               batch_size: int = 64) -> tuple[float, float] | None:
    """One double-Q minibatch update; returns (loss, mean max-Q) or None.

    The online network picks the argmax action at the next state, the
    target network values it, and the future term is discounted by
    ``gamma ** (1 + tau)`` where tau is the next decision's dispatch
    trip time in steps.  Only the taken action's output receives
    gradient, so the forward/backward passes for the current state and
    the target valuation run on receptive-field crops.  A buffer below
    one minibatch is a signalled no-op.
    """
    if len(buffer) < batch_size:
        return None
    batch = buffer.sample(rng, batch_size)

    next_mains, next_auxs = assemble_batch([t.next_ctx for t in batch])
    q_next_online = online.q_map_batch(next_mains, next_auxs)
    legal = next_auxs[..., 10] > 0.5
    q_next_online = np.where(legal, q_next_online, -np.inf)
    flat_argmax = q_next_online.reshape(batch_size, -1).argmax(axis=1)
    amax_r = flat_argmax // ACTION_SIZE
    amax_c = flat_argmax % ACTION_SIZE
    tgt_main, tgt_aux = _crop_at_cells(next_mains, next_auxs, amax_r, amax_c)
    future = target.q_map_batch(tgt_main, tgt_aux).reshape(batch_size)

    taus = np.array([t.tau_steps for t in batch], dtype=np.float64)
    rewards = np.array([t.reward for t in batch])
    targets = rewards + gamma ** (1.0 + taus) * future

    mains, auxs = assemble_batch([t.ctx for t in batch])
    rows = np.array([t.action[0] for t in batch])
    cols = np.array([t.action[1] for t in batch])
    cur_main, cur_aux = _crop_at_cells(mains, auxs, rows, cols)
    out, caches = neural.forward_cached(Q_SPEC, online.net.params, cur_main, cur_aux)
    picked = out.reshape(batch_size)
    err = picked - targets
    loss = float(np.mean(err ** 2))

    d_out = (2.0 * err / batch_size).reshape(out.shape)
    grads = neural.backward_from_grad(Q_SPEC, online.net.params, caches, d_out)
    opt.step(online.net.params, grads)

    mean_max_q = float(q_next_online.reshape(batch_size, -1).max(axis=1).mean())
    return loss, mean_max_q


def sync_target(online: QNetwork, target: QNetwork, step: int, period: int) -> bool:
    """Copy online weights into the target every ``period`` steps."""
    if period < 1:
        raise ValueError("sync period must be at least 1")
    if step % period == 0:
        target.net.load_params_from(online.net)
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

@dataclass
class DqnConfig:
    reject_weight: float = 10.0
    discount: float = 0.98          # per one-minute simulation step
    decision_interval: float = 15.0 # minimum minutes between a vehicle's decisions
    supply_horizon: int = 30
    cycle: int = 1                  # policy invocation period; 15 mimics the slot cycle
    train: bool = False
    seed: int = 0
    lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 10_000
    schedules: Schedules = field(default_factory=Schedules)


@dataclass
class _Pending:
    ctx: VehicleContext
    action: tuple[int, int]
    pickups: float
    dispatch_minutes: float


class DqnPolicy:
    """Per-vehicle greedy dispatch with optional in-simulation training.

    Vehicles decide sequentially in ascending id order; after each move
    the supply projection is decremented at the origin and incremented
    at the destination's arrival horizon, so later vehicles observe
    earlier choices.  A vehicle re-decides at most every
    ``decision_interval`` minutes, except that a fresh dropoff makes it
    immediately eligible again.
    """

    def __init__(self, net: QNetwork, region_map, region_shape: tuple[int, int],
                 demand_predictor, config: DqnConfig | None = None):
        self.net = net
        self.region_map = region_map
        self.region_shape = region_shape
        self.demand_predictor = demand_predictor  # callable(view) -> fine heat
        self.config = config or DqnConfig()
        self.cycle = self.config.cycle
        self.rng = np.random.default_rng(self.config.seed)
        self.last_decision: dict[int, float] = {}
        self.step = 0
        self.training_log: list[tuple] = []
        self._zone_cells = region_cells(region_map)
        if self.config.train:
            self.target = net.copy()
            self.buffer = ReplayBuffer(self.config.buffer_capacity)
            self.opt = neural.RmsProp(lr=self.config.lr)
            self.pending: dict[int, _Pending] = {}

    def _region_cell(self, fine_cell) -> tuple[int, int]:
        rid = int(self.region_map.assignment[fine_cell])
        return (rid // self.region_shape[1], rid % self.region_shape[1])

    def _eligible(self, vid: int, t: float, last_dropoff: float) -> bool:
        last = self.last_decision.get(vid)
        if last is None:
            return True
        if t - last >= self.config.decision_interval:
            return True
        return last_dropoff > last

    def dispatch(self, view) -> list[DispatchOrder]:
        from .geo import aggregate_to_regions

        cfg = self.config
        rr, rc = self.region_shape
        horizon = cfg.supply_horizon

        heat = self.demand_predictor(view)
        demand_regions = aggregate_to_regions(heat, self.region_map).reshape(rr, rc)
        idle_regions = np.zeros((rr, rc))
        for vid in view.idle_ids:
            idle_regions[self._region_cell(view.vehicle_cells[vid])] += 1

        x = np.zeros((rr, rc, horizon + 1))
        for vid, cell, minutes in view.supply_events:
            h = int(np.ceil(minutes))
            if h <= horizon:
                x[self._region_cell(cell) + (h,)] += 1

        eta_cells = None  # built lazily; many invocations issue no orders
        supply3 = None    # rebuilt only after an order has changed x
        canvas = None     # built on the first greedy decision
        sd, cd, sh, ch = periodic_features(view.clock)
        eps = cfg.schedules.epsilon(self.step) if cfg.train else 0.0
        alpha = cfg.schedules.alpha(self.step) if cfg.train else 1.0

        orders: list[DispatchOrder] = []
        for vid in sorted(view.idle_ids):
            if not self._eligible(vid, view.t, float(view.last_dropoff[vid])):
                continue
            if cfg.train and self.rng.random() >= alpha:
                continue  # skipped outright; no decision, no transition

            region = self._region_cell(view.vehicle_cells[vid])
            if supply3 is None:
                supply3 = np.stack([
                    x[..., :1].sum(axis=-1),
                    x[..., :16].sum(axis=-1),
                    x[..., :horizon + 1].sum(axis=-1),
                ])
            ctx = VehicleContext(demand=demand_regions, supply=supply3,
                                 idle=idle_regions, region=region,
                                 sin_dow=sd, cos_dow=cd, sin_hour=sh, cos_hour=ch)
            legal = legal_action_mask(region, (rr, rc))
            action = explore_action(legal, eps, self.rng) if cfg.train else None
            if action is None:
                if canvas is None:
                    canvas = FeatureCanvas(demand_regions, supply3, idle_regions)
                elif canvas.supply is not supply3:
                    canvas.set_supply(supply3)
                qin = QInput(canvas.main(region), _aux_planes(ctx))
                action = greedy_action(self.net.q_map(qin, legal))

            tau_steps = 0
            if action != STAY_CELL:
                dr, dc = action_offset(action)
                dest_region = (region[0] + dr, region[1] + dc)
                if eta_cells is None:
                    eta_cells = mismatch(view.idle_cell_counts, view.trailing_heat)
                dest_cell = None
                best = -np.inf
                rid = dest_region[0] * rc + dest_region[1]
                for cell in self._zone_cells.get(rid, ()):
                    if eta_cells[cell] > best:
                        best = eta_cells[cell]
                        dest_cell = cell
                minutes = view.eta_minutes(view.vehicle_cells[vid], dest_cell)
                tau_steps = max(1, int(np.ceil(minutes)))
                orders.append(DispatchOrder(vid, dest_cell))
                x[region + (0,)] -= 1
                x[dest_region + (min(tau_steps, horizon),)] += 1
                supply3 = None

            if cfg.train:
                prev = self.pending.get(vid)
                if prev is not None:
                    reward = reward_dqn(
                        float(view.pickups[vid]) - prev.pickups,
                        float(view.dispatch_minutes[vid]) - prev.dispatch_minutes,
                        cfg.reject_weight,
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
        cfg = self.config
        result = train_step(self.net, self.target, self.buffer, self.opt,
                            cfg.discount, self.rng, cfg.batch_size)
        if result is None:
            loss, mean_max_q = float("nan"), float("nan")
        else:
            loss, mean_max_q = result
        self.training_log.append((self.step, loss, mean_max_q,
                                  cfg.schedules.epsilon(self.step),
                                  cfg.schedules.alpha(self.step)))
        self.step += 1
        sync_target(self.net, self.target, self.step, cfg.schedules.sync_period)

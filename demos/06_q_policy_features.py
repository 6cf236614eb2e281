"""Per-vehicle Q-policy machinery: feature planes, action maps, replay.

Builds the two-branch network input for a vehicle, runs the value map,
and walks one double-Q training step on synthetic transitions.
"""

import numpy as np

from fleetsim import neural
from fleetsim.dqn import (
    QNetwork, ReplayBuffer, Training, Transition, VehicleContext,
    build_feature_planes, explore_action, greedy_action, train_step,
)
from fleetsim.dqn import _legal_rect
from fleetsim.harness.config import ExperimentConfig

cfg = ExperimentConfig(seed=0)  # the experiment's replay, minibatch and training settings

rng = np.random.default_rng(2)
shape = (10, 10)
ctx = VehicleContext(
    demand=rng.uniform(0, 3, size=shape),
    supply=rng.uniform(0, 2, size=(3,) + shape),
    idle=rng.uniform(0, 2, size=shape),
    region=(2, 7),
    clock=(0.0, 1.0, 1.0, 0.0),  # sin, cos of the weekday, then of the hour
)
# the legal window: the input of the moves that stay on the region grid
qin = build_feature_planes(ctx)
print(f"legal window from action cell {qin.origin}: main branch {qin.main.shape}, "
      f"aux branch {qin.aux.shape}")
# the legal moves fill one rectangle of the 15x15 action map
r0, r1, c0, c1 = _legal_rect(ctx.region, shape)
print(f"legal destination cells: action rows {r0}..{r1 - 1} by columns {c0}..{c1 - 1}, "
      f"{(r1 - r0) * (c1 - c0)} of 225")

net = QNetwork.create(rng)
qmap = net.q_map(qin)  # -inf off the grid
greedy = greedy_action(qmap)
print(f"greedy action cell {greedy} (offset {greedy[0]-7:+d},{greedy[1]-7:+d})")
field = qin.field(greedy)  # all that the greedy cell's Q-value reads
print(f"its field: main {field.main.shape}, aux {field.aux.shape}")

# one double-Q training step over a replay buffer of random transitions
buf = ReplayBuffer(cfg.dqn_buffer)
for i in range(80):
    region = (int(rng.integers(0, 10)), int(rng.integers(0, 10)))
    c = VehicleContext(demand=rng.uniform(0, 3, size=shape),
                       supply=rng.uniform(0, 2, size=(3,) + shape),
                       idle=rng.uniform(0, 2, size=shape), region=region,
                       clock=(0.0, 1.0, 0.0, 1.0))
    action = explore_action(_legal_rect(region, shape), 1.0, rng)  # a uniform legal move
    buf.push(Transition(c, action, float(rng.uniform(-5, 15)), c,
                        int(rng.integers(0, 5))))

target = net.copy()
opt = neural.RmsProp(lr=cfg.dqn_lr)
loss, mean_max_q = train_step(net, target, buf, opt, gamma=cfg.dqn_discount, rng=rng,
                              batch_size=cfg.dqn_batch)
print(f"one minibatch: loss {loss:.3f}, mean max-Q {mean_max_q:.3f}")

training = Training(reject_weight=cfg.dqn_reject_weight, discount=cfg.dqn_discount, seed=0,
                    lr=cfg.dqn_lr, batch_size=cfg.dqn_batch, buffer_capacity=cfg.dqn_buffer,
                    eps_ramp=5000, alpha_ramp=5000, sync_period=cfg.dqn_sync_period)
print(f"epsilon ramp: {training.epsilon(0):.2f} -> {training.epsilon(2500):.3f} -> "
      f"{training.epsilon(5000):.2f}; action rate {training.alpha(0):.2f} -> {training.alpha(5000):.2f}")

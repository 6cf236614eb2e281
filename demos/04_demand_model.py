"""Demand prediction: convolutional forecaster vs historical averages."""

import numpy as np

from fleetsim.clock import Clock
from fleetsim.demand import build_demand_input, train_demand
from fleetsim.harness.config import ExperimentConfig

cfg = ExperimentConfig(seed=0)  # the experiment's settings: the learning rate

rng = np.random.default_rng(5)
h = w = 10
days = 10
rows = np.arange(h)[:, None]
cols = np.arange(w)[None, :]
base = (2.5 * np.exp(-0.5 * (((rows - 3) / 1.4) ** 2 + ((cols - 3) / 1.4) ** 2))
        + 1.8 * np.exp(-0.5 * (((rows - 7) / 1.4) ** 2 + ((cols - 6) / 1.4) ** 2)))

slots = []
clocks = []
level = 1.0
for k in range(days * 48):
    hour = (k * 0.5) % 24.0
    level = np.exp(0.85 * np.log(level) + rng.normal(0, 0.12))  # smooth swings
    lam = base * (1.0 + 0.7 * np.sin(2 * np.pi * hour / 24.0)) * level
    slots.append(rng.poisson(lam))
    clocks.append(Clock(k * 30.0))
slots = np.array(slots, dtype=float)

model, metrics = train_demand(slots, clocks, seed=11, epochs=60, lr=cfg.demand_lr)
print(f"cnn validation rmse {metrics['demand_val_rmse']:.4f} per cell "
      f"(historical-average baseline {metrics['demand_historical_baseline_rmse']:.4f})")

planes = build_demand_input(slots[-1], slots[-2], clocks[-1])
pred = model.predict(planes)
usual = model.history(clocks[-1])
print(f"hot cell (3,3): predicted {pred[3, 3]:.2f}, historical average {usual[3, 3]:.2f}, "
      f"trailing actuals {slots[-1][3, 3]:.0f} and {slots[-2][3, 3]:.0f}")
print(f"cells masked to zero: {int((pred == 0).sum())} of {h * w}")

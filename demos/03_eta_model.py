"""Train the trip-time model on a synthetic workload and inspect it."""

import numpy as np

from fleetsim.clock import Clock, periodic_features
from fleetsim.eta import eta_features, train_eta
from fleetsim.harness.config import ExperimentConfig

cfg = ExperimentConfig(seed=0)  # the experiment's settings: the learning rate

rng = np.random.default_rng(3)
n = 4000
# origin and destination latitude and longitude, and distance in km, of n trips
coords = rng.uniform([40.0, -74.0, 40.0, -74.0, 0.5], [40.1, -73.9, 40.1, -73.9, 12.0],
                     size=(n, 5))
clocks = [Clock(float(m)) for m in rng.uniform(0, 7 * 1440, size=n)]
# one feature builder: each trip with its own clock's weekday and hour
feats = eta_features(np.array([periodic_features(c) for c in clocks]), *coords.T)
# ground truth: slower at rush hours, plus noise
rush = np.exp(-0.5 * ((np.array([c.hour for c in clocks]) - 8.5) / 1.5) ** 2)
minutes = coords[:, 4] / (21.0 * (1 - 0.3 * rush)) * 60.0 * rng.lognormal(0, 0.08, size=n)

model, metrics = train_eta(feats, minutes, seed=7, epochs=30, lr=cfg.eta_lr)
print(f"train rmse {metrics['eta_train_rmse']:.2f} min, "
      f"validation {metrics['eta_val_rmse']:.2f} min, "
      f"constant-mean baseline {metrics['eta_mean_baseline_rmse']:.2f} min")

peak, off_peak = model.predict(np.vstack([
    eta_features(periodic_features(Clock(hour * 60)), [40.02], [-74.0], [40.05], [-73.95], [6.0])
    for hour in (8.5, 14.0)]))
print(f"6 km trip at 08:30 -> {peak:.1f} min, at 14:00 -> {off_peak:.1f} min")

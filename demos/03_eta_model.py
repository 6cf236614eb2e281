"""Train the trip-time model on a synthetic workload and inspect it."""

import numpy as np

from fleetsim.clock import Clock
from fleetsim.eta import eta_feature_row, mean_predictor_rmse, split_indices, train_eta
from fleetsim.geo import Location

rng = np.random.default_rng(3)
n = 4000
feats = np.zeros((n, 9))
minutes = np.zeros(n)
for i in range(n):
    origin = Location(40.0 + rng.uniform(0, 0.1), -74.0 + rng.uniform(0, 0.1))
    dest = Location(40.0 + rng.uniform(0, 0.1), -74.0 + rng.uniform(0, 0.1))
    clock = Clock(float(rng.uniform(0, 7 * 1440)))
    dist = float(rng.uniform(0.5, 12.0))
    feats[i] = eta_feature_row(origin, dest, clock, dist)
    # ground truth: slower at rush hours, plus noise
    rush = np.exp(-0.5 * ((clock.hour - 8.5) / 1.5) ** 2)
    minutes[i] = dist / (21.0 * (1 - 0.3 * rush)) * 60.0 * rng.lognormal(0, 0.08)

model, train_rmse, val_rmse = train_eta(feats, minutes, seed=7, epochs=30)
tr_idx, va_idx = split_indices(n, 7)
baseline = mean_predictor_rmse(minutes[tr_idx], minutes[va_idx])
print(f"train rmse {train_rmse:.2f} min, validation {val_rmse:.2f} min, "
      f"constant-mean baseline {baseline:.2f} min")

peak, off_peak = model.predict(np.array([
    eta_feature_row(Location(40.02, -74.0), Location(40.05, -73.95), Clock(hour * 60), 6.0)
    for hour in (8.5, 14.0)]))
print(f"6 km trip at 08:30 -> {peak:.1f} min, at 14:00 -> {off_peak:.1f} min")

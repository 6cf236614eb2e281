"""Trip-time regression used for every dispatch and pickup movement.

A small perceptron (two rectifier layers of 32 units, linear scalar
output) maps trip features to minutes.  :func:`eta_features` is the one
builder of those features, for the training trips and for every move
the simulator times.  Inputs are z-scored with statistics from the
training split only; predictions clamp at zero since negative travel
times are meaningless downstream.  The model runs on batches of feature
rows only, and evaluates each row as its own batch of one: a trip's
minutes do not depend on the batch it is timed in.  A long batch, such
as the training trips the fit scores, runs in blocks of
``PREDICT_BLOCK`` rows, so its activations take a fixed amount of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neural

FEATURE_COUNT = 9
VAL_FRACTION = 0.3   # share of the trips held out for validation
BATCH_SIZE = 128     # trips per training minibatch
PREDICT_BLOCK = 1024  # rows per forward pass of EtaModel.predict

ETA_SPEC = (
    neural.Dense(FEATURE_COUNT, 32, "relu"),
    neural.Dense(32, 32, "relu"),
    neural.Dense(32, 1, "linear"),
)


def eta_features(periodic, origin_lats, origin_lons, dest_lats, dest_lons,
                 distance_km) -> np.ndarray:
    """The ``(k, 9)`` features of k trips: weekday and hour trig pairs, endpoint
    coordinates, distance in km.

    ``periodic`` is one :func:`clock.periodic_features` 4-tuple for all k
    trips or a ``(k, 4)`` array of one per trip: scalar ``math`` values
    either way, since numpy's ``sin`` and ``cos`` can differ in the last bit.
    """
    feats = np.empty((len(distance_km), FEATURE_COUNT))
    feats[:, :4] = periodic
    feats[:, 4], feats[:, 5] = origin_lats, origin_lons
    feats[:, 6], feats[:, 7] = dest_lats, dest_lons
    feats[:, 8] = distance_km
    return feats


@dataclass
class EtaModel:
    """Trained regression plus the train-split normalization statistics.

    The network operates in standardized feature and target space; both
    transforms come from the training split only.
    """

    params: list[np.ndarray]
    mean: np.ndarray
    std: np.ndarray
    y_mean: float = 0.0
    y_std: float = 1.0

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Trip minutes of each row of ``(n, 9)`` features, clamped at zero.

        The network runs on stacks ``(k, 1, 9)`` of one-row batches, of
        ``PREDICT_BLOCK`` rows at most, so each row gets the bytes that a
        batch of that row alone gives.  Raises ``ValueError`` on any other
        shape.
        """
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != FEATURE_COUNT:
            raise ValueError(f"expected (n, {FEATURE_COUNT}) features, got {feats.shape}")
        if len(feats) > PREDICT_BLOCK:
            return np.concatenate([self.predict(feats[lo:lo + PREDICT_BLOCK])
                                   for lo in range(0, len(feats), PREDICT_BLOCK)])
        z = (feats - self.mean) / self.std
        raw = neural.forward(ETA_SPEC, self.params, z[:, None, :])[:, 0, 0]
        return np.maximum(raw * self.y_std + self.y_mean, 0.0)


def split_indices(n: int, seed: int):
    """Deterministic shuffled (train, validation) index split, ``VAL_FRACTION`` held out.

    At least one index is held out, and for ``n >= 2`` at least one is kept.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * VAL_FRACTION)))
    return order[n_val:], order[:n_val]


def train_eta(features: np.ndarray, minutes: np.ndarray, seed: int,
              epochs: int, lr: float) -> tuple[EtaModel, dict]:
    """Fit the trip-time perceptron on a shuffled 70/30 split.

    Returns (model, metrics); the baseline predicts the training split's
    mean.  Fully determined by ``seed``.  Raises ``ValueError`` on
    non-finite inputs, or when the fit diverges to non-finite weights.
    """
    feats = np.asarray(features, dtype=np.float64)
    target = np.asarray(minutes, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != FEATURE_COUNT:
        raise ValueError(f"expected (n, {FEATURE_COUNT}) features, got {feats.shape}")
    n = feats.shape[0]
    if n < 2:
        raise ValueError("need at least two trips to fit the ETA model")
    if not (np.isfinite(feats).all() and np.isfinite(target).all()):
        raise ValueError("ETA features and trip minutes must be finite")

    train_idx, val_idx = split_indices(n, seed)
    rng = np.random.default_rng(seed + 1)
    ftr, ttr = feats[train_idx], target[train_idx]
    fva, tva = feats[val_idx], target[val_idx]

    mean = ftr.mean(axis=0)
    std = ftr.std(axis=0)
    std[std < 1e-9] = 1.0
    ztr = (ftr - mean) / std
    y_mean = float(ttr.mean())
    y_std = float(ttr.std())
    if y_std < 1e-9:
        y_std = 1.0
    ytr = (ttr - y_mean) / y_std

    params = neural.init_params(ETA_SPEC, rng)
    # zero head: the standardized-target fit starts at the train mean,
    # which is exact for degenerate (constant) workloads
    params[-2] = np.zeros_like(params[-2])
    neural.fit(ETA_SPEC, params, ztr,
               lambda idx, out: 2.0 * (out - ytr[idx][:, None]) / idx.size,
               rng, epochs, BATCH_SIZE, lr)
    if not neural.all_finite(params):
        raise ValueError(f"the ETA fit diverged to non-finite weights (lr {lr})")

    model = EtaModel(params, mean, std, y_mean, y_std)
    return model, {
        "eta_train_rmse": neural.rmse(model.predict(ftr), ttr),
        "eta_val_rmse": neural.rmse(model.predict(fva), tva),
        "eta_mean_baseline_rmse": neural.rmse(y_mean, tva),
    }

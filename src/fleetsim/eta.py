"""Trip-time regression used for every dispatch and pickup movement.

A small perceptron (two rectifier layers of 32 units, linear scalar
output) maps trip features to minutes.  Inputs are z-scored with
statistics from the training split only; predictions clamp at zero
since negative travel times are meaningless downstream.  The model
runs on batches of feature rows only; one trip is a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neural
from .clock import Clock, periodic_features
from .geo import Location

FEATURE_COUNT = 9
VAL_FRACTION = 0.3   # share of the trips held out for validation
BATCH_SIZE = 128     # trips per training minibatch

ETA_SPEC = (
    neural.Dense(FEATURE_COUNT, 32, "relu"),
    neural.Dense(32, 32, "relu"),
    neural.Dense(32, 1, "linear"),
)


def eta_feature_row(origin: Location, dest: Location, clock: Clock,
                    distance_km: float) -> tuple:
    """Feature values: dow/hour trig pair, endpoint coordinates, distance."""
    sd, cd, sh, ch = periodic_features(clock)
    return (sd, cd, sh, ch, origin.lat, origin.lon, dest.lat, dest.lon, float(distance_km))


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
        """Trip minutes of each row of ``(n, 9)`` features, clamped at zero."""
        z = (np.asarray(features, dtype=np.float64) - self.mean) / self.std
        raw = neural.forward(ETA_SPEC, self.params, z)[:, 0]
        return np.maximum(raw * self.y_std + self.y_mean, 0.0)

    def save(self, path) -> None:
        neural.save_model(path, ETA_SPEC, self.params,
                          extra={"mean": self.mean.tolist(), "std": self.std.tolist(),
                                 "y_mean": self.y_mean, "y_std": self.y_std})

    @classmethod
    def load(cls, path) -> "EtaModel":
        """Read a :meth:`save` checkpoint.

        Raises :class:`neural.CheckpointError`, naming ``path``, when the
        network does not load or a normalization statistic is missing, is
        not a ``(9,)`` array (``mean``, ``std``) or a scalar (``y_mean``,
        ``y_std``), or is not finite.
        """
        params, extra = neural.load_model(path, ETA_SPEC)
        stats = []
        for key, shape in (("mean", (FEATURE_COUNT,)), ("std", (FEATURE_COUNT,)),
                           ("y_mean", ()), ("y_std", ())):
            try:
                value = np.array(extra[key], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise neural.CheckpointError(f"{path}: no usable {key} ({exc!r})") from exc
            if value.shape != shape or not np.isfinite(value).all():
                raise neural.CheckpointError(f"{path}: {key} is not a finite array "
                                             f"of shape {shape}")
            stats.append(value)
        mean, std, y_mean, y_std = stats
        return cls(params, mean, std, float(y_mean), float(y_std))


def _rmse(model: "EtaModel", feats, target) -> float:
    return float(np.sqrt(np.mean((model.predict(feats) - target) ** 2)))


def split_indices(n: int, seed: int):
    """Deterministic shuffled (train, validation) index split, ``VAL_FRACTION`` held out."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * VAL_FRACTION)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        train_idx = val_idx
    return train_idx, val_idx


def train_eta(features: np.ndarray, minutes: np.ndarray, seed: int,
              epochs: int, lr: float = 1e-3) -> tuple[EtaModel, float, float]:
    """Fit the trip-time perceptron on a shuffled 70/30 split.

    Returns (model, train_rmse, val_rmse).  Fully determined by ``seed``.
    Raises ``ValueError`` on non-finite inputs, or when the fit diverges
    to non-finite weights.
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
    opt = neural.RmsProp(lr=lr)
    n_train = ztr.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n_train)
        for start in range(0, n_train, BATCH_SIZE):
            idx = perm[start:start + BATCH_SIZE]
            xb = ztr[idx]
            yb = ytr[idx][:, None]
            out, caches = neural.forward_cached(ETA_SPEC, params, xb)
            d_out = 2.0 * (out - yb) / idx.size
            grads = neural.backward_from_grad(ETA_SPEC, params, caches, d_out)
            opt.step(params, grads)
    if not neural.all_finite(params):
        raise ValueError(f"the ETA fit diverged to non-finite weights (lr {lr})")

    model = EtaModel(params, mean, std, y_mean, y_std)
    return model, _rmse(model, ftr, ttr), _rmse(model, fva, tva)


def mean_predictor_rmse(minutes_train: np.ndarray, minutes_val: np.ndarray) -> float:
    """Baseline: constant mean of the training targets."""
    mu = float(np.mean(minutes_train))
    return float(np.sqrt(np.mean((np.asarray(minutes_val) - mu) ** 2)))

"""Next-30-minute demand heat map prediction.

A three-layer convolutional network (16@5x5, 32@3x3, 1@1x1, all
rectified) maps the last two observed demand heat maps plus four
constant clock planes to a same-sized prediction.  Same padding keeps a
1:1 correspondence between output pixels and grid cells.  Cells with no
pickup in either input heat map are masked to zero at prediction time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import neural
from .clock import Clock, periodic_features

log = logging.getLogger(__name__)

INPUT_PLANES = 6
VAL_FRACTION = 0.3   # share of the timeslots, the latest, held out for validation
BATCH_SIZE = 8       # samples per training minibatch

DEMAND_SPEC = (
    neural.Conv2D(INPUT_PLANES, 16, 5, 5, "relu", "same"),
    neural.Conv2D(16, 32, 3, 3, "relu", "same"),
    neural.Conv2D(32, 1, 1, 1, "relu", "same"),
)


def build_demand_input(heat_prev1: np.ndarray, heat_prev2: np.ndarray,
                       clock: Clock) -> np.ndarray:
    """Stack (heat t-1, heat t-2, sin/cos dow, sin/cos hour) as 6 planes.

    Row-major plane stack: shape (h, w, 6).
    """
    h1 = np.asarray(heat_prev1, dtype=np.float64)
    h2 = np.asarray(heat_prev2, dtype=np.float64)
    if h1.shape != h2.shape or h1.ndim != 2:
        raise ValueError(f"heat maps must share a 2-D shape, got {h1.shape} vs {h2.shape}")
    sd, cd, sh, ch = periodic_features(clock)
    planes = np.empty(h1.shape + (INPUT_PLANES,))
    planes[..., 0] = h1
    planes[..., 1] = h2
    planes[..., 2] = sd
    planes[..., 3] = cd
    planes[..., 4] = sh
    planes[..., 5] = ch
    return planes


@dataclass
class DemandModel:
    params: list[np.ndarray]

    def predict(self, demand_input: np.ndarray) -> np.ndarray:
        """Masked heat map of one ``(h, w, 6)`` input, run as a batch of one:
        cells dark in both input heats predict exactly zero."""
        raw = neural.forward(DEMAND_SPEC, self.params, demand_input[None])[0, ..., 0]
        mask = (demand_input[..., 0] > 0) | (demand_input[..., 1] > 0)
        return np.where(mask, raw, 0.0)


def _samples(slots: np.ndarray, clocks: list[Clock]):
    inputs = [build_demand_input(slots[i - 1], slots[i - 2], clocks[i])
              for i in range(2, slots.shape[0])]
    targets = [slots[i] for i in range(2, slots.shape[0])]
    return np.stack(inputs), np.stack(targets)


def train_slot_count(n_slots: int) -> int:
    """Leading slots of a series that the chronological split trains on; the
    rest validate.  Sample ``i`` predicts slot ``i`` from the two before it."""
    return 2 + max(1, int(round((n_slots - 2) * (1.0 - VAL_FRACTION))))


def train_demand(slots: np.ndarray, clocks: list[Clock], seed: int,
                 epochs: int, lr: float) -> tuple["DemandModel", np.ndarray, dict]:
    """Fit on a chronological split: the first :func:`train_slot_count` slots
    train, the rest validate.  Returns (model, historical, metrics).

    ``historical``, the cold-start fallback and the baseline, is the
    :func:`historical_average` of the training slots.  The RMSEs are per
    cell over all cells of the masked prediction, which is what policy
    consumers observe.  Raises ``ValueError`` when the fit diverges to
    non-finite weights.
    """
    slots = np.asarray(slots, dtype=np.float64)
    if slots.ndim != 3 or slots.shape[0] < 4:
        raise ValueError(f"need a (slots, h, w) series with at least 4 slots, got {slots.shape}")
    if len(clocks) != slots.shape[0]:
        raise ValueError("one clock per slot required")

    inputs, targets = _samples(slots, clocks)
    split = train_slot_count(slots.shape[0])
    xtr, ytr = inputs[:split - 2], targets[:split - 2]
    xva, yva = inputs[split - 2:], targets[split - 2:]
    lit = (xtr[..., 0] > 0) | (xtr[..., 1] > 0)

    def d_loss(idx, out):
        # only mask-lit cells reach consumers, so only they are trained;
        # a loss over the mostly-zero dark cells kills the rectified
        # output layer outright
        lit_b = lit[idx][..., None]
        n_lit = max(1, int(lit_b.sum()))
        return np.where(lit_b, 2.0 * (out - ytr[idx][..., None]) / n_lit, 0.0)

    rng = np.random.default_rng(seed)
    params = neural.init_params(DEMAND_SPEC, rng)
    # start the rectified output layer alive: zero weights, positive bias;
    # dark cells then settle onto the rectifier's zero from above instead
    # of the whole map dying at initialization
    params[-2] = np.zeros_like(params[-2])
    params[-1] = np.ones_like(params[-1])
    neural.fit(DEMAND_SPEC, params, xtr, d_loss, rng, epochs, BATCH_SIZE, lr)
    if not neural.all_finite(params):
        raise ValueError(f"the demand fit diverged to non-finite weights (lr {lr})")

    model = DemandModel(params)
    train_pred = np.stack([model.predict(x) for x in xtr])
    if lit.any() and not train_pred[lit].any():
        log.warning("the demand fit predicts 0 on all %d lit cells of its training split "
                    "(lr %g): the policies will see no demand", int(lit.sum()), lr)
    historical = historical_average(slots[:split], clocks[:split])
    usual = np.stack([historical[c.dow_index, c.hour_index] for c in clocks[split:]])
    return model, historical, {
        "demand_train_rmse": neural.rmse(train_pred, ytr),
        "demand_val_rmse": neural.rmse(np.stack([model.predict(x) for x in xva]), yva),
        "demand_historical_baseline_rmse": neural.rmse(usual, slots[split:]),
    }


def historical_average(slots: np.ndarray, clocks: list[Clock]) -> np.ndarray:
    """Per-cell mean demand by (day-of-week, hour), indexed ``[dow_index, hour_index]``.

    The always-available fallback for cold starts and the baseline the
    trained network must beat.  A bucket without slots holds the mean of
    all slots, or zeros when there are none.  Sums add slots in series order.
    """
    slots = np.asarray(slots, dtype=np.float64)
    buckets = (np.array([c.dow_index for c in clocks], dtype=np.intp),
               np.array([c.hour_index for c in clocks], dtype=np.intp))
    sums = np.zeros((7, 24) + slots.shape[1:])
    counts = np.zeros((7, 24, 1, 1))
    np.add.at(sums, buckets, slots)
    np.add.at(counts, buckets, 1.0)
    total = np.zeros((1,) + slots.shape[1:])
    np.add.at(total, np.zeros(len(slots), dtype=np.intp), slots)
    return np.where(counts > 0, sums / np.maximum(counts, 1.0), total[0] / max(len(slots), 1))

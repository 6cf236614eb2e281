"""End-to-end experiment orchestration: models, policies, episodes, reports.

A run consumes one city directory (trips, roads, partitions), trains or
loads the shared models (ETA, demand, zone tables, optionally the
Q-network), then simulates independent day episodes (4 a.m. to 4 a.m.)
for the configured policy and writes machine-readable summaries.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .. import demand as demand_mod
from .. import dqn as dqn_mod
from .. import eta as eta_mod
from .. import rhc as rhc_mod
from ..clock import Clock
from ..geo import (GridSpec, Location, RegionMap, RegionMapError, block_region_map,
                   cell_arrays)
from ..neural import CheckpointError
from ..roadgraph import load_edge_list
from ..sim import SLOT_MINUTES, EpisodeMetrics, RideRequest, Simulation, finalize_metrics
from .config import ConfigError, ExperimentConfig
from .ingest import ingest_trips
from .synth import SynthCity, synth_city

log = logging.getLogger(__name__)

METRIC_NAMES = ("reject_rate", "mean_wait_minutes", "idle_cruise_per_accepted")
SUMMARY_COLUMNS = (
    "policy", "seed", "day", "total_requests", "rejects", "reject_rate",
    "accepted", "mean_wait_minutes", "idle_cruise_per_accepted",
    "utilization_mean", "utilization_min",
)


@dataclass
class City:
    grid: GridSpec
    graph: object
    regions: RegionMap
    zones: RegionMap
    requests: list[RideRequest]


def city_from_synth(sc: SynthCity) -> City:
    """The synthetic city as a :class:`City`; its requests are ``sc.trips``, not a copy."""
    return City(sc.grid, sc.graph, sc.regions, sc.zones, sc.trips)


def load_city(cfg: ExperimentConfig, data_dir=None) -> City:
    """Read a city directory; its partitions must be the ones the config implies.

    The Q-policy decodes region ids as the ``region_block`` block layout
    and the zone tables hold ``zone_block`` zones, so any other
    ``regions.csv`` or zone count raises :class:`RegionMapError`.
    """
    base = Path(data_dir or cfg.data_dir)
    grid = GridSpec(rows=cfg.fine_rows, cols=cfg.fine_cols, cell_size=cfg.cell_size_m,
                    origin=Location(cfg.origin_lat, cfg.origin_lon))
    epoch = datetime.fromisoformat(cfg.epoch_date)
    requests, report = ingest_trips(base / "trips.csv", grid, epoch)
    log.info("ingested %d trips (%d dropped out-of-bounds, %d non-positive)",
             report.kept, report.dropped_bounds, report.dropped_duration)
    graph = load_edge_list(base / "roads.txt")
    regions = RegionMap.from_csv(base / "regions.csv", grid.rows, grid.cols)
    zones = RegionMap.from_csv(base / "zones.csv", grid.rows, grid.cols)
    blocks = block_region_map(grid, cfg.region_block, cfg.region_block)
    if not np.array_equal(regions.assignment, blocks.assignment):
        raise RegionMapError(f"{base / 'regions.csv'} is not the {cfg.region_block}x"
                             f"{cfg.region_block} block layout set by region_block")
    if zones.region_count != zone_block_count(cfg):
        raise RegionMapError(f"{base / 'zones.csv'} has {zones.region_count} zones, "
                             f"zone_block = {cfg.zone_block} makes {zone_block_count(cfg)}")
    return City(grid, graph, regions, zones, requests)


# --- model training --------------------------------------------------------

def eta_training_arrays(requests: list[RideRequest], cfg: ExperimentConfig):
    feats = np.empty((len(requests), eta_mod.FEATURE_COUNT))
    target = np.empty(len(requests))
    epoch_dow = cfg.epoch_dow
    for i, r in enumerate(requests):
        feats[i] = eta_mod.eta_feature_row(r.pickup, r.dropoff,
                                           Clock(r.minute, epoch_dow), r.distance_km)
        target[i] = r.trip_minutes
    return feats, target


def demand_slot_series(requests: list[RideRequest], grid: GridSpec,
                       total_minutes: float, epoch_dow: int):
    n_slots = int(total_minutes // SLOT_MINUTES)
    slots = np.zeros((n_slots,) + grid.shape)
    lats = np.array([r.pickup.lat for r in requests])
    lons = np.array([r.pickup.lon for r in requests])
    rows, cols = cell_arrays(lats, lons, grid)
    for r, (row, col) in zip(requests, zip(rows, cols)):
        k = int(r.minute // SLOT_MINUTES)
        if 0 <= k < n_slots:
            slots[k, row, col] += 1
    clocks = [Clock(float(k * SLOT_MINUTES), epoch_dow) for k in range(n_slots)]
    return slots, clocks


def zone_trip_arrays(requests: list[RideRequest], zones: RegionMap,
                     grid: GridSpec, epoch_dow: int):
    lats_o = np.array([r.pickup.lat for r in requests])
    lons_o = np.array([r.pickup.lon for r in requests])
    lats_d = np.array([r.dropoff.lat for r in requests])
    lons_d = np.array([r.dropoff.lon for r in requests])
    ro, co = cell_arrays(lats_o, lons_o, grid)
    rd, cd = cell_arrays(lats_d, lons_d, grid)
    origin = zones.assignment[ro, co]
    dest = zones.assignment[rd, cd]
    clocks = [Clock(r.minute, epoch_dow) for r in requests]
    dow = np.array([c.dow_index for c in clocks])
    hour = np.array([c.hour_index for c in clocks])
    minutes = np.array([r.trip_minutes for r in requests])
    return origin, dest, dow, hour, minutes


@dataclass
class ModelBundle:
    eta_model: eta_mod.EtaModel
    demand_model: demand_mod.DemandModel
    historical: np.ndarray    # (7, 24, rows, cols) demand history, see historical_average
    trip_times: np.ndarray    # (7, 24, M, M) zone trip minutes
    destinations: np.ndarray  # (7, 24, M, M) zone destination probabilities
    metrics: dict


def model_paths(cfg: ExperimentConfig) -> dict:
    base = Path(cfg.out_dir) / "models"
    return {
        "eta": base / "eta.json",
        "demand": base / "demand.json",
        "tables": base / "zone_tables.npz",
        "metrics": base / "metrics.json",
        "historical": base / "historical.npy",
        "qnet": base / "qnet.json",
        "dqn_log": base / "dqn_training_log.csv",
    }


def _read_metrics(path: Path) -> dict:
    """The JSON object in the metrics file at ``path``; ``{}`` when there is no file.

    Raises :class:`neural.CheckpointError`, naming ``path``, for a file
    that is not JSON or holds another value than an object.
    """
    if not path.exists():
        return {}
    try:
        metrics = json.loads(path.read_bytes())
    except ValueError as exc:
        raise CheckpointError(f"{path}: unreadable metrics ({exc!r})") from None
    if not isinstance(metrics, dict):
        raise CheckpointError(f"{path}: metrics are a JSON {type(metrics).__name__}, "
                              "not an object")
    return metrics


def _write_metrics(path: Path, metrics: dict) -> None:
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2)


def train_eta_model(cfg: ExperimentConfig, training_city: City):
    """Fit and persist the ETA perceptron and merge its RMSEs into
    ``metrics.json``; returns (model, metrics)."""
    paths = model_paths(cfg)
    # read first: a broken record fails before a model is trained and saved
    recorded = _read_metrics(paths["metrics"])
    paths["eta"].parent.mkdir(parents=True, exist_ok=True)
    feats, target = eta_training_arrays(training_city.requests, cfg)
    model, tr_rmse, va_rmse = eta_mod.train_eta(
        feats, target, seed=cfg.train_seed, epochs=cfg.eta_epochs, lr=cfg.eta_lr)
    tr_idx, va_idx = eta_mod.split_indices(len(target), cfg.train_seed)
    metrics = {
        "eta_train_rmse": tr_rmse,
        "eta_val_rmse": va_rmse,
        "eta_mean_baseline_rmse": eta_mod.mean_predictor_rmse(
            target[tr_idx], target[va_idx]),
    }
    model.save(paths["eta"])
    _write_metrics(paths["metrics"], {**recorded, **metrics})
    return model, metrics


def train_demand_model(cfg: ExperimentConfig, training_city: City):
    """Fit and persist the demand network plus the historical fallback,
    and merge their RMSEs into ``metrics.json``.

    Returns (model, historical, metrics); the fallback is fit on the
    training split only, making it a fair baseline and a cold-start
    predictor.
    """
    paths = model_paths(cfg)
    recorded = _read_metrics(paths["metrics"])
    paths["demand"].parent.mkdir(parents=True, exist_ok=True)
    total_minutes = cfg.train_days * 1440.0
    slots, clocks = demand_slot_series(training_city.requests, training_city.grid,
                                       total_minutes, cfg.epoch_dow)
    model, tr_rmse, va_rmse = demand_mod.train_demand(
        slots, clocks, seed=cfg.train_seed, epochs=cfg.demand_epochs,
        lr=cfg.demand_lr)
    split = demand_mod.train_slot_count(slots.shape[0])
    historical = demand_mod.historical_average(slots[:split], clocks[:split])
    errs = [(historical[c.dow_index, c.hour_index] - slot) ** 2
            for slot, c in zip(slots[split:], clocks[split:])]
    metrics = {
        "demand_train_rmse": tr_rmse,
        "demand_val_rmse": va_rmse,
        "demand_historical_baseline_rmse": float(np.sqrt(np.mean(errs))),
    }
    model.save(paths["demand"])
    np.save(paths["historical"], historical)
    _write_metrics(paths["metrics"], {**recorded, **metrics})
    return model, historical, metrics


def build_zone_tables(cfg: ExperimentConfig, training_city: City):
    """Estimate and persist the trip-time and destination tables."""
    paths = model_paths(cfg)
    paths["tables"].parent.mkdir(parents=True, exist_ok=True)
    origin, dest, dow, hour, minutes = zone_trip_arrays(
        training_city.requests, training_city.zones, training_city.grid, cfg.epoch_dow)
    dist = rhc_mod.zone_centroid_distances(training_city.zones, training_city.grid)
    trip_times, destinations = rhc_mod.estimate_tables(
        origin, dest, dow, hour, minutes, training_city.zones.region_count,
        centroid_dist_m=dist)
    rhc_mod.save_tables(paths["tables"], trip_times, destinations)
    return trip_times, destinations


def train_models(cfg: ExperimentConfig, training_city: City) -> ModelBundle:
    """Fit ETA, demand and zone tables on the training city and persist them."""
    # a fresh record: no key, nor an unreadable file, survives from an older one
    model_paths(cfg)["metrics"].unlink(missing_ok=True)
    eta_model, eta_metrics = train_eta_model(cfg, training_city)
    demand_model, historical, demand_metrics = train_demand_model(cfg, training_city)
    trip_times, destinations = build_zone_tables(cfg, training_city)
    metrics = {**eta_metrics, **demand_metrics}
    return ModelBundle(eta_model, demand_model, historical, trip_times,
                       destinations, metrics)


def load_models(cfg: ExperimentConfig, zone_count: int) -> ModelBundle:
    paths = model_paths(cfg)
    eta_model = eta_mod.EtaModel.load(paths["eta"])
    demand_model = demand_mod.DemandModel.load(paths["demand"])
    historical = rhc_mod.load_table(paths["historical"],
                                    (7, 24, cfg.fine_rows, cfg.fine_cols))
    trip_times, destinations = rhc_mod.load_tables(paths["tables"], zone_count)
    return ModelBundle(eta_model, demand_model, historical, trip_times,
                       destinations, _read_metrics(paths["metrics"]))


def training_city(cfg: ExperimentConfig) -> City:
    return city_from_synth(synth_city(cfg, cfg.train_seed, cfg.train_days))


def ensure_models(cfg: ExperimentConfig) -> ModelBundle:
    paths = model_paths(cfg)
    if all(paths[k].exists() for k in ("eta", "demand", "tables", "historical")):
        return load_models(cfg, zone_block_count(cfg))
    return train_models(cfg, training_city(cfg))


def zone_block_count(cfg: ExperimentConfig) -> int:
    return (cfg.fine_rows // cfg.zone_block) * (cfg.fine_cols // cfg.zone_block)


# --- demand predictors -----------------------------------------------------

# episode minutes before the two trailing demand slots are complete
COLD_START_MINUTES = 2.0 * SLOT_MINUTES


class ModelDemandPredictor:
    """Next-30-minute fine heat map from the trained network.

    For the first hour of an episode the two trailing demand slots are
    not yet complete and the masking rule would blank the map, so a
    historical-average fallback, the table of :func:`demand.historical_average`,
    covers the cold start.  With ``floor_with_history`` the map is
    elementwise floored at the historical average: the masking rule predicts exactly zero in cells
    without recent pickups, a known underestimate that would otherwise
    hide sparse-area shortages from the zone optimizer.
    """

    def __init__(self, model: demand_mod.DemandModel, fallback: np.ndarray,
                 floor_with_history: bool = False):
        self.model = model
        self.fallback = fallback
        self.floor_with_history = floor_with_history

    def __call__(self, view):
        history = self.fallback[view.clock.dow_index, view.clock.hour_index]
        if view.t < COLD_START_MINUTES:
            return history
        planes = demand_mod.build_demand_input(view.heat_prev1, view.heat_prev2,
                                               view.clock)
        heat = self.model.predict(planes)
        if self.floor_with_history:
            heat = np.maximum(heat, history)
        return heat


# --- policies and episodes ---------------------------------------------------

def region_shape(cfg: ExperimentConfig) -> tuple[int, int]:
    return (cfg.fine_rows // cfg.region_block, cfg.fine_cols // cfg.region_block)


def make_policy(cfg: ExperimentConfig, policy_name: str, city: City,
                bundle: ModelBundle, qnet: dqn_mod.QNetwork | None = None):
    if policy_name == "none":
        return None
    if policy_name == "rhc":
        predictor = ModelDemandPredictor(bundle.demand_model, bundle.historical,
                                         floor_with_history=True)
        return rhc_mod.RhcPolicy(
            zones=city.zones, trip_times=bundle.trip_times,
            destinations=bundle.destinations, demand_predictor=predictor,
            future_demand=bundle.historical,
            reject_penalty=cfg.rhc_reject_penalty, discount=cfg.rhc_discount,
            slot_minutes=cfg.rhc_slot_minutes, horizon=cfg.rhc_horizon)
    if policy_name in ("dqn", "dqn_star"):
        if qnet is None:
            raise ConfigError("a trained Q-network is required for DQN policies")
        predictor = ModelDemandPredictor(bundle.demand_model, bundle.historical)
        return dqn_mod.DqnPolicy(
            qnet, city.regions, region_shape(cfg), predictor,
            decision_interval=cfg.dqn_decision_interval,
            cycle=1 if policy_name == "dqn" else cfg.rhc_slot_minutes)
    raise ConfigError(f"unknown policy {policy_name!r}")


def day_window(cfg: ExperimentConfig, day: int) -> tuple[float, float]:
    start = day * 1440.0 + cfg.day_start_hour * 60.0
    return start, start + 1440.0


def city_days(cfg: ExperimentConfig) -> int:
    """Calendar days of trips the ``cfg.days`` day windows cover, the last
    window's hours after midnight included."""
    return math.ceil(day_window(cfg, cfg.days - 1)[1] / 1440.0)


def episode_requests(requests: list[RideRequest], start: float, end: float
                     ) -> list[RideRequest]:
    out = []
    for r in requests:
        if start <= r.minute < end:
            out.append(RideRequest(rid=r.rid, minute=r.minute - start,
                                   pickup=r.pickup, dropoff=r.dropoff,
                                   trip_minutes=r.trip_minutes,
                                   distance_km=r.distance_km))
    return out


def make_simulation(cfg: ExperimentConfig, city: City, bundle: ModelBundle,
                    requests: list[RideRequest], policy, start: float) -> Simulation:
    """The configured fleet on ``city``'s roads, serving ``requests`` from minute ``start``."""
    return Simulation(city.grid, city.graph, bundle.eta_model, requests,
                      n_vehicles=cfg.vehicles, policy=policy,
                      clock0=Clock(start, cfg.epoch_dow),
                      warmup=cfg.warmup_minutes,
                      match_radius_m=cfg.match_radius_m,
                      idle_window=cfg.idle_window_minutes)


def run_episode(cfg: ExperimentConfig, city: City, bundle: ModelBundle,
                policy_name: str, day: int, qnet=None):
    start, end = day_window(cfg, day)
    reqs = episode_requests(city.requests, start, end)
    policy = make_policy(cfg, policy_name, city, bundle, qnet)
    metrics = make_simulation(cfg, city, bundle, reqs, policy, start).run(1440)
    return metrics, finalize_metrics(metrics)


def sum_metrics(days: list[EpisodeMetrics]) -> EpisodeMetrics:
    """The accumulators of day episodes added in day order; hourly buckets by hour."""
    total = EpisodeMetrics(n_vehicles=days[0].n_vehicles)
    for m in days:
        total.total_requests += m.total_requests
        total.rejects += m.rejects
        total.accepted += m.accepted
        total.wait_sum += m.wait_sum
        total.cruise_sum += m.cruise_sum
        total.elapsed_minutes += m.elapsed_minutes
        total.occupied_minutes += m.occupied_minutes
        for hour, bucket in m.hourly.items():
            acc = total.hour_bucket(hour)
            for key, value in bucket.items():
                acc[key] += value
    return total


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_summary_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_COLUMNS)
        for row in rows:
            w.writerow([_fmt(row.get(col)) for col in SUMMARY_COLUMNS])


def emit_plot_data(path, policy: str, seed: int, day_reports: list[dict]) -> None:
    """Hourly time series: one row per simulated hour per metric."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["policy", "seed", "day", "hour", "metric", "value"])
        for day, report in enumerate(day_reports):
            for bucket in report["hourly"]:
                for metric in METRIC_NAMES:
                    w.writerow([policy, seed, day, bucket["hour"], metric,
                                _fmt(bucket.get(metric))])


def run_experiment(cfg: ExperimentConfig, city: City | None = None,
                   bundle: ModelBundle | None = None, qnet=None) -> dict:
    """Simulate all configured days; write summary and plot CSVs.

    Returns a dict with per-day reports, the aggregate report, and file
    paths.  Identical configurations and seeds produce byte-identical
    output files.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # models first: stale cached tables report their own error, not the
    # zone-count check in load_city
    if bundle is None:
        bundle = ensure_models(cfg)
    if city is None:
        if (Path(cfg.data_dir) / "trips.csv").exists():
            city = load_city(cfg)
        else:
            city = city_from_synth(synth_city(cfg, cfg.seed, city_days(cfg)))
    if cfg.policy in ("dqn", "dqn_star") and qnet is None:
        qnet_path = model_paths(cfg)["qnet"]
        if not qnet_path.exists():
            raise ConfigError("no trained Q-network found; run train-dqn first")
        qnet, _ = dqn_mod.QNetwork.load(qnet_path)

    day_metrics, day_reports, rows = [], [], []
    for day in range(cfg.days):
        metrics, report = run_episode(cfg, city, bundle, cfg.policy, day, qnet)
        day_metrics.append(metrics)
        day_reports.append(report)
        rows.append({"policy": cfg.policy, "seed": cfg.seed, "day": day, **report})
    aggregate = {"policy": cfg.policy, "seed": cfg.seed, "day": "all",
                 **finalize_metrics(sum_metrics(day_metrics))}
    rows.append(aggregate)

    summary_path = out / f"summary_{cfg.policy}_{cfg.seed}.csv"
    plot_path = out / f"plot_{cfg.policy}_{cfg.seed}.csv"
    write_summary_csv(summary_path, rows)
    emit_plot_data(plot_path, cfg.policy, cfg.seed, day_reports)
    return {
        "rows": rows,
        "aggregate": aggregate,
        "day_reports": day_reports,
        "summary_path": str(summary_path),
        "plot_path": str(plot_path),
    }


# --- DQN training ------------------------------------------------------------

def train_dqn(cfg: ExperimentConfig, city: City | None = None,
              bundle: ModelBundle | None = None, steps: int | None = None):
    """Train the Q-network inside the simulator on the training city.

    One continuous run starting at the configured day-start hour; a
    training step follows every simulated minute after warmup.  Returns
    (QNetwork, training log rows) and persists both.  A run that would
    outlast the ``train_days`` of the training city raises
    :class:`ConfigError` before anything is trained or written.
    """
    if steps is None:
        steps = cfg.dqn_train_steps
    end = cfg.day_start_hour * 60 + cfg.warmup_minutes + steps
    if end > cfg.train_days * 1440:
        raise ConfigError(
            f"DQN training of {steps} steps runs to minute {end}, past the "
            f"{cfg.train_days * 1440} minutes of the train_days = {cfg.train_days} "
            "training city; lower dqn_train_steps or raise train_days")
    if city is None:
        city = training_city(cfg)
    if bundle is None:
        bundle = ensure_models(cfg)
    training = dqn_mod.Training(
        reject_weight=cfg.dqn_reject_weight, discount=cfg.dqn_discount,
        seed=cfg.train_seed, lr=cfg.dqn_lr, batch_size=cfg.dqn_batch,
        buffer_capacity=cfg.dqn_buffer, eps_ramp=cfg.dqn_eps_ramp,
        alpha_ramp=cfg.dqn_alpha_ramp, sync_period=cfg.dqn_sync_period)
    net = dqn_mod.QNetwork.create(np.random.default_rng(cfg.train_seed))
    predictor = ModelDemandPredictor(bundle.demand_model, bundle.historical)
    policy = dqn_mod.DqnPolicy(net, city.regions, region_shape(cfg), predictor,
                               decision_interval=cfg.dqn_decision_interval,
                               training=training)

    start = cfg.day_start_hour * 60.0
    total_minutes = cfg.warmup_minutes + steps
    # slice generously so fleet placement always has enough requests even
    # for very short training runs
    span = max(total_minutes + 1.0, 1440.0)
    reqs = episode_requests(city.requests, start, start + span)
    if len(reqs) < cfg.vehicles:
        raise ConfigError("training city too small for the configured fleet")
    sim = make_simulation(cfg, city, bundle, reqs, policy, start)
    for minute in range(total_minutes):
        sim.step_minute()
        if minute >= cfg.warmup_minutes:
            policy.train_tick()

    paths = model_paths(cfg)
    paths["qnet"].parent.mkdir(parents=True, exist_ok=True)
    net.save(paths["qnet"], extra={"steps": steps})
    dqn_mod.write_training_log(paths["dqn_log"], policy.training_log)
    return net, policy.training_log

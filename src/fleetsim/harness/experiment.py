"""End-to-end experiment orchestration: models, policies, episodes, reports.

A run takes one city, synthesised in memory from the config and its seed,
trains or loads the shared models (ETA, demand, zone tables, optionally
the Q-network), then simulates independent day episodes (4 a.m. to
4 a.m.) for the configured policy and writes machine-readable summaries.

Set-up (:func:`train_models`, the ``train-models`` command) is the one
way the models are built, and the one place the program uses a second
process: the demand fit, with its historical table, runs in a forked
worker while this process fits the ETA model and the zone tables.  The
worker is a copy of this process, BLAS thread setting included, and
each fit runs start to end in one process, so ``models.npz`` is byte
for byte the file the same fits give in one process.
The simulator and the policies run in one process.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import demand as demand_mod
from .. import dqn as dqn_mod
from .. import eta as eta_mod
from .. import neural
from .. import rhc as rhc_mod
from ..clock import Clock, periodic_features
from ..geo import GridSpec, RegionMap, cell_arrays
from ..roadgraph import RoadGraph
from ..sim import SLOT_MINUTES, EpisodeMetrics, Simulation, Trips, finalize_metrics
from .config import ConfigError, ExperimentConfig
from .synth import SynthCity, synth_city

METRIC_NAMES = ("reject_rate", "mean_wait_minutes", "idle_cruise_per_accepted")
SUMMARY_COLUMNS = (
    "policy", "seed", "day", "total_requests", "rejects", "reject_rate",
    "accepted", "mean_wait_minutes", "idle_cruise_per_accepted",
    "utilization_mean", "utilization_min",
)


@dataclass
class City:
    """A city's layout, roads and requests.

    ``requests`` is always a :class:`sim.Trips`: a sequence of requests
    given in its place, such as a list of :class:`sim.RideRequest`, is
    stored as the columns of its rows, in the given order; the set-up
    and the episodes read only these columns.
    """

    grid: GridSpec
    graph: RoadGraph
    regions: RegionMap
    zones: RegionMap
    requests: Trips

    def __post_init__(self):
        self.requests = Trips.of(self.requests)


def city_from_synth(sc: SynthCity) -> City:
    """The synthetic city as a :class:`City`; its requests are ``sc.trips``, not a copy."""
    return City(sc.grid, sc.graph, sc.regions, sc.zones, sc.trips)


def _check_fleet_windows(cfg: ExperimentConfig, requests: Trips,
                         windows: list[tuple[float, float]]) -> None:
    """Raise :class:`ConfigError` when a window ``[start, end)`` holds fewer
    requests than the vehicles placed at their pickups."""
    for start, end in windows:
        count = int(np.count_nonzero((start <= requests.minute) & (requests.minute < end)))
        if count < cfg.vehicles:
            raise ConfigError(f"the window from minute {start:g} has {count} requests, "
                              f"fewer than the {cfg.vehicles} vehicles it places at their "
                              "pickups; lower vehicles or raise trips_per_day")


# --- model training --------------------------------------------------------
# The set-up arrays read the columns of a :class:`sim.Trips`; only the clock
# features are per request, in scalar ``math``.

def eta_training_arrays(requests: Trips, cfg: ExperimentConfig):
    """The :func:`eta.eta_features` of the requests, each at its own clock, and
    their trip minutes."""
    periodic = np.array([periodic_features(Clock(m, cfg.epoch_dow))
                         for m in requests.minute.tolist()]).reshape(-1, 4)
    return (eta_mod.eta_features(periodic, requests.pickup_lat, requests.pickup_lon,
                                 requests.dropoff_lat, requests.dropoff_lon,
                                 requests.distance_km),
            requests.trip_minutes)


def demand_slot_series(requests: Trips, grid: GridSpec, total_minutes: float, epoch_dow: int):
    """Pickups per heat-map slot and cell over ``[0, total_minutes)``, and each
    slot's clock."""
    n_slots = int(total_minutes // SLOT_MINUTES)
    slots = np.zeros((n_slots,) + grid.shape)
    rows, cols = cell_arrays(requests.pickup_lat, requests.pickup_lon, grid)
    k = requests.minute // SLOT_MINUTES
    inside = (0 <= k) & (k < n_slots)
    np.add.at(slots, (k[inside].astype(np.intp), rows[inside], cols[inside]), 1.0)
    clocks = [Clock(float(k * SLOT_MINUTES), epoch_dow) for k in range(n_slots)]
    return slots, clocks


def zone_trip_arrays(requests: Trips, zones: RegionMap, epoch_dow: int):
    """Each request's origin and destination zone, weekday and hour index, and
    trip minutes."""
    ro, co = cell_arrays(requests.pickup_lat, requests.pickup_lon, zones.grid)
    rd, cd = cell_arrays(requests.dropoff_lat, requests.dropoff_lon, zones.grid)
    clocks = [Clock(m, epoch_dow) for m in requests.minute.tolist()]
    dow = np.array([c.dow_index for c in clocks])
    hour = np.array([c.hour_index for c in clocks])
    return (zones.assignment[ro, co], zones.assignment[rd, cd], dow, hour,
            requests.trip_minutes)


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
        "models": base / "models.npz",
        "metrics": base / "metrics.json",
        "qnet": base / "qnet.npz",
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
        raise neural.CheckpointError(f"{path}: unreadable metrics ({exc!r})") from None
    if not isinstance(metrics, dict):
        raise neural.CheckpointError(f"{path}: metrics are a JSON "
                                     f"{type(metrics).__name__}, not an object")
    return metrics


def train_eta_model(cfg: ExperimentConfig, training_city: City):
    """Fit the ETA perceptron; returns (model, metrics)."""
    feats, target = eta_training_arrays(training_city.requests, cfg)
    return eta_mod.train_eta(feats, target, seed=cfg.train_seed, epochs=cfg.eta_epochs,
                             lr=cfg.eta_lr)


def train_demand_model(fitted):
    """Wait for the demand fit: ``fitted()`` returns (model, historical, metrics)
    as :func:`demand.train_demand` does; :func:`train_models` passes the
    result of its worker.  A function of its own, so that the wait can be
    timed by name."""
    return fitted()


def build_zone_tables(cfg: ExperimentConfig, training_city: City):
    """Estimate the trip-time and destination tables; returns (minutes, prob)."""
    origin, dest, dow, hour, minutes = zone_trip_arrays(
        training_city.requests, training_city.zones, cfg.epoch_dow)
    dist = rhc_mod.zone_centroid_distances(training_city.zones)
    return rhc_mod.estimate_tables(origin, dest, dow, hour, minutes,
                                   training_city.zones.region_count, centroid_dist_m=dist)


# glibc's mallopt parameters, and the worker's values for them: no array of
# the demand fit is mapped on its own, and no free hands the heap back
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_TRIM_BYTES, _WORKER_MMAP_BYTES = 256 << 20, 64 << 20


def _keep_heap() -> None:
    """Let this process keep the heap it frees until it exits, through glibc's
    ``mallopt``; a libc without ``mallopt`` is left as it is.

    By default glibc maps each array of more than 128 KiB on its own and
    hands freed heap back to the kernel, so the demand fit faults its
    pages in again for every minibatch: at 3 training days and 4 epochs,
    the worker took 37.4k minor faults, against 13.5k with the heap kept.
    The process's RSS then stays at its high-water mark until it exits.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_BYTES)


def _send_outcome(conn, fn) -> None:
    """The worker's body: keep the heap (:func:`_keep_heap`), then send
    ``(True, fn())``, or ``(False, exception)``."""
    _keep_heap()
    try:
        outcome = (True, fn())
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        outcome = (False, exc)
    conn.send(outcome)


class _ForkedCall:
    """``fn()`` running in a forked worker process, for one ``with`` block.

    :meth:`result` waits for the value ``fn`` returns, or raises the
    exception it raised.  Leaving the block reaps the worker, killing it
    first if its result was never taken.  A worker that cannot start
    raises :class:`RuntimeError`, not the ``OSError`` of ``fork``.
    The worker keeps the heap it frees (:func:`_keep_heap`), so its RSS
    stays at its high-water mark until it exits; this process's
    allocator is untouched.  ``fork``, not ``spawn``: the worker reads
    the training city as this process holds it, instead of being sent a
    copy, and the program starts no threads of its own that a fork could
    break.
    """

    def __init__(self, fn):
        ctx = multiprocessing.get_context("fork")
        try:
            self._conn, sender = ctx.Pipe(duplex=False)
        except OSError as exc:
            raise RuntimeError(f"cannot start a worker process: {exc}") from exc
        self._proc = ctx.Process(target=_send_outcome, args=(sender, fn), daemon=True)
        self._taken = False
        try:
            self._proc.start()
        except OSError as exc:
            self._conn.close()
            raise RuntimeError(f"cannot start a worker process: {exc}") from exc
        finally:
            sender.close()

    def result(self):
        try:
            ok, value = self._conn.recv()
        except EOFError:
            self._proc.join()
            raise RuntimeError(f"the worker process exited with code "
                               f"{self._proc.exitcode} before sending a result") from None
        self._taken = True
        if not ok:
            raise value
        return value

    def __enter__(self) -> "_ForkedCall":
        return self

    def __exit__(self, *exc) -> None:
        if not self._taken:
            self._proc.kill()
        self._proc.join()
        self._conn.close()


def save_models(cfg: ExperimentConfig, bundle: ModelBundle) -> None:
    """Write ``bundle`` to ``models.npz``, and its metrics to ``metrics.json``:
    :func:`load_models` reads both back bit for bit."""
    paths = model_paths(cfg)
    paths["models"].parent.mkdir(parents=True, exist_ok=True)
    eta = bundle.eta_model
    neural.write_model_file(
        paths["models"],
        {"eta": (eta_mod.ETA_SPEC, eta.params),
         "demand": (demand_mod.DEMAND_SPEC, bundle.demand_model.params)},
        {"eta_mean": eta.mean, "eta_std": eta.std, "eta_y_mean": eta.y_mean,
         "eta_y_std": eta.y_std, "historical": bundle.historical,
         "minutes": bundle.trip_times, "prob": bundle.destinations})
    with open(paths["metrics"], "w") as fh:
        json.dump(bundle.metrics, fh, indent=2)


def train_models(cfg: ExperimentConfig, training_city: City) -> ModelBundle:
    """Fit ETA, demand and zone tables on the training city and save them.

    The demand slot series is built once, here.  The demand fit
    (:func:`demand.train_demand` on that series, the historical table
    included) runs in a forked worker while this process fits the ETA
    model and builds the zone tables; the worker inherits the series and
    this process's BLAS thread setting, and each fit runs whole in one
    process.  The worker keeps its freed heap for the fit's minibatches
    instead of faulting it in again; the benchmark's ``peak_rss_mb``,
    read from this process alone, does not see the worker.  Each fit
    scores itself and its baseline on its own split.
    The worker is reaped on every path, and its exception is raised here
    with its type and message.  Only after every fit does
    :func:`save_models` write the models and their metrics, the ETA's
    RMSEs, then the demand's; a failed fit writes no file.
    """
    slots, clocks = demand_slot_series(training_city.requests, training_city.grid,
                                       cfg.train_days * 1440.0, cfg.epoch_dow)
    with _ForkedCall(lambda: demand_mod.train_demand(
            slots, clocks, seed=cfg.train_seed, epochs=cfg.demand_epochs,
            lr=cfg.demand_lr)) as fit:
        eta_model, eta_metrics = train_eta_model(cfg, training_city)
        trip_times, destinations = build_zone_tables(cfg, training_city)
        demand_model, historical, demand_metrics = train_demand_model(fit.result)
    bundle = ModelBundle(eta_model, demand_model, historical, trip_times, destinations,
                         {**eta_metrics, **demand_metrics})
    save_models(cfg, bundle)
    return bundle


def load_models(cfg: ExperimentConfig) -> ModelBundle:
    """The models that :func:`save_models` wrote for ``cfg``, the history and the
    zone tables checked against the grid and the zones of
    :meth:`ExperimentConfig.layout`."""
    paths = model_paths(cfg)
    grid, _, zones = cfg.layout()
    m = zones.region_count
    nets, a = neural.read_model_file(
        paths["models"], {"eta": eta_mod.ETA_SPEC, "demand": demand_mod.DEMAND_SPEC},
        {"eta_mean": (eta_mod.FEATURE_COUNT,), "eta_std": (eta_mod.FEATURE_COUNT,),
         "eta_y_mean": (), "eta_y_std": (), "historical": (7, 24) + grid.shape,
         "minutes": (7, 24, m, m), "prob": (7, 24, m, m)})
    rhc_mod.check_tables(paths["models"], a["minutes"], a["prob"])
    eta_model = eta_mod.EtaModel(nets["eta"], a["eta_mean"], a["eta_std"],
                                 float(a["eta_y_mean"]), float(a["eta_y_std"]))
    return ModelBundle(eta_model, demand_mod.DemandModel(nets["demand"]), a["historical"],
                       a["minutes"], a["prob"], _read_metrics(paths["metrics"]))


def training_city(cfg: ExperimentConfig) -> City:
    return city_from_synth(synth_city(cfg, cfg.train_seed, cfg.train_days))


def ensure_models(cfg: ExperimentConfig, city: City | None = None) -> ModelBundle:
    """The saved models, or, without a ``models.npz``, the models trained on
    ``city``, the training city of ``cfg``, synthesised when not given."""
    if model_paths(cfg)["models"].exists():
        return load_models(cfg)
    return train_models(cfg, training_city(cfg) if city is None else city)


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
            qnet, city.regions, predictor,
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


def episode_requests(requests: Trips, start: float, end: float) -> Trips:
    """The requests of minutes ``[start, end)``, in order, their minutes counted
    from ``start``."""
    keep = (start <= requests.minute) & (requests.minute < end)
    cols = [getattr(requests, name)[keep] for name in Trips.FIELDS]
    cols[1] = cols[1] - start
    return Trips(*cols)


def make_simulation(cfg: ExperimentConfig, city: City, bundle: ModelBundle,
                    requests: Trips, policy, start: float) -> Simulation:
    """The configured fleet on ``city``'s roads, serving ``requests`` from minute ``start``.

    Vehicle ``k`` starts at the ``k``-th request's pickup; the callers check
    the window with :func:`_check_fleet_windows` before any model is trained.
    """
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
    """Hourly time series: one row per simulated hour per metric.

    An hour is counted from the episode's start, ``day_start_hour`` (4 a.m. by
    default), not on the clock: hour ``h`` holds the requests and the cruising
    of episode minutes ``[60h, 60h + 60)``, the minutes that
    :func:`episode_requests` counts from the window's start.  Only minutes after
    the warm-up are measured, so with the default 30-minute warm-up hour 0
    holds only its last 30 minutes.
    """
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
    output files at one BLAS thread count.  The command line pins numpy's
    OpenBLAS to one thread (:func:`blas.pin_one_thread`); another caller
    fixes the count itself.  Where numpy ships no OpenBLAS, nothing is
    pinned, and outputs are byte-identical only between runs on the same
    BLAS at the same thread count, which that BLAS's own settings fix.
    The city is ``city``, else the city of ``cfg.seed`` synthesised in
    memory.  A DQN policy without a saved Q-network or with one that
    :func:`load_qnet` refuses, or a day window with fewer requests than
    vehicles, raises its error before any model is trained.
    """
    # the Q-network first: a run that cannot use the models trains none
    if cfg.policy in ("dqn", "dqn_star") and qnet is None:
        qnet_path = model_paths(cfg)["qnet"]
        if not qnet_path.exists():
            raise ConfigError("no trained Q-network found; run train-dqn first")
        qnet = load_qnet(qnet_path)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the city next: a day window shorter than the fleet fails before any
    # model is trained
    if city is None:
        city = city_from_synth(synth_city(cfg, cfg.seed, city_days(cfg)))
    _check_fleet_windows(cfg, city.requests, [day_window(cfg, day) for day in range(cfg.days)])
    if bundle is None:
        bundle = ensure_models(cfg)

    total = EpisodeMetrics(occupied_minutes=np.zeros(cfg.vehicles))
    day_reports, rows = [], []
    for day in range(cfg.days):
        metrics, report = run_episode(cfg, city, bundle, cfg.policy, day, qnet)
        total.add(metrics)
        day_reports.append(report)
        rows.append({"policy": cfg.policy, "seed": cfg.seed, "day": day, **report})
    aggregate = {"policy": cfg.policy, "seed": cfg.seed, "day": "all",
                 **finalize_metrics(total)}
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

def load_qnet(path) -> dqn_mod.QNetwork:
    """The Q-network that :func:`train_dqn` saved at ``path``.

    Raises :class:`neural.CheckpointError`, naming ``path``, when the file
    does not read as the network of ``dqn.Q_SPEC`` with its ``steps`` and
    ``minibatches`` counts, or when the network trained no minibatch.
    """
    nets, counts = neural.read_model_file(path, {"qnet": dqn_mod.Q_SPEC},
                                          {"steps": (), "minibatches": ()})
    if counts["minibatches"] == 0:
        raise neural.CheckpointError(
            f"{path}: minibatches is 0: the Q-network trained no minibatch, since its "
            "replay never held dqn_batch transitions; rerun train-dqn with more "
            "dqn_train_steps or a smaller dqn_batch")
    return dqn_mod.QNetwork(nets["qnet"])


def train_dqn(cfg: ExperimentConfig, city: City | None = None,
              bundle: ModelBundle | None = None, steps: int | None = None):
    """Train the Q-network inside the simulator on the training city.

    One continuous run starting at the configured day-start hour; a
    training step follows every simulated minute after warmup.  Returns
    (QNetwork, training log rows) and saves both: ``qnet.npz`` holds the
    network, the ``steps`` run and the ``minibatches`` trained, the log's
    rows with a finite loss.  A run that would outlast the ``train_days``
    of the training city, or whose window holds fewer requests than
    vehicles, raises :class:`ConfigError` before anything is trained or
    written.  Missing models are trained on ``city``, the training city,
    so a fresh run synthesises it once.
    """
    if steps is None:
        steps = cfg.dqn_train_steps
    end = cfg.day_start_hour * 60 + cfg.warmup_minutes + steps
    if end > cfg.train_days * 1440:
        raise ConfigError(
            f"DQN training of {steps} steps runs to minute {end}, past the "
            f"{cfg.train_days * 1440} minutes of the train_days = {cfg.train_days} "
            "training city; lower dqn_train_steps or raise train_days")
    start = cfg.day_start_hour * 60.0
    total_minutes = cfg.warmup_minutes + steps
    # slice generously so fleet placement always has enough requests even
    # for very short training runs
    span = max(total_minutes + 1.0, 1440.0)
    if city is None:
        city = training_city(cfg)
    _check_fleet_windows(cfg, city.requests, [(start, start + span)])
    if bundle is None:
        bundle = ensure_models(cfg, city)
    training = dqn_mod.Training(
        reject_weight=cfg.dqn_reject_weight, discount=cfg.dqn_discount,
        seed=cfg.train_seed, lr=cfg.dqn_lr, batch_size=cfg.dqn_batch,
        buffer_capacity=cfg.dqn_buffer, eps_ramp=cfg.dqn_eps_ramp,
        alpha_ramp=cfg.dqn_alpha_ramp, sync_period=cfg.dqn_sync_period)
    net = dqn_mod.QNetwork.create(np.random.default_rng(cfg.train_seed))
    predictor = ModelDemandPredictor(bundle.demand_model, bundle.historical)
    policy = dqn_mod.DqnPolicy(net, city.regions, predictor,
                               decision_interval=cfg.dqn_decision_interval,
                               training=training)

    reqs = episode_requests(city.requests, start, start + span)
    sim = make_simulation(cfg, city, bundle, reqs, policy, start)
    for minute in range(total_minutes):
        sim.step_minute()
        if minute >= cfg.warmup_minutes:
            policy.train_tick()

    paths = model_paths(cfg)
    paths["qnet"].parent.mkdir(parents=True, exist_ok=True)
    minibatches = sum(1 for row in policy.training_log if math.isfinite(row[1]))
    neural.write_model_file(paths["qnet"], {"qnet": (dqn_mod.Q_SPEC, net.params)},
                            {"steps": steps, "minibatches": minibatches})
    dqn_mod.write_training_log(paths["dqn_log"], policy.training_log)
    return net, policy.training_log

"""fleetsim benchmark: set-up, workloads, correctness gate and metrics.

Every workload simulates the default 20x20 city with 200 vehicles over one
fixed evaluation window: 07:00 to 10:30 on a Monday, the first 30 minutes
being the simulator's warm-up.  The evaluation city is synthesised from the
workload seed at 2.5 times the configured trip rate and thinned to a fixed
number of requests in each half hour of the window, shared out by the
generator's expected profile.  Every seed therefore offers the same load
at the same times while the seed still decides where, and when within a
half hour, requests appear: the generator's demand-level swings, which
last hours, would otherwise move the reject rate and the host time by tens
of percent from seed to seed.

Set-up synthesises the training and evaluation cities and trains the ETA,
demand and zone-table models into a fresh, empty directory, with fewer
epochs and training days than the experiment defaults so that it can be
repeated within one run.  The training city comes from the config's
fixed ``train_seed``, so the models and the Q-network's training city are
the same for every seed; only the evaluation city depends on ``--seed``.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.special import betainc

from fleetsim import dqn, neural
from fleetsim.clock import Clock
from fleetsim.demand import DemandModel
from fleetsim.eta import EtaModel
from fleetsim.harness import experiment as ex
from fleetsim.harness import synth
from fleetsim.harness.config import ExperimentConfig
from fleetsim.rhc import RhcPolicy
from fleetsim.sim import (DISPATCHING, IDLE, OCCUPIED, TO_PICKUP, Simulation,
                          finalize_metrics)

from tracer import END, INFO, NAME, START, Tracer, self_time, write_spans

THIN_STREAM = 1               # rng stream that picks the kept requests
WINDOW_START = 420.0          # minutes after the Monday 00:00 epoch
OVERSAMPLE = 2.5              # synthesis rate before thinning
MIN_REPEATS = 2               # evaluation episodes per run, at least
MAX_REPEATS = 30              # ... and at most: the fastest times have settled
PROBE_LOOPS = 1500            # iterations of the core-speed probe
REF_PROBE_S = 1.2e-4          # the probe's time on an idle core of the reference host
SCALE_BELOW_S = 0.05          # only stretches shorter than this are scaled
SETUP_PROBE_EVERY_S = 0.02    # probe period while setting up
STATUSES = (IDLE, DISPATCHING, TO_PICKUP, OCCUPIED)

# workload name -> dispatch policy evaluated in the window
WORKLOADS = {"day-none": "none", "day-rhc": "rhc", "dqn-train-eval": "dqn"}

# host seconds of one evaluation episode of each workload, measured on the
# 2-core x86_64 host where the bounds were set; they turn ``--seconds`` into
# a repeat count that does not depend on the speed of the code under test
EPISODE_S = {"day-none": 0.37, "day-rhc": 3.6, "dqn-train-eval": 2.3}

END_TO_END = {
    "setup_s": "s",
    "sim_day_s": "s",
    "dispatch_ms_p50": "ms",
    "dispatch_ms_p90": "ms",
    "reject_rate": "frac",
    "mean_wait_min": "min",
    "idle_cruise_min": "min",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.synth_city_s": "s",
    "harness.train_eta_s": "s",
    "harness.train_demand_s": "s",
    "harness.build_tables_s": "s",
    "sim.step_minute.calls": "count",
    "sim.step_minute.s": "s",
    "sim.step_self_s": "s",
    "sim.build_view_s": "s",
    "sim.apply_dispatch_s": "s",
    "sim.orders": "count",
    "roadgraph.nearest_node.calls": "count",
    "roadgraph.nearest_node.s": "s",
    "roadgraph.shortest_path.calls": "count",
    "roadgraph.shortest_path.s": "s",
    "roadgraph.shortest_path.none": "count",
    "roadgraph.path_reuse": "frac",
    "eta.predict.calls": "count",
    "eta.predict.s": "s",
    "demand.predict.calls": "count",
    "demand.predict.s": "s",
    "lp.solve.calls": "count",
    "lp.solve.s": "s",
    "lp.solve.nonoptimal": "count",
    "lp.vars": "count",
    "lp.rows": "count",
    "rhc.dispatch.calls": "count",
    "rhc.dispatch.s": "s",
    "rhc.build_rhc_lp_s": "s",
    "rhc.assign_vehicles_s": "s",
    "rhc.assign_truncations": "count",
    "dqn.dispatch.calls": "count",
    "dqn.dispatch.s": "s",
    "dqn.build_feature_planes.calls": "count",
    "dqn.build_feature_planes.s": "s",
    "dqn.q_map.calls": "count",
    "dqn.q_map.s": "s",
    "dqn.decisions": "count",
    "dqn.orders": "count",
    "dqn.train_step.calls": "count",
    "dqn.train_step.noop": "count",
    "dqn.train_step_ms_p50": "ms",
    "dqn.train_step_ms_p90": "ms",
    "dqn.assemble_batch.calls": "count",
    "dqn.assemble_batch.s": "s",
    "dqn.q_map_batch.calls": "count",
    "dqn.q_map_batch.s": "s",
    "dqn.replay_sample_s": "s",
    "neural.forward_cached_s": "s",
    "neural.backward_from_grad_s": "s",
    "neural.rmsprop_s": "s",
    "trace_overhead_frac": "frac",
    "op_fail_rate": "frac",
    "eta_val_rmse": "min",
    "demand_val_rmse": "count",
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run; ``FULL`` is the benchmark itself."""

    overrides: dict               # ExperimentConfig fields
    window_minutes: int = 210     # includes the config's warm-up minutes
    offered_requests: int = 1400  # requests kept in the window
    dqn_train_steps: int = 48
    setups: int = 3               # set-ups per run; setup_s is their median


FULL = Scale(overrides={"train_days": 3, "eta_epochs": 4, "demand_epochs": 4})


class GateError(Exception):
    """A correctness check of the benchmark failed."""


@dataclass
class Inputs:
    cfg: ExperimentConfig
    scale: Scale
    training: ex.City
    evaluation: ex.City
    bundle: ex.ModelBundle


@dataclass
class Episode:
    step_s: list[float]
    invocation_s: list[float]
    invocation_minute: list[int]  # the step each invocation ran in
    probes: list[float]           # probe times before the first step and after each
    fingerprint: tuple
    report: dict


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


class NullPolicy:
    """Issues no orders.

    Invoked on the RHC slot cycle, it lets ``day-none`` time the
    simulator's own share of a policy invocation (building the view and
    applying an empty order list) without changing any outcome.
    """

    def __init__(self, cycle: int):
        self.cycle = cycle

    def dispatch(self, view) -> list:
        return []


# --- inputs and set-up ---------------------------------------------------------

def make_config(scale: Scale, seed: int, out_dir: Path) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, out_dir=str(out_dir), data_dir=str(out_dir / "city"),
                            **scale.overrides).validate()


def slot_quota(cfg: ExperimentConfig, grid, scale: Scale) -> np.ndarray:
    """Requests to keep in each half hour of the window: ``offered_requests``
    shared out by the generator's expected (seed-free) rate."""
    rates = synth._slot_rates(grid, cfg)
    share = []
    for start in np.arange(0.0, scale.window_minutes, synth.SLOT_MINUTES):
        minute = WINDOW_START + start
        dow = (cfg.epoch_dow + int(minute // 1440)) % 7
        covered = min(synth.SLOT_MINUTES, scale.window_minutes - start) / synth.SLOT_MINUTES
        share.append(rates[dow, int(minute % 1440 // synth.SLOT_MINUTES)].sum() * covered)
    want = np.asarray(share) / np.sum(share) * scale.offered_requests
    quota = np.floor(want).astype(int)
    # largest remainders take the requests that rounding down left over
    quota[np.argsort(quota - want)[:scale.offered_requests - quota.sum()]] += 1
    return quota


def evaluation_city(cfg: ExperimentConfig, scale: Scale) -> ex.City:
    """The window's requests, thinned to a fixed offered load per half hour."""
    dense = replace(cfg, trips_per_day=cfg.trips_per_day * OVERSAMPLE)
    end = WINDOW_START + scale.window_minutes
    sc = synth.synth_city(dense, cfg.seed, int(end // 1440) + 1)
    reqs = ex.episode_requests(ex.city_from_synth(sc).requests, WINDOW_START, end)
    slot = np.array([int(r.minute // synth.SLOT_MINUTES) for r in reqs])
    rng = np.random.default_rng([cfg.seed, THIN_STREAM])
    keep = []
    for k, n in enumerate(slot_quota(cfg, sc.grid, scale)):
        pool = np.flatnonzero(slot == k)
        if len(pool) < n:
            raise GateError(f"seed {cfg.seed}: only {len(pool)} requests in half hour {k} "
                            f"of the window, {n} needed")
        keep.extend(rng.choice(pool, size=n, replace=False))
    return ex.City(sc.grid, sc.graph, sc.regions, sc.zones, [reqs[i] for i in sorted(keep)])


def set_up(scale: Scale, seed: int, out_dir: Path, tracer: Tracer) -> Inputs:
    """Synthesise both cities and train the shared models into ``out_dir``."""
    cfg = make_config(scale, seed, out_dir)
    with tracer.span("harness.synth_city"):
        training = ex.city_from_synth(synth.synth_city(cfg, cfg.train_seed, cfg.train_days))
        evaluation = evaluation_city(cfg, scale)
    bundle = ex.train_models(cfg, training)
    return Inputs(cfg, scale, training, evaluation, bundle)


def trace_setup(t: Tracer) -> None:
    t.wrap_function("fleetsim.harness.experiment", "train_eta_model", "harness.train_eta")
    t.wrap_function("fleetsim.harness.experiment", "train_demand_model", "harness.train_demand")
    t.wrap_function("fleetsim.harness.experiment", "build_zone_tables", "harness.build_tables")


# --- what the workload phase wraps ---------------------------------------------

def _lp_info(args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    rows = problem.a_ub.shape[0]
    if getattr(problem, "a_eq", None) is not None:
        rows += problem.a_eq.shape[0]
    return (problem.n_vars, rows, sol.status)


def _dqn_dispatch_info(args, kwargs, orders):
    policy, view = args[0], args[1]
    decided = sum(1 for t in policy.last_decision.values() if t == view.t)
    return (decided, len(orders))


def trace_light(t: Tracer) -> None:
    """The two wraps the end-to-end metrics need: LP status and train steps."""
    t.wrap_function("fleetsim.lp", "solve", "lp.solve", _lp_info)
    t.wrap_function("fleetsim.dqn", "train_step", "dqn.train_step",
                    lambda a, k, r: r is None)


def trace_full(t: Tracer) -> None:
    trace_light(t)
    t.wrap_method(Simulation, "step_minute", "sim.step_minute")
    t.wrap_method(Simulation, "build_view", "sim.build_view")
    t.wrap_method(Simulation, "apply_dispatch", "sim.apply_dispatch",
                  lambda a, k, r: len(a[1]))
    t.wrap_function("fleetsim.roadgraph", "nearest_node", "roadgraph.nearest_node")
    t.wrap_function("fleetsim.roadgraph", "shortest_path", "roadgraph.shortest_path",
                    lambda a, k, r: (a[0], a[1], r is None))
    t.wrap_method(EtaModel, "predict", "eta.predict")
    t.wrap_method(EtaModel, "predict_batch", "eta.predict")
    t.wrap_method(DemandModel, "predict", "demand.predict")
    t.wrap_method(RhcPolicy, "dispatch", "rhc.dispatch")
    t.wrap_function("fleetsim.rhc", "build_rhc_lp", "rhc.build_rhc_lp")
    t.wrap_function("fleetsim.rhc", "assign_vehicles", "rhc.assign_vehicles",
                    lambda a, k, r: len(r[1]))
    t.wrap_method(dqn.DqnPolicy, "dispatch", "dqn.dispatch", _dqn_dispatch_info)
    t.wrap_function("fleetsim.dqn", "build_feature_planes", "dqn.build_feature_planes")
    t.wrap_method(dqn.QNetwork, "q_map", "dqn.q_map")
    t.wrap_method(dqn.QNetwork, "q_map_batch", "dqn.q_map_batch")
    t.wrap_function("fleetsim.dqn", "assemble_batch", "dqn.assemble_batch")
    t.wrap_method(dqn.ReplayBuffer, "sample", "dqn.replay_sample")
    t.wrap_function("fleetsim.neural", "forward_cached", "neural.forward_cached")
    t.wrap_function("fleetsim.neural", "backward_from_grad", "neural.backward_from_grad")
    t.wrap_method(neural.RmsProp, "step", "neural.rmsprop")


# --- episodes and the correctness gate -----------------------------------------

def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast the core runs.

    On a shared host the core's speed swings by tens of percent within
    seconds as neighbours come and go.  The benchmark runs this probe
    between simulated minutes and, while setting up, from a timer.  A
    stretch of host time shorter than ``SCALE_BELOW_S`` is then scaled by
    ``REF_PROBE_S`` over the mean time of the probes on either side of it:
    converted to the time it takes on an idle core of the reference host.
    A longer stretch spans many states of the core, which the probes at its
    ends do not tell, and is left as measured.  The probe is the
    benchmark's own code, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    total, slots = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i
        slots[i & 63] = total
    return time.perf_counter() - t0


def speed_factor(probe_before, probe_after):
    """What a short stretch between these two probes is multiplied by."""
    return REF_PROBE_S * 2.0 / (probe_before + probe_after)


class ProbedClock:
    """Times a block of code, running the probe from a timer signal.

    ``seconds`` is the block's host time without the probes, each stretch
    between two probes scaled by them (see ``probe``).  Python runs the
    signal handler between bytecodes, so a long call into numpy is one
    stretch.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []   # start and end of each probe

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        probe()
        self.marks.append((t0, time.perf_counter()))

    def __enter__(self) -> "ProbedClock":
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, SETUP_PROBE_EVERY_S, SETUP_PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._probe()

    @property
    def seconds(self) -> float:
        total = 0.0
        for (a0, a1), (b0, b1) in zip(self.marks, self.marks[1:]):
            stretch = b0 - a1
            if stretch < SCALE_BELOW_S:
                stretch *= speed_factor(a1 - a0, b1 - b0)
            total += stretch
        return total


def make_policy(inputs: Inputs, policy_name: str, qnet):
    if policy_name == "none":
        return NullPolicy(inputs.cfg.rhc_slot_minutes)
    return ex.make_policy(inputs.cfg, policy_name, inputs.evaluation, inputs.bundle, qnet)


def fingerprint(m) -> tuple:
    return (m.total_requests, m.rejects, m.accepted, m.wait_sum, m.cruise_sum,
            m.elapsed_minutes, m.occupied_minutes.tobytes())


def check_episode(sim: Simulation, inputs: Inputs) -> None:
    cfg, m = inputs.cfg, sim.metrics
    if m.accepted + m.rejects != m.total_requests:
        raise GateError(f"accepted {m.accepted} + rejects {m.rejects} "
                        f"!= requests {m.total_requests}")
    offered = sum(1 for r in inputs.evaluation.requests
                  if cfg.warmup_minutes <= r.minute < inputs.scale.window_minutes)
    if m.total_requests != offered:
        raise GateError(f"{m.total_requests} requests counted, {offered} offered")
    if sorted(v.vid for v in sim.fleet) != list(range(cfg.vehicles)):
        raise GateError(f"fleet not conserved: {len(sim.fleet)} vehicles")
    bad = [v.vid for v in sim.fleet if v.status not in STATUSES]
    if bad:
        raise GateError(f"vehicles {bad[:5]} in no known status")


def run_episode(inputs: Inputs, policy_name: str, qnet, ops: Ops) -> Episode:
    """Simulate the evaluation window once, timing each minute and invocation."""
    cfg, city = inputs.cfg, inputs.evaluation
    sim = Simulation(city.grid, city.graph, inputs.bundle.eta_model, city.requests,
                     n_vehicles=cfg.vehicles, policy=make_policy(inputs, policy_name, qnet),
                     clock0=Clock(WINDOW_START, cfg.epoch_dow),
                     warmup=cfg.warmup_minutes, match_radius_m=cfg.match_radius_m,
                     idle_window=cfg.idle_window_minutes)
    step_s: list[float] = []
    invocation_s: list[float] = []
    invocation_minute: list[int] = []
    probes = [probe()]
    began: list[float] = []
    step_minute, build_view, apply_dispatch = (sim.step_minute, sim.build_view,
                                               sim.apply_dispatch)

    def timed_build_view(t):
        began.append(time.perf_counter())
        return build_view(t)

    def timed_apply_dispatch(orders, t):
        apply_dispatch(orders, t)
        invocation_s.append(time.perf_counter() - began[-1])
        invocation_minute.append(len(step_s))

    sim.build_view = timed_build_view
    sim.apply_dispatch = timed_apply_dispatch
    for _ in range(inputs.scale.window_minutes):
        t0 = time.perf_counter()
        step_minute()
        step_s.append(time.perf_counter() - t0)
        probes.append(probe())
    ops.attempted += len(invocation_s)
    check_episode(sim, inputs)
    return Episode(step_s, invocation_s, invocation_minute, probes,
                   fingerprint(sim.metrics), finalize_metrics(sim.metrics))


def repeats(workload: str, seconds: float) -> int:
    """Evaluation episodes per run: as many as fill ``seconds`` on the
    reference host, but no more than ``MAX_REPEATS``.

    The count depends on the workload and ``seconds`` alone, so two commits
    take their fastest times over the same number of repeats, however fast
    each of them runs.
    """
    return min(MAX_REPEATS, max(MIN_REPEATS, round(seconds / EPISODE_S[workload])))


def fastest(episodes: list[Episode]) -> tuple[np.ndarray, np.ndarray]:
    """Per minute and per invocation, the fastest scaled time over the repeats.

    Each minute is scaled by the probes on either side of it (see
    ``probe``), unless its fastest time over the repeats is ``SCALE_BELOW_S`` or more,
    as when it solves an LP; then all its times are left as measured.  An
    invocation is scaled with its minute.  The repeats replay one
    deterministic episode, so each minute does the same work every time,
    and its fastest time drops what the scaling leaves of the slowdowns
    that neighbours on a shared host cause.
    """
    minute = episodes[0].invocation_minute
    if any(e.invocation_minute != minute for e in episodes):
        raise GateError("repeats of one episode invoke the policy in different minutes")
    steps = np.array([e.step_s for e in episodes])
    probes = np.array([e.probes for e in episodes])
    factor = speed_factor(probes[:, :-1], probes[:, 1:])
    factor[:, steps.min(axis=0) >= SCALE_BELOW_S] = 1.0
    invocations = np.array([e.invocation_s for e in episodes]) * factor[:, minute]
    return (steps * factor).min(axis=0), invocations.min(axis=0)


# --- metrics ------------------------------------------------------------------

def _spans(tracers: list[Tracer], name: str) -> list[list]:
    return [s for t in tracers for s in t.spans if s[NAME] == name]


def _pct_ms(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile, in ms.

    It is a Beta-weighted mean of all the order statistics.  Invocation
    times cluster by how many vehicles decide in them, and a plain
    percentile that falls between two clusters jumps from one to the other
    as the seed changes; this estimate moves smoothly instead.
    """
    if not len(values):
        return 0.0
    x = np.sort(np.asarray(values)) * 1000.0
    n, p = len(x), q / 100.0
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def count_ops(tracers: list[Tracer], ops: Ops, train_log) -> None:
    """Train steps are operations; LP plans that are not optimal fail."""
    steps = _spans(tracers, "dqn.train_step")
    ops.attempted += len(steps)
    for s in _spans(tracers, "lp.solve"):
        if s[INFO][2] != "optimal":
            ops.failed += 1
            ops.errors.append(f"LP status {s[INFO][2]}")
    if train_log is not None:
        real = sum(1 for s in steps if not s[INFO])
        finite = sum(1 for row in train_log if math.isfinite(row[1]))
        if finite != real:
            ops.failed += real - finite
            ops.errors.append(f"{real - finite} train steps gave a non-finite loss")


def outcome(episode: Episode) -> dict:
    r = episode.report
    return {"reject_rate": r["reject_rate"], "mean_wait_min": r["mean_wait_minutes"],
            "idle_cruise_min": r["idle_cruise_per_accepted"]}


def layer_metrics(spans: list[list]) -> dict:
    totals: dict[str, list] = {}
    for s in spans:
        acc = totals.setdefault(s[NAME], [0, 0.0])
        acc[0] += 1
        acc[1] += s[END] - s[START]

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def secs(name):
        return totals.get(name, [0, 0.0])[1]

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    # "<span>.calls" and "<span>.s" or "<span>_s" read straight off the spans
    out = {}
    for key in PER_LAYER:
        if key.endswith(".calls"):
            out[key] = calls(key[:-len(".calls")])
        elif key.endswith((".s", "_s")):
            out[key] = secs(key[:-2])
    out["sim.step_self_s"] = self_time(spans, "sim.step_minute")
    out["sim.orders"] = sum(infos("sim.apply_dispatch"))
    paths = infos("roadgraph.shortest_path")
    out["roadgraph.shortest_path.none"] = sum(1 for p in paths if p[2])
    out["roadgraph.path_reuse"] = (1.0 - len({p[:2] for p in paths}) / len(paths)
                                   if paths else 0.0)
    lps = infos("lp.solve")
    out["lp.solve.nonoptimal"] = sum(1 for p in lps if p[2] != "optimal")
    out["lp.vars"] = max((p[0] for p in lps), default=0)
    out["lp.rows"] = max((p[1] for p in lps), default=0)
    out["rhc.assign_truncations"] = sum(infos("rhc.assign_vehicles"))
    dq = infos("dqn.dispatch")
    out["dqn.decisions"] = sum(d for d, _ in dq)
    out["dqn.orders"] = sum(o for _, o in dq)
    steps = [s for s in spans if s[NAME] == "dqn.train_step"]
    real = [s[END] - s[START] for s in steps if not s[INFO]]
    out["dqn.train_step.noop"] = len(steps) - len(real)
    out["dqn.train_step_ms_p50"] = _pct_ms(real, 50)
    out["dqn.train_step_ms_p90"] = _pct_ms(real, 90)
    return out


# --- environment ----------------------------------------------------------------

def _openblas() -> dict:
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"openblas": get_config().decode(),
                            "openblas_threads": get_threads()}
    return {"openblas": None, "openblas_threads": None}


def environment(root: Path) -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, **_openblas(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_commit": commit}


# --- one run ---------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        scale: Scale = FULL) -> dict:
    """One benchmark run; returns the result record (metrics, ops, extras).

    Raises GateError when a correctness check fails; other exceptions come
    from the program itself.  Failed operations (a non-optimal LP plan, a
    train step with a non-finite loss) do not fail the run: they are
    counted in ``failed`` and ``op_fail_rate``.
    """
    policy_name = WORKLOADS[workload]
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    extras: dict = {}
    model_dirs: list[Path] = []
    try:
        # set-up, repeated in fresh directories; the models must come out equal
        setup_s, model_metrics, setup_tracer = [], [], Tracer()
        for _ in range(1 if trace else scale.setups):
            out = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_dir))
            model_dirs.append(out)
            if trace:
                trace_setup(setup_tracer)
            with setup_tracer, ProbedClock() as clock:
                inputs = set_up(scale, seed, out, setup_tracer)
            setup_s.append(clock.seconds)
            model_metrics.append(inputs.bundle.metrics)
        if any(m != model_metrics[0] for m in model_metrics):
            raise GateError(f"set-ups trained different models: {model_metrics}")
        extras["eta_val_rmse"] = model_metrics[0]["eta_val_rmse"]
        extras["demand_val_rmse"] = model_metrics[0]["demand_val_rmse"]
        # the earlier set-ups' cities and models must not count toward the
        # workload's peak memory, whenever the collector would have run
        gc.collect()

        # the workload: optional Q-network training, then a fixed number of
        # evaluation episodes
        tracers: list[Tracer] = []
        main = Tracer()
        (trace_full if trace else trace_light)(main)
        tracers.append(main)
        qnet = train_log = None
        with main:
            if policy_name == "dqn":
                qnet, train_log = ex.train_dqn(inputs.cfg, inputs.training, inputs.bundle,
                                               steps=scale.dqn_train_steps)
            first = run_episode(inputs, policy_name, qnet, ops)
        # trace mode alternates untraced and traced repeats of the episode and
        # splits the repeats between the two
        traced, untraced = ([first], []) if trace else ([], [first])
        n = repeats(workload, seconds)
        target = max(MIN_REPEATS, n // 2) if trace else n
        while len(untraced) < target:
            light = Tracer()
            trace_light(light)
            tracers.append(light)
            with light:
                untraced.append(run_episode(inputs, policy_name, qnet, ops))
            if trace and len(traced) < target:
                extra = Tracer()
                trace_full(extra)
                tracers.append(extra)
                with extra:
                    traced.append(run_episode(inputs, policy_name, qnet, ops))
        episodes = untraced + traced
        if any(e.fingerprint != first.fingerprint for e in episodes):
            raise GateError("simulated statistics differ between repeats of one seed")
        count_ops(tracers, ops, train_log)

        def day_s(eps: list[Episode]) -> float:
            return float(fastest(eps)[0].sum()) * 1440.0 / scale.window_minutes

        invocations = fastest(untraced)[1]
        extras["episodes"] = len(episodes)
        extras["dispatch_samples"] = len(invocations)
        layers = layer_metrics(main.spans)
        if policy_name == "dqn":
            extras.update({k: v for k, v in layers.items() if k.startswith("dqn.train_step")})
        if trace:
            metrics = layers
            for name in ("synth_city", "train_eta", "train_demand", "build_tables"):
                metrics[f"harness.{name}_s"] = sum(
                    s[END] - s[START] for s in setup_tracer.spans
                    if s[NAME] == f"harness.{name}")
            metrics["trace_overhead_frac"] = day_s(traced) / day_s(untraced) - 1.0
            metrics["op_fail_rate"] = ops.failed / max(1, ops.attempted)
            metrics["eta_val_rmse"] = extras["eta_val_rmse"]
            metrics["demand_val_rmse"] = extras["demand_val_rmse"]
            units = PER_LAYER
            extras["missing_entry_points"] = sorted(set(main.missing))
            extras["spans_file"] = str(work_dir / f"{workload}-seed{seed}-spans.json")
            write_spans(extras["spans_file"],
                        {"setup": setup_tracer.spans, "workload": main.spans})
        else:
            metrics = {
                "setup_s": float(np.median(setup_s)),
                "sim_day_s": day_s(untraced),
                "dispatch_ms_p50": _pct_ms(invocations, 50),
                "dispatch_ms_p90": _pct_ms(invocations, 90),
                **outcome(first),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        bad = [k for k, v in metrics.items() if v is None or not math.isfinite(v)]
        if bad:
            raise GateError(f"non-finite metrics: {bad}")
        return {"attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors,
                "metrics": {k: {"value": float(metrics[k]), "unit": u}
                            for k, u in units.items()},
                "extras": extras}
    finally:
        for d in model_dirs:
            shutil.rmtree(d, ignore_errors=True)

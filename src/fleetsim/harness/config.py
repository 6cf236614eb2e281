"""Experiment configuration: a flat key=value file plus overrides.

Every field of :class:`ExperimentConfig` is a key; types come from the
dataclass declaration.  ``seed`` is mandatory.  A file of one ``key = value``
line per field, each value as ``str`` prints it, parses back to an equal config.
File lines and overrides take one value path, ``_assign``: an unknown key or
a value that does not convert is a :class:`ConfigError` naming its source.
Each numeric field's range is one row of ``_RULES``, which
:meth:`ExperimentConfig.validate` checks before the rules that tie fields
together.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields
from datetime import date

from ..geo import GridSpec, Location, RegionMap

POLICIES = ("none", "rhc", "dqn", "dqn_star")


class ConfigError(ValueError):
    """Bad or missing configuration."""


@dataclass
class ExperimentConfig:
    seed: int
    # taken and dropped, not a key: perfbench/bench.py::make_config still passes it
    data_dir: InitVar[str | None] = None
    out_dir: str = "runs"
    policy: str = "none"
    vehicles: int = 200
    days: int = 3
    warmup_minutes: int = 30
    day_start_hour: int = 4
    epoch_date: str = "2016-05-02"  # calendar date of minute zero (a Monday)
    match_radius_m: float = 5000.0
    idle_window_minutes: float = 15.0  # ride-starvation window of the idle rule

    # geometry: fine grid, dispatch-region blocks, RHC zone blocks
    fine_rows: int = 20
    fine_cols: int = 20
    cell_size_m: float = 550.0
    origin_lat: float = 40.0
    origin_lon: float = -74.0
    region_block: int = 2
    zone_block: int = 5

    # synthetic workload
    trips_per_day: float = 6000.0
    synth_speed_kmh: float = 21.0
    synth_noise: float = 0.12

    # model training inputs
    train_seed: int = 777
    train_days: int = 10
    eta_epochs: int = 20
    eta_lr: float = 1e-3
    demand_epochs: int = 60
    demand_lr: float = 5e-3

    # receding-horizon policy
    rhc_reject_penalty: float = 20.0
    rhc_discount: float = 0.99
    rhc_slot_minutes: int = 15
    rhc_horizon: int = 3

    # deep-Q policy
    dqn_reject_weight: float = 10.0
    dqn_discount: float = 0.98
    dqn_decision_interval: float = 15.0
    dqn_lr: float = 1e-3
    dqn_train_steps: int = 5000
    dqn_eps_ramp: int = 2500
    dqn_alpha_ramp: int = 2500
    dqn_sync_period: int = 150
    dqn_buffer: int = 10000
    dqn_batch: int = 64

    @property
    def epoch_dow(self) -> int:
        """Weekday of simulation minute zero (0 = Monday), from ``epoch_date``."""
        return date.fromisoformat(self.epoch_date).weekday()

    def layout(self) -> tuple[GridSpec, RegionMap, RegionMap]:
        """The grid and its two partitions, each numbering its blocks row-major:
        the dispatch regions, blocks of ``region_block`` cells a side, and the
        zones of the RHC tables, blocks of ``zone_block``.  Every city has this
        layout, and nothing else in the program builds a :class:`GridSpec` or a
        :class:`RegionMap`.  A block that does not divide the grid raises
        :class:`ConfigError` naming its field.
        """
        grid = GridSpec(rows=self.fine_rows, cols=self.fine_cols, cell_size=self.cell_size_m,
                        origin=Location(self.origin_lat, self.origin_lon))
        maps = []
        for name in ("region_block", "zone_block"):
            try:
                maps.append(RegionMap(grid, getattr(self, name)))
            except ValueError as exc:
                raise ConfigError(f"{name} {getattr(self, name)}: {exc}") from exc
        return grid, *maps

    def validate(self) -> "ExperimentConfig":
        for rule, test, names in _RULES:
            for name in names:
                value = getattr(self, name)
                if not test(value):
                    raise ConfigError(f"{name} must be {rule}, got {value}")
        try:
            date.fromisoformat(self.epoch_date)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"epoch_date must be an ISO calendar date, "
                              f"got {self.epoch_date!r}") from exc
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        grid, _, _ = self.layout()
        if grid.lat_max > 90.0:
            raise ConfigError(f"origin_lat {self.origin_lat} puts the grid between latitudes "
                              f"{self.origin_lat} and {grid.lat_max}, past -90 to 90")
        if grid.lon_max > 180.0:
            raise ConfigError(f"origin_lon {self.origin_lon} puts the grid between longitudes "
                              f"{self.origin_lon} and {grid.lon_max}, past -180 to 180")
        if self.dqn_batch > self.dqn_buffer:
            raise ConfigError(f"dqn_batch {self.dqn_batch} exceeds dqn_buffer "
                              f"{self.dqn_buffer}: the replay could never fill a minibatch")
        return self


# (what the value must be, its test, the fields it holds for): each numeric
# field is in one row, and the non-numeric ones are in none
_RULES = (
    ("at least 1", lambda v: v >= 1,
     ("vehicles", "days", "fine_rows", "fine_cols", "region_block", "zone_block",
      "train_days", "rhc_slot_minutes", "rhc_horizon", "dqn_sync_period", "dqn_buffer",
      "dqn_batch")),
    ("non-negative", lambda v: v >= 0,
     ("seed", "train_seed", "warmup_minutes", "eta_epochs", "demand_epochs",
      "dqn_train_steps", "dqn_eps_ramp", "dqn_alpha_ramp")),
    ("in 0-23", lambda v: 0 <= v <= 23, ("day_start_hour",)),
    ("in -90 to 90", lambda v: -90 <= v <= 90, ("origin_lat",)),
    ("in -180 to 180", lambda v: -180 <= v <= 180, ("origin_lon",)),
    ("finite and positive", lambda v: math.isfinite(v) and v > 0,
     ("cell_size_m", "synth_speed_kmh", "eta_lr", "demand_lr", "dqn_lr")),
    ("finite and non-negative", lambda v: math.isfinite(v) and v >= 0,
     ("match_radius_m", "idle_window_minutes", "trips_per_day", "rhc_reject_penalty",
      "dqn_reject_weight", "dqn_decision_interval")),
    ("in 0 to 1", lambda v: 0 <= v <= 1, ("synth_noise",)),
    ("in (0, 1]", lambda v: 0 < v <= 1, ("rhc_discount", "dqn_discount")),
)


_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _assign(values: dict, key: str, raw: str, where: str) -> None:
    """Set ``values[key]`` to ``raw`` converted to the field's type; an unknown
    key or a value that does not convert raises :class:`ConfigError` naming
    ``where``, the value's source."""
    kind = _FIELDS.get(key)
    if kind is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    raw = raw.strip()
    try:
        values[key] = int(raw) if kind == "int" else float(raw) if kind == "float" else raw
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def parse_config(path=None, overrides: dict | None = None, text: str | None = None) -> ExperimentConfig:
    """Read a flat config file and apply overrides; ``seed`` is required."""
    values: dict = {}
    if text is None and path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if text:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            _assign(values, key.strip(), val, f"config line {lineno}")
    for key, val in (overrides or {}).items():
        _assign(values, key, str(val), "--set")
    if "seed" not in values:
        raise ConfigError("config must set a seed")
    return ExperimentConfig(**values).validate()

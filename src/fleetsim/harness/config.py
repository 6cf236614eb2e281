"""Experiment configuration: a flat key=value file plus overrides.

Every field of :class:`ExperimentConfig` is a key; types come from the
dataclass declaration.  ``seed`` is mandatory.  A file of one ``key = value``
line per field, each value as ``str`` prints it, parses back to an equal config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date

from ..geo import METERS_PER_DEG_LAT

POLICIES = ("none", "rhc", "dqn", "dqn_star")


class ConfigError(ValueError):
    """Bad or missing configuration."""


@dataclass
class ExperimentConfig:
    seed: int
    data_dir: str = "city"
    out_dir: str = "runs"
    policy: str = "none"
    vehicles: int = 200
    days: int = 3
    warmup_minutes: int = 30
    day_start_hour: int = 4
    epoch_date: str = "2016-05-02"  # calendar date of minute zero (a Monday)
    match_radius_m: float = 5000.0
    idle_window_minutes: float = 15.0

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

    def validate(self) -> "ExperimentConfig":
        try:
            date.fromisoformat(self.epoch_date)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"epoch_date must be an ISO calendar date, "
                              f"got {self.epoch_date!r}") from exc
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.vehicles < 1 or self.days < 1:
            raise ConfigError("vehicles and days must be positive")
        for name in ("fine_rows", "fine_cols", "region_block", "zone_block"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.cell_size_m) and self.cell_size_m > 0):
            raise ConfigError(f"cell_size_m must be finite and positive, got {self.cell_size_m}")
        for name in ("origin_lat", "origin_lon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        north = self.origin_lat + self.fine_rows * (self.cell_size_m / METERS_PER_DEG_LAT)
        if not (self.origin_lat >= -90.0 and north <= 90.0):
            raise ConfigError(f"origin_lat {self.origin_lat} puts the grid between latitudes "
                              f"{self.origin_lat} and {north}, past -90 to 90")
        if not (math.isfinite(self.match_radius_m) and self.match_radius_m >= 0):
            raise ConfigError("match_radius_m must be finite and non-negative, "
                              f"got {self.match_radius_m}")
        if self.fine_rows % self.region_block or self.fine_cols % self.region_block:
            raise ConfigError("fine grid must divide evenly into regions")
        if self.fine_rows % self.zone_block or self.fine_cols % self.zone_block:
            raise ConfigError("fine grid must divide evenly into zones")
        if self.train_days < 1:
            raise ConfigError(f"train_days must be at least 1, got {self.train_days}")
        if not (math.isfinite(self.trips_per_day) and self.trips_per_day >= 0):
            raise ConfigError("trips_per_day must be finite and non-negative, "
                              f"got {self.trips_per_day}")
        if not (math.isfinite(self.synth_speed_kmh) and self.synth_speed_kmh > 0):
            raise ConfigError("synth_speed_kmh must be finite and positive, "
                              f"got {self.synth_speed_kmh}")
        if not (math.isfinite(self.synth_noise) and self.synth_noise >= 0):
            raise ConfigError("synth_noise must be finite and non-negative, "
                              f"got {self.synth_noise}")
        for name in ("dqn_sync_period", "dqn_batch", "dqn_buffer", "rhc_slot_minutes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.dqn_batch > self.dqn_buffer:
            raise ConfigError(f"dqn_batch {self.dqn_batch} exceeds dqn_buffer "
                              f"{self.dqn_buffer}: the replay could never fill a minibatch")
        for name in ("eta_lr", "demand_lr", "dqn_lr"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be finite and positive, "
                                  f"got {getattr(self, name)}")
        for name in ("rhc_discount", "dqn_discount"):
            if not 0 < getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        for name in ("rhc_horizon", "warmup_minutes", "eta_epochs", "demand_epochs",
                     "dqn_train_steps", "dqn_eps_ramp", "dqn_alpha_ramp"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0 <= self.day_start_hour <= 23:
            raise ConfigError(f"day_start_hour must be in 0-23, got {self.day_start_hour}")
        for name in ("idle_window_minutes", "dqn_decision_interval", "rhc_reject_penalty",
                     "dqn_reject_weight"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, "
                                  f"got {getattr(self, name)}")
        return self


_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _convert(name: str, raw: str):
    kind = _FIELDS[name]
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


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
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            try:
                values[key] = _convert(key, val)
            except ValueError as exc:
                raise ConfigError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    for key, val in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(key, str(val))
    if "seed" not in values:
        raise ConfigError("config must set a seed")
    return ExperimentConfig(**values).validate()

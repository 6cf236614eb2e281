"""Simulation time base: minutes since an epoch plus weekly calendar math."""

from __future__ import annotations

import math
from dataclasses import dataclass

MINUTES_PER_DAY = 1440.0


@dataclass(frozen=True)
class Clock:
    """A point in simulation time.

    ``minutes`` counts from the configured epoch, which falls at midnight
    of weekday ``epoch_dow`` (0 = Monday).  Fractional day-of-week and
    hour-of-day are exposed for periodic features.
    """

    minutes: float
    epoch_dow: int = 0

    @property
    def dow(self) -> float:
        """Fractional day of week in [0, 7)."""
        return (self.minutes / MINUTES_PER_DAY + self.epoch_dow) % 7.0

    @property
    def hour(self) -> float:
        """Fractional hour of day in [0, 24)."""
        return (self.minutes / 60.0) % 24.0

    @property
    def dow_index(self) -> int:
        return int(self.dow)

    @property
    def hour_index(self) -> int:
        return int(self.hour)

    def plus(self, minutes: float) -> "Clock":
        return Clock(self.minutes + minutes, self.epoch_dow)


def dow_angle(dow: float) -> float:
    return 2.0 * math.pi * dow / 7.0

def hour_angle(hour: float) -> float:
    return 2.0 * math.pi * hour / 24.0


def periodic_features(clock: Clock) -> tuple[float, float, float, float]:
    """(sin dow, cos dow, sin hour, cos hour) for a clock reading."""
    a = dow_angle(clock.dow)
    b = hour_angle(clock.hour)
    return (math.sin(a), math.cos(a), math.sin(b), math.cos(b))

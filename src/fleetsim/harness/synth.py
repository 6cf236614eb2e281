"""Synthetic desk-scale city: its trips and road network, on the config's layout.

Demand is a Poisson process over fine-grid cells whose intensity mixes a
uniform floor with a handful of hotspots on daily commute, business and
nightlife profiles (weekends damp the commute peaks and boost
nightlife).  Destinations mix uniform scatter with hour-dependent pulls
toward the hotspots, so the fleet drains away from demand unless a
dispatch policy intervenes.  Everything is a deterministic function of
the seed.

The order of the random draws per trip is part of the output: every
city, trained model and benchmark outcome depends on it, so a rewrite of
:func:`synth_city` must make the same generator calls in the same order.
``tests/oracles.py::synth_city_reference`` keeps the per-trip numpy form,
with a :class:`sim.RideRequest` per trip, as an equality oracle.
:func:`synth_city` itself keeps no per-trip object: each kept trip's
values go straight into one flat buffer, whose rows become the city's
:class:`sim.Trips` columns, sorted by pickup minute.  :func:`write_city`
writes ``trips.csv`` from those columns.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from ..geo import GridSpec, RegionMap, center_of, haversine, haversine_coords
from ..roadgraph import RoadGraph, build_graph, save_edge_list
from ..sim import Trips
from .config import ConfigError, ExperimentConfig

# the generator's rate slot, 48 a day: a decision apart from the heat-map slot
# sim.SLOT_MINUTES of equal length, kept because perfbench/bench.py reads it
SLOT_MINUTES = 30
# the demand level's log-normal spread and its correlation time, in rate slots
_LEVEL_SIGMA = 0.22
_LEVEL_CORR_SLOTS = 6.0


@dataclass
class SynthCity:
    grid: GridSpec
    graph: RoadGraph
    regions: RegionMap
    zones: RegionMap
    trips: Trips  # ids ascending in pickup order


def _hour_bump(hour: float, center: float, width: float) -> float:
    # circular distance on the 24-hour clock
    d = min(abs(hour - center), 24.0 - abs(hour - center))
    return math.exp(-0.5 * (d / width) ** 2)


_HOTSPOTS = (
    # name, fractional (row, col), sigma in grid fraction
    ("downtown", 0.50, 0.52, 0.075),
    ("res_a", 0.17, 0.18, 0.10),
    ("res_b", 0.80, 0.74, 0.10),
    ("night", 0.28, 0.80, 0.06),
)


def _origin_profile(name: str, hour: float, weekend: bool) -> float:
    if name == "downtown":
        v = 0.25 + 1.2 * _hour_bump(hour, 13.0, 3.5) + 0.8 * _hour_bump(hour, 18.0, 1.5)
        return v * (0.7 if weekend else 1.0)
    if name in ("res_a", "res_b"):
        v = 0.2 + 1.5 * _hour_bump(hour, 8.0, 1.5) + 0.9 * _hour_bump(hour, 19.5, 2.0)
        return v * (0.55 if weekend else 1.0)
    v = 0.1 + 1.6 * _hour_bump(hour, 22.5, 2.0) + 0.7 * _hour_bump(hour, 1.0, 1.5)
    return v * (1.4 if weekend else 1.0)


def _dest_weights(hour: float) -> np.ndarray:
    """Hotspot attraction weights by hour (downtown, res_a, res_b, night)."""
    if 5.0 <= hour < 11.0:
        return np.array([0.60, 0.14, 0.16, 0.10])
    if 11.0 <= hour < 16.0:
        return np.array([0.40, 0.22, 0.24, 0.14])
    if 16.0 <= hour < 21.0:
        return np.array([0.18, 0.34, 0.36, 0.12])
    return np.array([0.14, 0.38, 0.40, 0.08])


def _hotspot_geometry(grid: GridSpec) -> list[tuple[float, float, float]]:
    """Each hotspot's centre row and column and its sigma, in grid cells."""
    return [(fr * (grid.rows - 1), fc * (grid.cols - 1), sigma * max(grid.rows, grid.cols))
            for _, fr, fc, sigma in _HOTSPOTS]


def _hotspot_maps(grid: GridSpec) -> np.ndarray:
    rows = np.arange(grid.rows)[:, None]
    cols = np.arange(grid.cols)[None, :]
    return np.stack([np.exp(-0.5 * (((rows - r0) / s) ** 2 + ((cols - c0) / s) ** 2))
                     for r0, c0, s in _hotspot_geometry(grid)])


def _slot_rates(grid: GridSpec, cfg: ExperimentConfig) -> np.ndarray:
    """Per-cell demand rate for each (dow, slot-of-day), normalized so a
    weekday totals roughly ``trips_per_day`` requests."""
    spots = _hotspot_maps(grid)
    base = np.full(grid.shape, 0.12 * spots.mean())
    rates = np.zeros((7, 48) + grid.shape)
    for dow in range(7):
        weekend = dow >= 5
        for slot in range(48):
            hour = slot * 0.5
            heat = base.copy()
            for k, (name, *_rest) in enumerate(_HOTSPOTS):
                heat += spots[k] * _origin_profile(name, hour, weekend)
            rates[dow, slot] = heat
    weekday_total = rates[0].sum()
    return rates * (cfg.trips_per_day / weekday_total)


def _speed_kmh(hour: float, cfg: ExperimentConfig) -> float:
    slow = _hour_bump(hour, 8.5, 1.5) + _hour_bump(hour, 17.5, 2.0)
    return cfg.synth_speed_kmh * (1.0 - 0.25 * min(1.0, slow))


def build_road_grid(grid: GridSpec) -> RoadGraph:
    """4-connected bidirectional road graph over the fine cell centers."""
    nodes = {}
    for r in range(grid.rows):
        for c in range(grid.cols):
            nodes[r * grid.cols + c] = center_of((r, c), grid)
    edges = []
    for r in range(grid.rows):
        for c in range(grid.cols):
            nid = r * grid.cols + c
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 < grid.rows and c2 < grid.cols:
                    nid2 = r2 * grid.cols + c2
                    d = haversine(nodes[nid], nodes[nid2])
                    edges.append((nid, nid2, d))
                    edges.append((nid2, nid, d))
    return build_graph(nodes, edges)


def _activity_level(rng, n_slots: int) -> np.ndarray:
    """Smooth day-to-day demand-level swings (AR(1) over 30-minute slots).

    Real workloads fluctuate around their weekly profile with a level
    that persists for hours; the trailing heat maps reveal it while
    per-(dow, hour) averages cannot.
    """
    rho = math.exp(-1.0 / _LEVEL_CORR_SLOTS)
    g = np.empty(n_slots)
    g[0] = rng.normal(0.0, _LEVEL_SIGMA)
    innovation = _LEVEL_SIGMA * math.sqrt(1.0 - rho * rho)
    for k in range(1, n_slots):
        g[k] = rho * g[k - 1] + rng.normal(0.0, innovation)
    return np.exp(g)


def synth_city(cfg: ExperimentConfig, seed: int, days: int) -> SynthCity:
    """Generate a fully deterministic city and trip workload.

    Each trip draws, in this order: its pickup minute, the pickup's row
    and column offsets, the scatter-or-hotspot coin, then either two
    scatter coordinates or a hotspot (one uniform against the hour's
    destination CDF, as ``Generator.choice`` draws it) with a normal and
    a uniform per coordinate, and last, unless the hop is under 100 m,
    the duration noise.  A trip time that is not finite raises
    :class:`ConfigError` naming ``synth_noise`` and ``synth_speed_kmh``,
    with no numpy overflow warning before it.
    """
    rng = np.random.default_rng(seed)
    grid, regions, zones = cfg.layout()
    rates = _slot_rates(grid, cfg)
    level = _activity_level(rng, days * 48)
    spots = _hotspot_geometry(grid)
    speeds, dest_cdfs = [], []
    for slot in range(48):
        speeds.append(_speed_kmh(slot * 0.5, cfg))
        cdf = _dest_weights(slot * 0.5).cumsum()
        cdf /= cdf[-1]
        dest_cdfs.append(cdf.tolist())

    lat0, lon0, d_lat, d_lon = grid.origin.lat, grid.origin.lon, grid.d_lat, grid.d_lon
    rows, cols = grid.rows, grid.cols
    row_hi, col_hi = rows - 1e-6, cols - 1e-6
    noise = cfg.synth_noise
    random, normal, poisson = rng.random, rng.normal, rng.poisson
    # each kept trip's minute, pickup and dropoff coordinates, trip minutes
    # and km, in draw order
    table = array("d")
    keep = table.extend
    # a trip time that overflows is refused below, so its exp need not warn
    with np.errstate(over="ignore"):
        for day in range(days):
            dow = (cfg.epoch_dow + day) % 7
            for slot in range(48):
                slot_start = day * 1440.0 + slot * SLOT_MINUTES
                speed, cdf = speeds[slot], dest_cdfs[slot]
                counts = poisson(rates[dow, slot] * level[day * 48 + slot])
                cell_r, cell_c = np.nonzero(counts)
                for r, c, n in zip(cell_r.tolist(), cell_c.tolist(),
                                   counts[cell_r, cell_c].tolist()):
                    for _ in range(n):
                        minute = slot_start + SLOT_MINUTES * random()
                        pickup = (lat0 + (r + random()) * d_lat, lon0 + (c + random()) * d_lon)
                        if random() < 0.45:
                            dr = rows * random()
                            dc = cols * random()
                        else:
                            r0, c0, sigma = spots[bisect_right(cdf, random())]
                            dr = min(max(r0 + normal(0, sigma) + random(), 0.0), row_hi)
                            dc = min(max(c0 + normal(0, sigma) + random(), 0.0), col_hi)
                        dropoff = (lat0 + dr * d_lat, lon0 + dc * d_lon)
                        straight = haversine_coords(*pickup, *dropoff)
                        if straight < 100.0:
                            continue  # hop too short to be a recorded taxi trip
                        dist_km = straight * 1.25 / 1000.0
                        minutes = dist_km / speed * 60.0 * float(np.exp(normal(0.0, noise)))
                        if not math.isfinite(minutes):
                            raise ConfigError(
                                f"a synthesised trip time is {minutes} minutes: lower "
                                f"synth_noise ({noise}) or raise synth_speed_kmh "
                                f"({cfg.synth_speed_kmh})")
                        keep((minute, *pickup, *dropoff, max(1.0, minutes), dist_km))
    table = np.frombuffer(table).reshape(-1, 7)
    # stable: equal minutes keep their draw order
    table = table[np.argsort(table[:, 0], kind="stable")]
    trips = Trips(np.arange(len(table)), *table.T)
    return SynthCity(grid=grid, graph=build_road_grid(grid), regions=regions,
                     zones=zones, trips=trips)


def _iso(epoch: datetime, minute: float) -> str:
    return (epoch + timedelta(seconds=round(minute * 60.0))).isoformat(sep=" ")


def write_city(city: SynthCity, cfg: ExperimentConfig, out_dir) -> dict:
    """Write the city directory: ``trips.csv`` and ``roads.txt``.

    The grid, the regions and the zones are not written: they are the
    config's layout, which :func:`experiment.load_city` builds with
    :meth:`ExperimentConfig.layout`, as :func:`synth_city` does.
    Pickup and dropoff times are rounded to the second, so a city read back
    from these files is not bit for bit the one synthesised.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    epoch = datetime.fromisoformat(cfg.epoch_date)
    trips_path = out / "trips.csv"
    with open(trips_path, "w", newline="") as fh:
        fh.write("pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,"
                 "dropoff_lat,dropoff_lon,trip_distance_km\n")
        t = city.trips
        rows = zip(t.minute.tolist(), t.trip_minutes.tolist(), t.pickup_lat.tolist(),
                   t.pickup_lon.tolist(), t.dropoff_lat.tolist(), t.dropoff_lon.tolist(),
                   t.distance_km.tolist())
        for minute, trip, *values in rows:
            fh.write(",".join([_iso(epoch, minute), _iso(epoch, minute + trip),
                               *map(repr, values)]) + "\n")
    save_edge_list(city.graph, out / "roads.txt")
    return {
        "trips": str(trips_path),
        "roads": str(out / "roads.txt"),
        "n_trips": len(city.trips),
    }

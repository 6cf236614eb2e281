"""Trip-record ingestion: CSV to validated ride requests, sorted by pickup time.

The rows are parsed one at a time, their values kept in one flat buffer;
the filters and the sort then run on its columns, and the kept rows
become the :class:`sim.Trips` columns.  No per-trip object outlives its
row's parse.
"""

from __future__ import annotations

import csv
import math
from array import array
from datetime import datetime
from dataclasses import dataclass

import numpy as np

from ..geo import GridSpec
from ..sim import Trips


class TripDataError(ValueError):
    """Unreadable or structurally invalid trip file."""


@dataclass
class IngestReport:
    total: int = 0
    kept: int = 0
    dropped_bounds: int = 0
    dropped_duration: int = 0


def ingest_trips(path, grid: GridSpec, epoch: datetime) -> tuple[Trips, IngestReport]:
    """Read a trip CSV, filter outliers, and return time-sorted requests.

    Rows with non-positive durations, and then rows with coordinates
    outside the grid bounds, are dropped and counted in the report.  A row
    that does not parse, has a distance that is not finite and
    non-negative, or has a timestamp with a time zone raises
    :class:`TripDataError`.  Request ids are assigned after a stable sort
    by pickup time.
    """
    report = IngestReport()
    # each row's pickup minute, pickup and dropoff coordinates, duration and km
    table = array("d")
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"pickup_datetime", "dropoff_datetime", "pickup_lat",
                        "pickup_lon", "dropoff_lat", "dropoff_lon",
                        "trip_distance_km"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise TripDataError(f"{path}: missing columns "
                                    f"{sorted(required - set(reader.fieldnames or []))}")
            for rec in reader:
                report.total += 1
                try:
                    pickup_dt = datetime.fromisoformat(rec["pickup_datetime"])
                    dropoff_dt = datetime.fromisoformat(rec["dropoff_datetime"])
                    coords = (float(rec["pickup_lat"]), float(rec["pickup_lon"]),
                              float(rec["dropoff_lat"]), float(rec["dropoff_lon"]))
                    dist = float(rec["trip_distance_km"])
                    if not (math.isfinite(dist) and dist >= 0):
                        raise ValueError(f"trip_distance_km {dist} is not finite "
                                         "and non-negative")
                    if pickup_dt.tzinfo is not None or dropoff_dt.tzinfo is not None:
                        raise ValueError("timestamps must not carry a time zone")
                except (ValueError, KeyError) as exc:
                    raise TripDataError(f"{path}: bad row {report.total}: {exc}") from exc
                table.extend(((pickup_dt - epoch).total_seconds() / 60.0, *coords,
                              (dropoff_dt - pickup_dt).total_seconds() / 60.0, dist))
    except OSError as exc:
        raise TripDataError(f"cannot read {path}: {exc}") from exc

    table = np.frombuffer(table).reshape(-1, 7)
    timed = table[:, 5] > 0
    lats, lons = table[:, [1, 3]], table[:, [2, 4]]
    # GridSpec.contains of both ends; a NaN coordinate is outside
    inside = ((grid.origin.lat <= lats) & (lats < grid.lat_max)
              & (grid.origin.lon <= lons) & (lons < grid.lon_max)).all(axis=1)
    report.dropped_duration = int(np.count_nonzero(~timed))
    report.dropped_bounds = int(np.count_nonzero(timed & ~inside))
    table = table[timed & inside]
    table = table[np.argsort(table[:, 0], kind="stable")]
    report.kept = len(table)
    return Trips(np.arange(len(table)), *table.T), report

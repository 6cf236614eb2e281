"""Trip-record ingestion: CSV to validated, sorted ride requests."""

from __future__ import annotations

import csv
import math
from datetime import datetime
from dataclasses import dataclass

from ..geo import GridSpec, Location
from ..sim import RideRequest


class TripDataError(ValueError):
    """Unreadable or structurally invalid trip file."""


@dataclass
class IngestReport:
    total: int = 0
    kept: int = 0
    dropped_bounds: int = 0
    dropped_duration: int = 0


def ingest_trips(path, grid: GridSpec, epoch: datetime) -> tuple[list[RideRequest], IngestReport]:
    """Read a trip CSV, filter outliers, and return time-sorted requests.

    Rows with coordinates outside the grid bounds or non-positive
    durations are dropped and counted in the report.  A row that does not
    parse, has a distance that is not finite and non-negative, or has a
    timestamp with a time zone raises :class:`TripDataError`.  Request
    ids are assigned after sorting by pickup time.
    """
    report = IngestReport()
    rows = []
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
                    pickup = Location(float(rec["pickup_lat"]), float(rec["pickup_lon"]))
                    dropoff = Location(float(rec["dropoff_lat"]), float(rec["dropoff_lon"]))
                    dist = float(rec["trip_distance_km"])
                    if not (math.isfinite(dist) and dist >= 0):
                        raise ValueError(f"trip_distance_km {dist} is not finite "
                                         "and non-negative")
                    if pickup_dt.tzinfo is not None or dropoff_dt.tzinfo is not None:
                        raise ValueError("timestamps must not carry a time zone")
                except (ValueError, KeyError) as exc:
                    raise TripDataError(f"{path}: bad row {report.total}: {exc}") from exc
                duration = (dropoff_dt - pickup_dt).total_seconds() / 60.0
                if duration <= 0:
                    report.dropped_duration += 1
                    continue
                if not (grid.contains(pickup) and grid.contains(dropoff)):
                    report.dropped_bounds += 1
                    continue
                minute = (pickup_dt - epoch).total_seconds() / 60.0
                rows.append((minute, pickup, dropoff, duration, dist))
    except OSError as exc:
        raise TripDataError(f"cannot read {path}: {exc}") from exc

    rows.sort(key=lambda r: r[0])
    requests = [RideRequest(rid=i, minute=r[0], pickup=r[1], dropoff=r[2],
                            trip_minutes=r[3], distance_km=r[4])
                for i, r in enumerate(rows)]
    report.kept = len(requests)
    return requests, report

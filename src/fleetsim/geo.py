"""Grid geometry, region aggregation and coordinate math.

The service area is discretized into an equal-angle grid of cells whose
metric extent at the grid's mid latitude equals ``cell_size`` meters.
Cells follow a half-open convention: a cell owns its south and west
edges, so a point exactly on an interior boundary belongs to the
higher-index cell.  A :class:`RegionMap` partitions the grid into square
blocks of cells, its region ids row-major over the blocks, and lists each
region's cells.  All values here are immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# meters spanned by one degree of latitude on the spherical earth model
METERS_PER_DEG_LAT = 2.0 * math.pi * EARTH_RADIUS_M / 360.0


# fraction of a cell by which offsets are snapped before flooring
_BOUNDARY_SNAP = 1e-9


class OutOfBoundsError(ValueError):
    """A coordinate fell outside the grid's bounds."""


@dataclass(frozen=True)
class Location:
    """A WGS-ish latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell grid anchored at a south-west origin.

    ``d_lat``/``d_lon`` are the angular cell extents derived from
    ``cell_size`` so that a cell measures ``cell_size`` meters at the
    grid's mid latitude.  :meth:`contains` is the grid's one bounds test and
    :meth:`center` its one cell-centre formula, for scalars and arrays alike.
    """

    rows: int
    cols: int
    cell_size: float
    origin: Location
    d_lat: float = field(init=False)
    d_lon: float = field(init=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        d_lat = self.cell_size / METERS_PER_DEG_LAT
        mid_lat = self.origin.lat + d_lat * self.rows / 2.0
        d_lon = self.cell_size / (METERS_PER_DEG_LAT * math.cos(math.radians(mid_lat)))
        object.__setattr__(self, "d_lat", d_lat)
        object.__setattr__(self, "d_lon", d_lon)

    @property
    def lat_max(self) -> float:
        return self.origin.lat + self.rows * self.d_lat

    @property
    def lon_max(self) -> float:
        return self.origin.lon + self.cols * self.d_lon

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def contains(self, lats, lons):
        """Whether each point ``(lats, lons)`` is inside the half-open bounds
        rectangle, elementwise over scalars or arrays; a NaN is outside."""
        return ((self.origin.lat <= lats) & (lats < self.lat_max)
                & (self.origin.lon <= lons) & (lons < self.lon_max))

    def center(self, rows, cols):
        """Latitudes and longitudes of the centres of cells ``(rows, cols)``,
        elementwise over scalars or arrays, with no bounds check."""
        return (self.origin.lat + (rows + 0.5) * self.d_lat,
                self.origin.lon + (cols + 0.5) * self.d_lon)


def center_of(cell: tuple[int, int], grid: GridSpec) -> Location:
    """Center coordinates of a grid cell; a cell off the grid raises."""
    row, col = cell
    if not (0 <= row < grid.rows and 0 <= col < grid.cols):
        raise OutOfBoundsError(f"cell {cell} outside {grid.rows}x{grid.cols} grid")
    return Location(*grid.center(row, col))


def cell_arrays(lats: np.ndarray, lons: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of the cells of coordinate arrays.

    Floor semantics: the cell owns its south-west edge, so boundary
    points go to the higher-index cell.  Out-of-bounds points raise
    :class:`OutOfBoundsError`, naming the first, rather than clamping.
    """
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    inside = grid.contains(lats, lons)
    if not inside.all():
        i = int(np.argmin(inside))
        raise OutOfBoundsError(
            f"location ({float(lats[i])}, {float(lons[i])}) outside grid bounds "
            f"[{grid.origin.lat}, {grid.lat_max}) x [{grid.origin.lon}, {grid.lon_max})"
        )
    # the 1e-9-cell snap (sub-micron) keeps points constructed as
    # origin + k*d_lat on the boundary they name despite rounding
    rows = np.floor((lats - grid.origin.lat) / grid.d_lat + _BOUNDARY_SNAP).astype(np.int64)
    cols = np.floor((lons - grid.origin.lon) / grid.d_lon + _BOUNDARY_SNAP).astype(np.int64)
    np.minimum(rows, grid.rows - 1, out=rows)
    np.minimum(cols, grid.cols - 1, out=cols)
    return rows, cols


@dataclass(frozen=True)
class RegionMap:
    """The partition of ``grid`` into square blocks of ``block x block`` cells.

    Region ids are row-major over the block grid: the block in block row
    ``i`` and block column ``j`` has id ``i * shape[1] + j``, which
    :meth:`dqn.DqnPolicy.dispatch` decodes with ``divmod``.  So a ``30x30``
    grid with 3x3 blocks has 100 regions arranged 10x10.  ``assignment``
    holds each fine cell's region id, read-only, and the tuple ``cells[k]``
    region ``k``'s ``(row, col)`` cells in row-major order.  Construction
    raises ``ValueError`` when ``block`` does not divide the grid.
    """

    grid: GridSpec
    block: int
    assignment: np.ndarray = field(init=False, repr=False, compare=False)
    cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, cols, block = self.grid.rows, self.grid.cols, self.block
        if block < 1 or rows % block or cols % block:
            raise ValueError(f"{rows}x{cols} grid not divisible into {block}x{block} blocks")
        r = np.arange(rows, dtype=np.int64) // block
        c = np.arange(cols, dtype=np.int64) // block
        assignment = r[:, None] * (cols // block) + c[None, :]
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "cells", tuple(
            tuple((row, col) for row in range(i, i + block) for col in range(j, j + block))
            for i in range(0, rows, block) for j in range(0, cols, block)))

    @property
    def shape(self) -> tuple[int, int]:
        """The block grid, rows and columns of regions."""
        return (self.grid.rows // self.block, self.grid.cols // self.block)

    @property
    def region_count(self) -> int:
        return math.prod(self.shape)


def aggregate_to_regions(heat: np.ndarray, rm: RegionMap) -> np.ndarray:
    """Sum a per-cell heat map into per-region totals (count conserving)."""
    heat = np.asarray(heat, dtype=np.float64)
    if heat.shape != rm.assignment.shape:
        raise ValueError(
            f"heat shape {heat.shape} does not match region map {rm.assignment.shape}"
        )
    return np.bincount(
        rm.assignment.ravel(), weights=heat.ravel(), minlength=rm.region_count
    )


def mismatch(x_cells: np.ndarray, w_cells: np.ndarray) -> np.ndarray:
    """Supply share minus demand share per location; zero shares on empty totals."""
    x = np.asarray(x_cells, dtype=np.float64)
    w = np.asarray(w_cells, dtype=np.float64)
    if x.shape != w.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {w.shape}")
    xs = x.sum()
    ws = w.sum()
    x_share = x / xs if xs > 0 else np.zeros_like(x)
    w_share = w / ws if ws > 0 else np.zeros_like(w)
    return x_share - w_share


def haversine(a: Location, b: Location) -> float:
    """Great-circle distance in meters (spherical earth, R = 6,371 km)."""
    return haversine_coords(a.lat, a.lon, b.lat, b.lon)


def haversine_coords(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """:func:`haversine` between two points given by their coordinates."""
    lat1, lon1, lat2, lon2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized haversine over numpy arrays, in meters."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64))
                              for x in (lat1, lon1, lat2, lon2))
    h = (np.sin((lat2 - lat1) / 2.0) ** 2
         + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))

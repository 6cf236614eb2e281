import math
import re

import numpy as np
import pytest
from oracles import cell_of, contains_reference, region_cells

from fleetsim.geo import (
    GridSpec,
    Location,
    OutOfBoundsError,
    RegionMap,
    aggregate_to_regions,
    cell_arrays,
    center_of,
    haversine,
    haversine_arrays,
    METERS_PER_DEG_LAT,
)


def grid_2x2(cell=150.0):
    return GridSpec(rows=2, cols=2, cell_size=cell, origin=Location(40.0, -74.0))


def one_cell(loc, grid):
    """The cell of one location, through the vectorized mapper."""
    rows, cols = cell_arrays([loc.lat], [loc.lon], grid)
    return (int(rows[0]), int(cols[0]))


class TestCellOf:
    def test_origin_corner_is_cell_zero(self):
        g = grid_2x2()
        assert one_cell(g.origin, g) == (0, 0)

    def test_interior_boundary_goes_to_higher_cell(self):
        g = grid_2x2()
        on_row_boundary = Location(g.origin.lat + g.d_lat, g.origin.lon)
        assert one_cell(on_row_boundary, g) == (1, 0)
        on_col_boundary = Location(g.origin.lat, g.origin.lon + g.d_lon)
        assert one_cell(on_col_boundary, g) == (0, 1)

    def test_offset_160m_east_in_150m_cells(self):
        # hand computation: 160 m east of origin crosses one 150 m column
        g = grid_2x2(cell=150.0)
        lon = g.origin.lon + g.d_lon * (160.0 / 150.0)
        assert one_cell(Location(g.origin.lat, lon), g) == (0, 1)

    def test_out_of_bounds_raises(self):
        g = grid_2x2()
        with pytest.raises(OutOfBoundsError):
            one_cell(Location(g.origin.lat - 1e-9, g.origin.lon), g)
        with pytest.raises(OutOfBoundsError):
            one_cell(Location(g.lat_max, g.origin.lon), g)

    def test_round_trip_through_center(self):
        g = GridSpec(rows=7, cols=5, cell_size=320.0, origin=Location(35.2, 139.4))
        for r in range(g.rows):
            for c in range(g.cols):
                assert one_cell(center_of((r, c), g), g) == (r, c)

    def test_vectorized_matches_scalar(self):
        g = GridSpec(rows=9, cols=11, cell_size=250.0, origin=Location(40.0, -74.0))
        rng = np.random.default_rng(7)
        # random points, then the south-west corner of every cell on the diagonal
        k = np.arange(min(g.rows, g.cols))
        lats = np.concatenate([rng.uniform(g.origin.lat, g.lat_max - 1e-9, size=50),
                               g.origin.lat + k * g.d_lat])
        lons = np.concatenate([rng.uniform(g.origin.lon, g.lon_max - 1e-9, size=50),
                               g.origin.lon + k * g.d_lon])
        rows, cols = cell_arrays(lats, lons, g)
        for lat, lon, r, c in zip(lats, lons, rows, cols):
            assert cell_of(Location(lat, lon), g) == (r, c)

    def test_vectorized_names_the_outside_point(self):
        g = grid_2x2()
        lats = [g.origin.lat, g.origin.lat, g.lat_max + 1e-3, g.origin.lat]
        lons = [g.origin.lon, g.origin.lon + g.d_lon, g.origin.lon, g.lon_max - 1e-9]
        with pytest.raises(OutOfBoundsError,
                           match=re.escape(f"({g.lat_max + 1e-3}, {g.origin.lon})")):
            cell_arrays(lats, lons, g)


class TestGridRules:
    def test_contains_equals_the_scalar_chain(self):
        # each edge exactly, one ulp either side, NaN and both infinities
        g = GridSpec(rows=9, cols=11, cell_size=250.0, origin=Location(40.0, -74.0))

        def probes(lo, hi):
            edges = [lo, hi, (lo + hi) / 2]
            near = [np.nextafter(e, sign * np.inf) for e in (lo, hi) for sign in (-1, 1)]
            return np.array(edges + near + [np.nan, np.inf, -np.inf])

        lats, lons = np.meshgrid(probes(g.origin.lat, g.lat_max),
                                 probes(g.origin.lon, g.lon_max))
        got = g.contains(lats, lons)
        assert got.dtype == bool and got.shape == lats.shape
        want = [contains_reference(g, lat, lon) for lat, lon in zip(lats.flat, lons.flat)]
        assert got.ravel().tolist() == want
        assert 0 < sum(want) < len(want)
        for lat, lon, inside in zip(lats.flat, lons.flat, want):
            assert g.contains(float(lat), float(lon)) == inside

    def test_center_equals_center_of_byte_for_byte(self):
        g = GridSpec(rows=7, cols=5, cell_size=320.0, origin=Location(35.2, 139.4))
        lats, lons = g.center(*np.indices(g.shape))
        want = [center_of((r, c), g) for r in range(g.rows) for c in range(g.cols)]
        assert lats.ravel().tobytes() == np.array([w.lat for w in want]).tobytes()
        assert lons.ravel().tobytes() == np.array([w.lon for w in want]).tobytes()


def block_grid(rows, cols):
    return GridSpec(rows=rows, cols=cols, cell_size=100.0, origin=Location(0.0, 0.0))


def random_block_map(rng):
    """A block map of a random block size over a random number of blocks a side."""
    block, rows, cols = (int(v) for v in rng.integers(1, 5, size=3))
    return RegionMap(block_grid(rows * block, cols * block), block)


class TestRegionMap:
    def test_one_block_maps_everything_to_zero(self):
        rm = RegionMap(block_grid(3, 3), 3)
        assert rm.assignment.dtype == np.int64
        assert (rm.shape, rm.region_count) == ((1, 1), 1)
        for r in range(3):
            for c in range(3):
                assert rm.assignment[r, c] == 0

    def test_row_regions(self):
        rm = RegionMap(block_grid(2, 4), 2)
        assert (rm.shape, rm.region_count) == ((1, 2), 2)
        assert rm.assignment[1, 0] == 0
        assert rm.assignment[0, 2] == 1

    def test_assignment_is_read_only(self):
        rm = RegionMap(block_grid(2, 2), 1)
        with pytest.raises(ValueError, match="read-only"):
            rm.assignment[0, 0] = 1
        assert rm.assignment[0, 0] == 0

    @pytest.mark.parametrize("rows, cols, block", [
        (6, 6, 1), (6, 4, 2), (9, 12, 3), (4, 8, 4),
    ])
    def test_block_map_matches_brute_force(self, rows, cols, block):
        rm = RegionMap(block_grid(rows, cols), block)
        per_row = cols // block
        assert rm.shape == (rows // block, per_row)
        assert rm.region_count == (rows // block) * per_row
        for r in range(rows):
            for c in range(cols):
                assert rm.assignment[r, c] == (r // block) * per_row + c // block

    @pytest.mark.parametrize("rows, cols, block", [(6, 6, 4), (6, 4, 3), (4, 6, 3),
                                                   (6, 6, 0), (6, 6, -2)])
    def test_block_map_rejects_an_indivisible_grid(self, rows, cols, block):
        with pytest.raises(ValueError, match=f"{rows}x{cols} grid not divisible into "
                                             f"{block}x{block} blocks"):
            RegionMap(block_grid(rows, cols), block)

    def test_cells_equal_the_walk_over_the_assignment(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rm = random_block_map(rng)
            assert isinstance(rm.cells, tuple) and all(isinstance(c, tuple) for c in rm.cells)
            assert dict(enumerate(map(list, rm.cells))) == region_cells(rm)
            assert all(type(v) is int for cells in rm.cells for cell in cells for v in cell)

    def test_block_map_layout(self):
        rm = RegionMap(block_grid(6, 6), 3)
        assert rm.region_count == 4
        assert rm.assignment[0, 0] == 0
        assert rm.assignment[0, 3] == 1
        assert rm.assignment[3, 0] == 2
        assert rm.assignment[5, 5] == 3


class TestAggregate:
    def test_zero_heat(self):
        rm = RegionMap(block_grid(3, 3), 3)
        assert aggregate_to_regions(np.zeros((3, 3)), rm).tolist() == [0.0]

    def test_single_cell_single_region(self):
        rm = RegionMap(block_grid(2, 2), 2)
        heat = np.zeros((2, 2))
        heat[1, 0] = 5.0
        assert aggregate_to_regions(heat, rm).tolist() == [5.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rm = random_block_map(rng)
            heat = rng.integers(0, 9, size=rm.assignment.shape).astype(float)
            got = aggregate_to_regions(heat, rm)
            expect = np.zeros(rm.region_count)
            for (r, c), value in np.ndenumerate(heat):
                expect[rm.assignment[r, c]] += value
            np.testing.assert_array_equal(got, expect)

    def test_conserves_total_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rm = random_block_map(rng)
            heat = rng.uniform(0, 10, size=rm.assignment.shape)
            assert aggregate_to_regions(heat, rm).sum() == pytest.approx(heat.sum())

    def test_dimension_mismatch(self):
        rm = RegionMap(block_grid(2, 2), 1)
        with pytest.raises(ValueError):
            aggregate_to_regions(np.zeros((3, 3)), rm)


class TestHaversine:
    def test_zero_iff_same_point(self):
        a = Location(40.7, -74.0)
        assert haversine(a, a) == 0.0
        assert haversine(a, Location(40.7, -74.0001)) > 0.0

    def test_one_degree_latitude(self):
        # 2*pi*R/360 of the fixed-earth model, within a meter
        a = Location(10.0, 20.0)
        b = Location(11.0, 20.0)
        assert haversine(a, b) == pytest.approx(METERS_PER_DEG_LAT, abs=1.0)
        assert haversine(a, b) == pytest.approx(111_195.0, abs=1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = Location(rng.uniform(-60, 60), rng.uniform(-180, 180))
            b = Location(rng.uniform(-60, 60), rng.uniform(-180, 180))
            assert haversine(a, b) == pytest.approx(haversine(b, a), rel=0, abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pts = [Location(rng.uniform(-60, 60), rng.uniform(-180, 180)) for _ in range(3)]
            ab = haversine(pts[0], pts[1])
            bc = haversine(pts[1], pts[2])
            ac = haversine(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6 * max(1.0, ac)

    def test_array_version_matches(self):
        rng = np.random.default_rng(4)
        lats1 = rng.uniform(-60, 60, 30)
        lons1 = rng.uniform(-180, 180, 30)
        lats2 = rng.uniform(-60, 60, 30)
        lons2 = rng.uniform(-180, 180, 30)
        arr = haversine_arrays(lats1, lons1, lats2, lons2)
        for i in range(30):
            ref = haversine(Location(lats1[i], lons1[i]), Location(lats2[i], lons2[i]))
            assert arr[i] == pytest.approx(ref, rel=1e-12)


def test_grid_invariants():
    with pytest.raises(ValueError):
        GridSpec(rows=0, cols=3, cell_size=100.0, origin=Location(0, 0))
    with pytest.raises(ValueError):
        GridSpec(rows=3, cols=3, cell_size=-1.0, origin=Location(0, 0))
    g = GridSpec(rows=4, cols=4, cell_size=200.0, origin=Location(45.0, 7.0))
    # mid-latitude cell extent should equal cell_size within rounding
    mid = Location(45.0 + g.d_lat * 2, 7.0)
    east = Location(mid.lat, mid.lon + g.d_lon)
    assert haversine(mid, east) == pytest.approx(200.0, rel=1e-3)

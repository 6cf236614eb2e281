import heapq
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetsim.geo import GridSpec, Location, haversine
from fleetsim import roadgraph
from fleetsim.roadgraph import (
    Path,
    RoadGraph,
    hop_lengths,
    nearest_nodes,
    shortest_path,
)
from oracles import astar_reference, dijkstra_length, nearest_node_reference


def lattice(rows, cols, lat=40.0):
    return RoadGraph(GridSpec(rows=rows, cols=cols, cell_size=550.0, origin=Location(lat, -74.0)))


def point_set(locs):
    """What :func:`nearest_nodes` reads of a graph, for nodes at ``locs``
    with ids ``0, 1, ...``: the bucket index stays general, so its tests
    draw node sets no lattice has."""
    lats = np.array([p.lat for p in locs], dtype=np.float64)
    lons = np.array([p.lon for p in locs], dtype=np.float64)
    return SimpleNamespace(nodes=tuple(locs), _lats=lats, _lons=lons,
                           _buckets=roadgraph._build_buckets(lats, lons))


class TestLattice:
    @pytest.mark.parametrize("rows, cols, lat", [
        (1, 1, 40.0), (1, 7, 40.0), (7, 1, 40.0), (4, 4, 40.0), (6, 11, 40.0), (20, 20, 40.0),
        (20, 20, 64.0), (20, 20, -64.0), (20, 20, 89.85), (20, 20, -89.95)])
    def test_road_grid_is_the_cell_centres_and_their_neighbours(self, rows, cols, lat):
        # every node is its cell's centre, inside the grid, and every road
        # joins two neighbours both ways at their distance
        grid = GridSpec(rows=rows, cols=cols, cell_size=550.0, origin=Location(lat, -74.0))
        graph = RoadGraph(grid)
        assert len(graph.nodes) == len(graph.adjacency) == rows * cols
        for nid, loc in enumerate(graph.nodes):
            assert loc == Location(*grid.center(nid // cols, nid % cols))
            assert grid.contains(loc.lat, loc.lon)
        for out in graph.adjacency:
            neighbours = [to for to, _ in out]
            assert neighbours == sorted(set(neighbours))
        edges = {(frm, to): length for frm, out in enumerate(graph.adjacency)
                 for to, length in out}
        assert len(edges) == 2 * (rows * (cols - 1) + cols * (rows - 1))
        for (frm, to), length in edges.items():
            assert abs(frm // cols - to // cols) + abs(frm % cols - to % cols) == 1
            assert length == edges[to, frm] == haversine(graph.nodes[frm], graph.nodes[to])

    def test_path_edges_exist_and_length_adds_up(self):
        g = lattice(5, 5, -64.0)
        p = shortest_path(0, 17, g)
        total = 0.0
        for a, b in zip(p.nodes[:-1], p.nodes[1:]):
            lengths = [l for to, l in g.adjacency[a] if to == b]
            assert lengths, f"missing edge {a}->{b}"
            total += lengths[0]
        assert p.total_length == total


class TestDerivedArrays:
    @pytest.mark.parametrize("name", ["_lats", "_lons", "_buckets", "nodes", "adjacency",
                                      "_half_lats", "_half_lons", "_cos_lats"])
    def test_derived_array_is_not_a_constructor_argument(self, name):
        # a graph is its grid: everything it holds is derived from it
        grid = GridSpec(rows=2, cols=3, cell_size=550.0, origin=Location(40.0, -74.0))
        with pytest.raises(TypeError, match=name):
            RoadGraph(grid, **{name: np.array([99])})
        graph = RoadGraph(grid)
        assert graph._lats.tolist() == [p.lat for p in graph.nodes]
        assert graph._lons.tolist() == [p.lon for p in graph.nodes]

    @pytest.mark.parametrize("lat", [40.0, 64.0, -64.0, 89.85, -89.95])
    def test_hop_lengths_are_the_straight_lines(self, lat):
        # no road is shorter than the straight line, so the unscaled
        # haversine heuristic is admissible
        g = lattice(6, 7, lat)
        for d in range(len(g.nodes)):
            p = shortest_path(0, d, g)
            assert hop_lengths(p, g) == [haversine(g.nodes[a], g.nodes[b])
                                         for a, b in zip(p.nodes, p.nodes[1:])]


class TestNearestNode:
    def test_exact_node_location(self):
        g = lattice(5, 6)
        for nid, loc in enumerate(g.nodes):
            assert nearest_nodes([loc.lat], [loc.lon], g).tolist() == [nid]
        got = nearest_nodes([p.lat for p in g.nodes], [p.lon for p in g.nodes], g)
        assert got.tolist() == list(range(len(g.nodes)))

    def test_equidistant_prefers_lower_id(self):
        g = point_set([Location(40.0, -74.001), Location(40.0, -73.999)])
        assert nearest_nodes([40.0], [-74.0], g).tolist() == [0]
        got = nearest_nodes([40.0, 40.0, 40.0], [-74.0, -74.001, -73.999], g)
        assert got.tolist() == [0, 0, 1]

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        g = point_set([Location(40.0 + rng.uniform(0, 0.05), -74.0 + rng.uniform(0, 0.05))
                       for _ in range(30)])
        points = []
        for _ in range(20):
            q = Location(40.0 + rng.uniform(0, 0.05), -74.0 + rng.uniform(0, 0.05))
            got = int(nearest_nodes([q.lat], [q.lon], g)[0])
            best = min(range(30), key=lambda nid: (haversine(q, g.nodes[nid]), nid))
            assert got == best
            points.append((q, best))
        batch = nearest_nodes([q.lat for q, _ in points], [q.lon for q, _ in points], g)
        assert batch.tolist() == [best for _, best in points]

    def test_batch_equals_one_point_lookups(self):
        # lattice: many points sit exactly between two or four nodes
        grid = GridSpec(rows=6, cols=6, cell_size=500.0, origin=Location(40.0, -74.0))
        g = RoadGraph(grid)
        rng = np.random.default_rng(5)
        lats = grid.origin.lat + grid.d_lat * np.concatenate(
            [rng.uniform(0, 6, 200), rng.integers(0, 13, 100) / 2.0])
        lons = grid.origin.lon + grid.d_lon * np.concatenate(
            [rng.uniform(0, 6, 200), rng.integers(0, 13, 100) / 2.0])
        got = nearest_nodes(lats, lons, g)
        expect = [nearest_node_reference(Location(a, b), g) for a, b in zip(lats, lons)]
        assert got.tolist() == expect
        assert nearest_nodes([], [], g).tolist() == []

    @pytest.mark.parametrize("lat, lon", [(np.nan, -74.0), (40.0, np.nan),
                                          (np.inf, -74.0), (40.0, -np.inf)])
    def test_non_finite_point_rejected(self, lat, lon):
        g = RoadGraph(GridSpec(rows=3, cols=3, cell_size=500.0, origin=Location(40.0, -74.0)))
        for lats, lons in (([lat], [lon]), ([40.001, lat], [-73.999, lon])):
            with pytest.raises(ValueError, match=f"non-finite point {len(lats) - 1}"):
                nearest_nodes(lats, lons, g)


DEFAULT_GRID = GridSpec(rows=20, cols=20, cell_size=550.0, origin=Location(40.0, -74.0))


def assert_equals_full_scan(lats, lons, g):
    """Each point alone, and all of them as one batch, against the scalar oracle."""
    expect = [nearest_node_reference(Location(a, b), g) for a, b in zip(lats, lons)]
    assert [int(nearest_nodes([a], [b], g)[0]) for a, b in zip(lats, lons)] == expect
    assert nearest_nodes(lats, lons, g).tolist() == expect


class TestBucketIndex:
    """The bucket index gives the node a scan of every node gives."""

    def test_default_grid_is_small(self):
        b = RoadGraph(DEFAULT_GRID)._buckets
        assert (b.rows, b.cols) == (22, 22)
        assert b.candidates.shape[1] <= 15
        assert b.candidates.nbytes < 100_000
        assert np.all(np.diff(b.candidates, axis=1) >= 0)

    @pytest.mark.parametrize("rows, cols", [(20, 20), (1, 12), (12, 1)])
    def test_half_cell_points(self, rows, cols):
        # every half-cell point up to two cells outside the grid: the nodes
        # (cell centres), two-way ties at edge midpoints and four-way ties
        # at cell corners
        grid = GridSpec(rows=rows, cols=cols, cell_size=550.0, origin=Location(40.0, -74.0))
        r, c = np.stack(np.meshgrid(np.arange(-4, 2 * rows + 5) / 2.0,
                                    np.arange(-4, 2 * cols + 5) / 2.0,
                                    indexing="ij")).reshape(2, -1)
        assert_equals_full_scan(grid.origin.lat + grid.d_lat * r,
                                grid.origin.lon + grid.d_lon * c, RoadGraph(grid))

    def test_default_grid_random_points(self):
        g = RoadGraph(DEFAULT_GRID)
        rng = np.random.default_rng(11)
        inside = rng.uniform(0, 20, (2, 1500))
        around = rng.uniform(-2, 22, (2, 1500))  # up to two cells outside
        for rows, cols in (inside, around):
            lats = DEFAULT_GRID.origin.lat + DEFAULT_GRID.d_lat * rows
            lons = DEFAULT_GRID.origin.lon + DEFAULT_GRID.d_lon * cols
            assert_equals_full_scan(lats, lons, g)

    def test_high_latitude_table_is_no_wider(self):
        # bounding the cosine factor by 1 made the table 15 wide at 40
        # degrees, 28 at 64 degrees and all 400 nodes near the pole
        def width(lat):
            return lattice(20, 20, lat)._buckets.candidates.shape[1]

        assert width(64.0) <= width(40.0) < 15
        assert width(-64.0) <= width(40.0)
        assert width(89.85) < 15

    @pytest.mark.parametrize("lat", [40.0, 64.0, -64.0, 89.85, -89.95])
    def test_random_points_at_latitude(self, lat):
        grid = GridSpec(rows=20, cols=20, cell_size=550.0, origin=Location(lat, -74.0))
        g = RoadGraph(grid)
        rng = np.random.default_rng(12)
        inside = rng.uniform(0, 20, (2, 600))
        around = rng.uniform(-2, 22, (2, 600))  # up to two cells outside
        for rows, cols in (inside, around):
            assert_equals_full_scan(grid.origin.lat + grid.d_lat * rows,
                                    grid.origin.lon + grid.d_lon * cols, g)

    @given(st.data())
    def test_random_graphs(self, data):
        # nodes on a small lattice, so locations repeat and points tie
        n_rows = data.draw(st.integers(1, 8), label="rows")
        n_cols = data.draw(st.integers(1, 8), label="cols")
        cells = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
        jitter = st.floats(-0.5, 0.5)
        spots = data.draw(st.lists(st.tuples(cells, jitter, jitter), min_size=1, max_size=60),
                          label="nodes")
        step = data.draw(st.sampled_from([1e-4, 4e-3, 0.2]), label="step")
        on_lattice = data.draw(st.booleans(), label="on_lattice")
        locs = []
        for (r, c), dr, dc in spots:
            if on_lattice:
                dr = dc = 0.0
            locs.append(Location(40.0 + step * (r + dr), -74.0 + step * (c + dc)))
        g = point_set(locs)
        # lattice points and half-steps tie often; the rest are anywhere
        # within two steps of the nodes' box
        ticks = st.integers(-4, 2 * max(n_rows, n_cols) + 4).map(lambda i: i / 2.0 - 0.5)
        anywhere = st.floats(-2.5, max(n_rows, n_cols) + 1.5)
        coords = st.one_of(ticks, anywhere)
        points = data.draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=30),
                           label="points")
        lats = [40.0 + step * r for r, _ in points]
        lons = [-74.0 + step * c for _, c in points]
        assert_equals_full_scan(lats, lons, g)

    def test_single_node_and_duplicates(self):
        for locs in ([Location(40.0, -74.0)], [Location(40.0, -74.0)] * 2):
            g = point_set(locs)
            lats = 40.0 + np.array([0.0, 1e-4, -0.2, 5e-4])
            lons = -74.0 + np.array([0.0, -1e-4, 0.3, 5e-4])
            assert_equals_full_scan(lats, lons, g)
            assert nearest_nodes(lats, lons, g).tolist() == [0] * 4


class TestShortestPath:
    def test_same_origin_destination(self):
        p = shortest_path(4, 4, lattice(3, 3))
        assert p == Path(nodes=(), total_length=0.0)

    def test_line_graph(self):
        g = lattice(3, 1)
        p = shortest_path(0, 2, g)
        assert p.nodes == (0, 1, 2)
        assert p.total_length == g.adjacency[0][0][1] + g.adjacency[1][1][1]

    @pytest.mark.parametrize("rows, cols, sample", [
        (1, 1, None), (1, 7, None), (7, 1, None), (4, 4, None), (10, 10, None), (20, 20, 2500)])
    def test_every_pair_has_the_reference_path(self, rows, cols, sample):
        # every pair of the small lattices, and a fixed sample of a 20x20's pairs
        g = RoadGraph(GridSpec(rows=rows, cols=cols, cell_size=500.0,
                               origin=Location(40.0, -74.0)))
        n = rows * cols
        pairs = [(o, d) for o in range(n) for d in range(n)]
        if sample is not None:
            rng = np.random.default_rng(13)
            pairs = [pairs[i] for i in rng.choice(len(pairs), sample, replace=False)]
        for o, d in pairs:
            p = shortest_path(o, d, g)
            assert isinstance(p, Path)
            assert p == astar_reference(o, d, g)
            assert p.total_length == dijkstra_length(o, d, g)
            # each hop is a road, and the roads add up in path order
            total = 0.0
            for length in hop_lengths(p, g):
                total += length
            assert total == p.total_length
            assert len(p.nodes) == (0 if o == d else 1 + abs(o // cols - d // cols)
                                    + abs(o % cols - d % cols))

    @pytest.mark.parametrize("lat", [40.0, -64.0])
    def test_heuristic_equals_haversine(self, lat, monkeypatch):
        # every pushed f must be g + geo.haversine(node, dest), bit for bit
        pushed = []

        def heappush(heap, item):
            pushed.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(roadgraph, "heapq",
                            SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        g = lattice(6, 7, lat)
        for dest in range(len(g.nodes)):
            pushed.clear()
            shortest_path(0, dest, g)
            for f, g_cost, k in pushed:
                assert f == g_cost + haversine(g.nodes[k], g.nodes[dest])

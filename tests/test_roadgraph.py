import heapq
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetsim.geo import GridSpec, Location, haversine
from fleetsim import roadgraph
from fleetsim.harness.synth import build_road_grid
from fleetsim.roadgraph import (
    Path,
    RoadGraph,
    build_graph,
    hop_lengths,
    nearest_nodes,
    shortest_path,
)
from oracles import astar_reference, dijkstra_length, nearest_node_reference


def random_graph(rng, n_nodes=20, extra_edges=30, noisy_lengths=False):
    """Connected-ish random digraph with roughly road-like edge lengths."""
    nodes = {
        i: Location(40.0 + rng.uniform(0, 0.05), -74.0 + rng.uniform(0, 0.05))
        for i in range(n_nodes)
    }
    edges = []
    order = rng.permutation(n_nodes)
    for a, b in zip(order[:-1], order[1:]):  # spanning chain, both ways
        d = haversine(nodes[int(a)], nodes[int(b)])
        edges.append((int(a), int(b), d * rng.uniform(1.0, 1.6)))
        edges.append((int(b), int(a), d * rng.uniform(1.0, 1.6)))
    for _ in range(extra_edges):
        a, b = rng.integers(0, n_nodes, size=2)
        if a == b:
            continue
        d = haversine(nodes[int(a)], nodes[int(b)])
        lo = 0.7 if noisy_lengths else 1.0
        edges.append((int(a), int(b), max(1.0, d * rng.uniform(lo, 1.8))))
    return build_graph(nodes, edges)


class TestBuildGraph:
    def test_nodes_only(self):
        g = build_graph({1: Location(40.0, -74.0), 2: Location(40.1, -74.1)}, [])
        assert len(g.nodes) == 2
        assert g.adjacency == {1: [], 2: []}

    def test_two_nodes_one_edge(self):
        g = build_graph({1: Location(40.0, -74.0), 2: Location(40.1, -74.1)},
                        [(1, 2, 500.0)])
        assert g.adjacency[1] == [(2, 500.0)]
        assert g.adjacency[2] == []

    def test_duplicate_edge_keeps_shorter(self):
        g = build_graph({1: Location(40.0, -74.0), 2: Location(40.001, -74.0)},
                        [(1, 2, 900.0), (1, 2, 700.0)])
        assert g.adjacency[1] == [(2, 700.0)]

    @pytest.mark.parametrize("frm, to", [(0, 3), (3, 0)])
    def test_edge_to_an_unknown_node_rejected(self, frm, to):
        with pytest.raises(ValueError) as exc:
            build_graph({0: Location(40.0, -74.0)}, [(frm, to, 500.0)])
        assert str(exc.value) == f"edge {frm}->{to} references unknown node"

    @pytest.mark.parametrize("length", ["nan", "inf", "-inf", "0", "-5.0"])
    def test_length_not_finite_and_positive_rejected(self, length):
        # a nan or inf edge used to load, and A* never relaxed it
        nodes = {0: Location(40.0, -74.0), 1: Location(40.001, -74.0),
                 2: Location(40.002, -74.0)}
        with pytest.raises(ValueError) as exc:
            build_graph(nodes, [(0, 1, 500.0), (1, 2, float(length))])
        assert str(exc.value).startswith(f"edge 1->2 has length {float(length)}")


class TestDerivedArrays:
    @pytest.mark.parametrize("name", ["_ids", "_lats", "_lons", "_hop_m", "heuristic_scale",
                                      "_buckets"])
    def test_derived_array_is_not_a_constructor_argument(self, name):
        nodes = {1: Location(40.0, -74.0)}
        with pytest.raises(TypeError, match=name):
            RoadGraph(nodes, {1: []}, **{name: np.array([99])})
        graph = RoadGraph(nodes, {1: []})
        assert graph._ids.tolist() == [1]
        assert (graph._lats.tolist(), graph._lons.tolist()) == ([40.0], [-74.0])

    @pytest.mark.parametrize("noisy", [False, True])
    def test_hop_lengths_and_heuristic_scale(self, noisy):
        rng = np.random.default_rng(7)
        g = random_graph(rng, n_nodes=30, extra_edges=60, noisy_lengths=noisy)
        ratios = [length / haversine(g.nodes[a], g.nodes[b])
                  for a, adj in g.adjacency.items() for b, length in adj]
        assert g.heuristic_scale == min([1.0, *ratios])
        assert (g.heuristic_scale < 1.0) == noisy
        for d in g.nodes:
            p = shortest_path(0, d, g)
            if p is not None:
                assert hop_lengths(p, g) == [haversine(g.nodes[a], g.nodes[b])
                                             for a, b in zip(p.nodes, p.nodes[1:])]


class TestNearestNode:
    def test_exact_node_location(self):
        g = random_graph(np.random.default_rng(1))
        for nid, loc in list(g.nodes.items())[:5]:
            assert nearest_nodes([loc.lat], [loc.lon], g).tolist() == [nid]
        locs = list(g.nodes.values())
        got = nearest_nodes([p.lat for p in locs], [p.lon for p in locs], g)
        assert got.tolist() == list(g.nodes)

    def test_equidistant_prefers_lower_id(self):
        nodes = {
            5: Location(40.0, -74.001),
            9: Location(40.0, -73.999),
        }
        g = build_graph(nodes, [])
        assert nearest_nodes([40.0], [-74.0], g).tolist() == [5]
        got = nearest_nodes([40.0, 40.0, 40.0], [-74.0, -74.001, -73.999], g)
        assert got.tolist() == [5, 5, 9]

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n_nodes=30)
        points = []
        for _ in range(20):
            q = Location(40.0 + rng.uniform(0, 0.05), -74.0 + rng.uniform(0, 0.05))
            got = int(nearest_nodes([q.lat], [q.lon], g)[0])
            best = min(g.nodes, key=lambda nid: (haversine(q, g.nodes[nid]), nid))
            assert got == best
            points.append((q, best))
        batch = nearest_nodes([q.lat for q, _ in points], [q.lon for q, _ in points], g)
        assert batch.tolist() == [best for _, best in points]

    def test_batch_equals_one_point_lookups(self):
        # grid graph: many points sit exactly between two or four nodes
        grid = GridSpec(rows=6, cols=6, cell_size=500.0, origin=Location(40.0, -74.0))
        g = build_road_grid(grid)
        rng = np.random.default_rng(5)
        lats = grid.origin.lat + grid.d_lat * np.concatenate(
            [rng.uniform(0, 6, 200), rng.integers(0, 13, 100) / 2.0])
        lons = grid.origin.lon + grid.d_lon * np.concatenate(
            [rng.uniform(0, 6, 200), rng.integers(0, 13, 100) / 2.0])
        got = nearest_nodes(lats, lons, g)
        expect = [nearest_node_reference(Location(a, b), g) for a, b in zip(lats, lons)]
        assert got.tolist() == expect
        assert nearest_nodes([], [], g).tolist() == []

    def test_empty_graph(self):
        g = build_graph({}, [])
        with pytest.raises(ValueError):
            nearest_nodes([0.0], [0.0], g)

    @pytest.mark.parametrize("lat, lon", [(np.nan, -74.0), (40.0, np.nan),
                                          (np.inf, -74.0), (40.0, -np.inf)])
    def test_non_finite_point_rejected(self, lat, lon):
        g = build_road_grid(GridSpec(rows=3, cols=3, cell_size=500.0,
                                     origin=Location(40.0, -74.0)))
        for lats, lons in (([lat], [lon]), ([40.001, lat], [-73.999, lon])):
            with pytest.raises(ValueError, match=f"non-finite point {len(lats) - 1}"):
                nearest_nodes(lats, lons, g)

    def test_non_finite_node_rejected(self):
        nodes = {1: Location(40.0, -74.0), 2: Location(np.nan, -74.0)}
        with pytest.raises(ValueError, match="node 2"):
            build_graph(nodes, [])


DEFAULT_GRID = GridSpec(rows=20, cols=20, cell_size=550.0, origin=Location(40.0, -74.0))


def assert_equals_full_scan(lats, lons, g):
    """Each point alone, and all of them as one batch, against the scalar oracle."""
    expect = [nearest_node_reference(Location(a, b), g) for a, b in zip(lats, lons)]
    assert [int(nearest_nodes([a], [b], g)[0]) for a, b in zip(lats, lons)] == expect
    assert nearest_nodes(lats, lons, g).tolist() == expect


class TestBucketIndex:
    """The bucket index gives the node a scan of every node gives."""

    def test_default_grid_is_small(self):
        b = build_road_grid(DEFAULT_GRID)._buckets
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
                                grid.origin.lon + grid.d_lon * c, build_road_grid(grid))

    def test_default_grid_random_points(self):
        g = build_road_grid(DEFAULT_GRID)
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
            grid = GridSpec(rows=20, cols=20, cell_size=550.0, origin=Location(lat, -74.0))
            return build_road_grid(grid)._buckets.candidates.shape[1]

        assert width(64.0) <= width(40.0) < 15
        assert width(-64.0) <= width(40.0)
        assert width(89.85) < 15

    @pytest.mark.parametrize("lat", [40.0, 64.0, -64.0, 89.85, -89.95])
    def test_random_points_at_latitude(self, lat):
        grid = GridSpec(rows=20, cols=20, cell_size=550.0, origin=Location(lat, -74.0))
        g = build_road_grid(grid)
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
        nodes = {}
        for k, ((r, c), dr, dc) in enumerate(spots):
            if on_lattice:
                dr = dc = 0.0
            nodes[3 * k + 1] = Location(40.0 + step * (r + dr), -74.0 + step * (c + dc))
        g = build_graph(nodes, [])
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
        for nodes in ({7: Location(40.0, -74.0)},
                      {3: Location(40.0, -74.0), 1: Location(40.0, -74.0)}):
            g = build_graph(nodes, [])
            lats = 40.0 + np.array([0.0, 1e-4, -0.2, 5e-4])
            lons = -74.0 + np.array([0.0, -1e-4, 0.3, 5e-4])
            assert_equals_full_scan(lats, lons, g)
            assert nearest_nodes(lats, lons, g).tolist() == [min(nodes)] * 4


class TestShortestPath:
    def test_same_origin_destination(self):
        g = random_graph(np.random.default_rng(3))
        p = shortest_path(4, 4, g)
        assert p == Path(nodes=(), total_length=0.0)

    def test_line_graph(self):
        nodes = {
            0: Location(40.0, -74.0),
            1: Location(40.01, -74.0),
            2: Location(40.02, -74.0),
        }
        d01 = haversine(nodes[0], nodes[1]) * 1.2
        d12 = haversine(nodes[1], nodes[2]) * 1.3
        g = build_graph(nodes, [(0, 1, d01), (1, 2, d12)])
        p = shortest_path(0, 2, g)
        assert p.nodes == (0, 1, 2)
        assert p.total_length == pytest.approx(d01 + d12)

    def test_unreachable_returns_none(self):
        nodes = {0: Location(40.0, -74.0), 1: Location(40.1, -74.0)}
        g = build_graph(nodes, [(1, 0, 100.0)])
        assert shortest_path(0, 1, g) is None

    def test_path_edges_exist_and_length_adds_up(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n_nodes=25)
        p = shortest_path(0, 17, g)
        assert p is not None
        total = 0.0
        for a, b in zip(p.nodes[:-1], p.nodes[1:]):
            lengths = [l for to, l in g.adjacency[a] if to == b]
            assert lengths, f"missing edge {a}->{b}"
            total += lengths[0]
        assert p.total_length == pytest.approx(total)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_hundred_random_graphs_match_dijkstra(self, noisy):
        # noisy=True plants edges shorter than the straight-line distance,
        # exercising the heuristic rescaling that keeps A* admissible
        rng = np.random.default_rng(42 if not noisy else 43)
        for trial in range(100):
            n = int(rng.integers(5, 51))
            g = random_graph(rng, n_nodes=n, extra_edges=int(rng.integers(0, 80)),
                             noisy_lengths=noisy)
            o, d = int(rng.integers(0, n)), int(rng.integers(0, n))
            expect = dijkstra_length(o, d, g)
            got = shortest_path(o, d, g)
            if expect is None:
                assert got is None
            else:
                assert got.total_length == pytest.approx(expect, rel=0, abs=1e-9)
            for d2 in g.nodes:
                assert shortest_path(o, d2, g) == astar_reference(o, d2, g)

    def test_grid_all_pairs_equal_reference(self):
        # every pair of a 10x10 grid, and a fixed sample of a 20x20 grid's pairs
        rng = np.random.default_rng(13)
        for size, sample in ((10, None), (20, 2500)):
            grid = GridSpec(rows=size, cols=size, cell_size=500.0, origin=Location(40.0, -74.0))
            g = build_road_grid(grid)
            pairs = [(o, d) for o in g.nodes for d in g.nodes]
            if sample is not None:
                pairs = [pairs[i] for i in rng.choice(len(pairs), sample, replace=False)]
            for o, d in pairs:
                assert shortest_path(o, d, g) == astar_reference(o, d, g)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_heuristic_equals_scaled_haversine(self, noisy, monkeypatch):
        # every pushed f must be g + scale * geo.haversine(node, dest), bit for bit
        pushed = []

        def heappush(heap, item):
            pushed.append(item)
            heapq.heappush(heap, item)

        monkeypatch.setattr(roadgraph, "heapq",
                            SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
        g = random_graph(np.random.default_rng(21), n_nodes=40, extra_edges=80,
                         noisy_lengths=noisy)
        ids = sorted(g.nodes)
        for dest in g.nodes:
            pushed.clear()
            shortest_path(0, dest, g)
            for f, g_cost, k in pushed:
                h = g.heuristic_scale * haversine(g.nodes[ids[k]], g.nodes[dest])
                assert f == g_cost + h

    def test_length_monotone_under_edge_deletion(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, n_nodes=20, extra_edges=40)
        base = shortest_path(0, 10, g)
        assert base is not None and len(base.nodes) >= 2
        # delete the first edge on the optimal path and rebuild
        a, b = base.nodes[0], base.nodes[1]
        edges = [
            (frm, to, l)
            for frm, adj in g.adjacency.items()
            for to, l in adj
            if not (frm == a and to == b)
        ]
        g2 = build_graph(g.nodes, edges)
        after = shortest_path(0, 10, g2)
        if after is not None:
            assert after.total_length >= base.total_length - 1e-9

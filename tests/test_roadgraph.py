import numpy as np
import pytest

from fleetsim.geo import GridSpec, Location, haversine
from fleetsim.harness.synth import build_road_grid
from fleetsim.roadgraph import (
    EdgeListParseError,
    Path,
    RoadGraph,
    build_graph,
    hop_lengths,
    load_edge_list,
    nearest_nodes,
    save_edge_list,
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


class TestLoadEdgeList:
    def test_nodes_only(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("#nodes\n1,40.0,-74.0\n2,40.1,-74.1\n#edges\n")
        g = load_edge_list(p)
        assert len(g.nodes) == 2
        assert g.adjacency == {1: [], 2: []}

    def test_two_nodes_one_edge(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("#nodes\n1,40.0,-74.0\n2,40.1,-74.1\n#edges\n1,2,500.0\n")
        g = load_edge_list(p)
        assert g.adjacency[1] == [(2, 500.0)]
        assert g.adjacency[2] == []

    def test_duplicate_edge_keeps_shorter(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(
            "#nodes\n1,40.0,-74.0\n2,40.001,-74.0\n"
            "#edges\n1,2,900.0\n1,2,700.0\n"
        )
        g = load_edge_list(p)
        assert g.adjacency[1] == [(2, 700.0)]

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("#nodes\n1,40.0,-74.0\nbogus line\n")
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list(p)

    def test_save_load_round_trip(self, tmp_path):
        g = random_graph(np.random.default_rng(0), n_nodes=12)
        p = tmp_path / "g.txt"
        save_edge_list(g, p)
        g2 = load_edge_list(p)
        assert g2.nodes == g.nodes
        assert {k: sorted(v) for k, v in g2.adjacency.items()} == {
            k: sorted(v) for k, v in g.adjacency.items()
        }


class TestDerivedArrays:
    @pytest.mark.parametrize("name", ["_ids", "_lats", "_lons", "_hop_m", "heuristic_scale"])
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
        grid = GridSpec(rows=10, cols=10, cell_size=500.0, origin=Location(40.0, -74.0))
        g = build_road_grid(grid)
        for o in g.nodes:
            for d in g.nodes:
                assert shortest_path(o, d, g) == astar_reference(o, d, g)

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

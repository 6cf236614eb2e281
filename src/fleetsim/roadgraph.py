"""Directed road network with A* shortest-path search.

Dispatch trajectories run along this graph; travel *time* comes from the
ETA model, the graph only supplies distances and waypoints.

A graph derives its query arrays once, when it is built: the sorted node
ids with their latitude and longitude arrays (for nearest-node lookups),
an id -> index map, adjacency lists over those indices, and each node's
latitude and longitude in radians with the cosine of its latitude (for
the A* heuristic), and each directed edge's haversine length (for route
lengths and the heuristic's scale).  ``nodes`` and ``adjacency`` must
therefore not be mutated afterwards; build a new graph instead.  Queries
are pure functions, so concurrent use is safe.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .geo import EARTH_RADIUS_M, Location, haversine, haversine_arrays


class EdgeListParseError(ValueError):
    """Malformed edge-list file; carries the offending line number."""


@dataclass(frozen=True)
class Path:
    """Node sequence joined by graph edges. Empty when origin equals destination."""

    nodes: tuple[int, ...]
    total_length: float


@dataclass
class RoadGraph:
    nodes: dict[int, Location]
    adjacency: dict[int, list[tuple[int, float]]]  # node -> [(neighbor, meters)]
    # scale applied to the haversine heuristic so A* stays admissible even
    # when data contains edges shorter than the straight-line distance
    heuristic_scale: float = field(init=False)
    _ids: np.ndarray = field(init=False, repr=False)
    _lats: np.ndarray = field(init=False, repr=False)
    _lons: np.ndarray = field(init=False, repr=False)
    # A* works on indices into the sorted ids, so heap ties still break by id
    _index: dict[int, int] = field(init=False, repr=False)
    _id_list: list[int] = field(init=False, repr=False)
    _adj: list[list[tuple[int, float]]] = field(init=False, repr=False)
    _rad_lats: list[float] = field(init=False, repr=False)
    _rad_lons: list[float] = field(init=False, repr=False)
    _cos_lats: list[float] = field(init=False, repr=False)
    # haversine(nodes[a], nodes[b]) of each directed edge (a, b)
    _hop_m: dict[tuple[int, int], float] = field(init=False, repr=False)

    def __post_init__(self):
        ids = sorted(self.nodes)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._lats = np.asarray([self.nodes[i].lat for i in ids], dtype=np.float64)
        self._lons = np.asarray([self.nodes[i].lon for i in ids], dtype=np.float64)
        self._index = {nid: k for k, nid in enumerate(ids)}
        self._id_list = ids
        self._adj = [[(self._index[to], length) for to, length in self.adjacency[nid]]
                     for nid in ids]
        self._rad_lats = [math.radians(self.nodes[i].lat) for i in ids]
        self._rad_lons = [math.radians(self.nodes[i].lon) for i in ids]
        self._cos_lats = [math.cos(lat) for lat in self._rad_lats]
        self._hop_m = {(a, b): haversine(self.nodes[a], self.nodes[b])
                       for a, adj in self.adjacency.items() for b, _ in adj}
        self.heuristic_scale = 1.0
        for a, adj in self.adjacency.items():
            for b, length in adj:
                straight = self._hop_m[a, b]
                if straight > 0 and length < straight:
                    self.heuristic_scale = min(self.heuristic_scale, length / straight)


def build_graph(nodes: dict[int, Location], edges: list[tuple[int, int, float]]) -> RoadGraph:
    """Assemble a graph, deduplicating repeated edges by keeping the shorter one."""
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in nodes}
    best: dict[tuple[int, int], float] = {}
    for frm, to, length in edges:
        if frm not in nodes or to not in nodes:
            raise EdgeListParseError(f"edge {frm}->{to} references unknown node")
        if length <= 0:
            raise EdgeListParseError(f"edge {frm}->{to} has non-positive length {length}")
        key = (frm, to)
        if key not in best or length < best[key]:
            best[key] = float(length)
    for (frm, to), length in sorted(best.items()):
        adjacency[frm].append((to, length))
    return RoadGraph(nodes=nodes, adjacency=adjacency)


def load_edge_list(path) -> RoadGraph:
    """Parse a ``#nodes`` / ``#edges`` sectioned edge-list file.

    Node lines are ``node_id,lat,lon``; edge lines are
    ``from_id,to_id,length_m``.  Parse failures raise
    :class:`EdgeListParseError` with the line number.
    """
    nodes: dict[int, Location] = {}
    edges: list[tuple[int, int, float]] = []
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                name = line.lstrip("#").strip().lower()
                if name not in ("nodes", "edges"):
                    raise EdgeListParseError(f"line {lineno}: unknown section '{line}'")
                section = name
                continue
            parts = line.split(",")
            try:
                if section == "nodes":
                    if len(parts) != 3:
                        raise ValueError("expected node_id,lat,lon")
                    nodes[int(parts[0])] = Location(float(parts[1]), float(parts[2]))
                elif section == "edges":
                    if len(parts) != 3:
                        raise ValueError("expected from_id,to_id,length_m")
                    edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
                else:
                    raise ValueError("data before any section header")
            except ValueError as exc:
                raise EdgeListParseError(f"line {lineno}: {exc}") from exc
    return build_graph(nodes, edges)


def save_edge_list(graph: RoadGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("#nodes\n")
        for nid in sorted(graph.nodes):
            loc = graph.nodes[nid]
            fh.write(f"{nid},{float(loc.lat)!r},{float(loc.lon)!r}\n")
        fh.write("#edges\n")
        for frm in sorted(graph.adjacency):
            for to, length in graph.adjacency[frm]:
                fh.write(f"{frm},{to},{float(length)!r}\n")


def nearest_nodes(lats, lons, graph: RoadGraph) -> np.ndarray:
    """Id of the node nearest each point (haversine); ties go to the lowest id."""
    if not graph.nodes:
        raise ValueError("nearest-node lookup on an empty graph")
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    d = haversine_arrays(lats[:, None], lons[:, None], graph._lats, graph._lons)
    # ids are sorted ascending, so argmin's first-hit rule breaks ties by lowest id
    return graph._ids[np.argmin(d, axis=1)]


def hop_lengths(path: Path, graph: RoadGraph) -> list[float]:
    """Straight-line (haversine) meters of each edge along ``path``."""
    ids = path.nodes
    return [graph._hop_m[hop] for hop in zip(ids, ids[1:])]


def shortest_path(origin: int, dest: int, graph: RoadGraph) -> Path | None:
    """Length-optimal path via A* with a scaled-haversine heuristic.

    Returns ``None`` when ``dest`` is unreachable from ``origin``.  The
    heuristic scale keeps the estimate admissible, so results match
    Dijkstra exactly.  The search runs over node indices; the heuristic
    is :func:`geo.haversine` from a node to ``dest``, evaluated inline
    from the precomputed radians and cosines with the same operations.
    """
    if origin not in graph.nodes or dest not in graph.nodes:
        raise KeyError(f"endpoint missing from graph: {origin} or {dest}")
    if origin == dest:
        return Path(nodes=(), total_length=0.0)

    lats, lons, coss = graph._rad_lats, graph._rad_lons, graph._cos_lats
    src, goal = graph._index[origin], graph._index[dest]
    glat, glon, gcos = lats[goal], lons[goal], coss[goal]
    scale = graph.heuristic_scale
    sin, sqrt, asin = math.sin, math.sqrt, math.asin
    diameter = 2.0 * EARTH_RADIUS_M

    def h(k: int) -> float:
        hav = (sin((glat - lats[k]) / 2.0) ** 2
               + coss[k] * gcos * sin((glon - lons[k]) / 2.0) ** 2)
        return scale * (diameter * asin(min(1.0, sqrt(hav))))

    adj = graph._adj
    dist = [math.inf] * len(adj)
    dist[src] = 0.0
    parent = [-1] * len(adj)
    done = [False] * len(adj)
    frontier: list[tuple[float, float, int]] = [(h(src), 0.0, src)]
    while frontier:
        f, g, k = heapq.heappop(frontier)
        if done[k]:
            continue
        if k == goal:
            seq = [k]
            while seq[-1] != src:
                seq.append(parent[seq[-1]])
            ids = graph._id_list
            return Path(nodes=tuple(ids[j] for j in reversed(seq)), total_length=g)
        done[k] = True
        for nbr, length in adj[k]:
            if done[nbr]:
                continue
            g2 = g + length
            if g2 < dist[nbr]:
                dist[nbr] = g2
                parent[nbr] = k
                heapq.heappush(frontier, (g2 + h(nbr), g2, nbr))
    return None

"""Directed road network with A* shortest-path search.

Dispatch trajectories run along this graph; travel *time* comes from the
ETA model, the graph only supplies distances and waypoints.  Graphs are
immutable after loading and queries are pure functions, so concurrent
use is safe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .geo import Location, haversine, haversine_arrays


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
    heuristic_scale: float = 1.0
    _ids: np.ndarray = field(default=None, repr=False)
    _lats: np.ndarray = field(default=None, repr=False)
    _lons: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        ids = sorted(self.nodes)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._lats = np.asarray([self.nodes[i].lat for i in ids], dtype=np.float64)
        self._lons = np.asarray([self.nodes[i].lon for i in ids], dtype=np.float64)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values())


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
    scale = 1.0
    for (frm, to), length in sorted(best.items()):
        adjacency[frm].append((to, length))
        straight = haversine(nodes[frm], nodes[to])
        if straight > 0 and length < straight:
            scale = min(scale, length / straight)
    return RoadGraph(nodes=nodes, adjacency=adjacency, heuristic_scale=scale)


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


def nearest_node(loc: Location, graph: RoadGraph) -> int:
    """Node minimizing haversine distance to ``loc``; ties go to the lowest id."""
    if not graph.nodes:
        raise ValueError("nearest_node on empty graph")
    d = haversine_arrays(loc.lat, loc.lon, graph._lats, graph._lons)
    # ids are sorted ascending, so argmin's first-hit rule breaks ties by lowest id
    return int(graph._ids[int(np.argmin(d))])


def shortest_path(origin: int, dest: int, graph: RoadGraph) -> Path | None:
    """Length-optimal path via A* with a scaled-haversine heuristic.

    Returns ``None`` when ``dest`` is unreachable from ``origin``.  The
    heuristic scale keeps the estimate admissible, so results match
    Dijkstra exactly.
    """
    if origin not in graph.nodes or dest not in graph.nodes:
        raise KeyError(f"endpoint missing from graph: {origin} or {dest}")
    if origin == dest:
        return Path(nodes=(), total_length=0.0)

    goal = graph.nodes[dest]
    scale = graph.heuristic_scale

    def h(node: int) -> float:
        return scale * haversine(graph.nodes[node], goal)

    dist: dict[int, float] = {origin: 0.0}
    parent: dict[int, int] = {}
    done: set[int] = set()
    frontier: list[tuple[float, float, int]] = [(h(origin), 0.0, origin)]
    while frontier:
        f, g, node = heapq.heappop(frontier)
        if node in done:
            continue
        if node == dest:
            seq = [node]
            while seq[-1] != origin:
                seq.append(parent[seq[-1]])
            seq.reverse()
            return Path(nodes=tuple(seq), total_length=g)
        done.add(node)
        for nbr, length in graph.adjacency[node]:
            if nbr in done:
                continue
            g2 = g + length
            if g2 < dist.get(nbr, np.inf):
                dist[nbr] = g2
                parent[nbr] = node
                heapq.heappush(frontier, (g2 + h(nbr), g2, nbr))
    return None

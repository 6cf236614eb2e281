"""Directed road network with A* shortest-path search.

Dispatch trajectories run along this graph; travel *time* comes from the
ETA model, the graph only supplies distances and waypoints.

A graph derives its query arrays once, when it is built: the sorted node
ids with their latitude and longitude arrays and a bucket index (for
nearest-node lookups), an id -> index map, adjacency lists over those
indices, each node's latitude and longitude in radians, halved, with the
cosine of its latitude (for the A* heuristic), and each directed edge's
haversine length (for route lengths and the heuristic's scale).
``nodes`` and ``adjacency`` must therefore not be mutated afterwards;
build a new graph instead.  Queries are pure functions, so concurrent use
is safe.

The bucket index is an equal-angle grid of about one bucket per node over
the nodes' bounding box plus one ring of buckets.  For each bucket it
holds the ascending indices of the only nodes that can be nearest to a
point inside it.  Let ``c`` be a bucket's centre and ``d_min(c)`` the
distance from ``c`` to its nearest node.  No point of the bucket is
farther from ``c`` than ``r = 2R asin(sqrt(sin^2(hp/2) + k sin^2(hl/2)))``,
where ``hp`` and ``hl`` are the bucket's half extents in radians and
``k`` bounds the haversine's cosine factor ``cos(phi_c) cos(phi)`` over
the bucket's latitude band ``phi_c +- hp``, taken as 0 where the factor
is never positive.  The factor is linear in ``cos(phi)``, so its largest
value in the band is at an end of the band or where ``cos(phi)`` is 1
or -1 inside it.  For a bucket a fraction of a degree tall ``k`` is
about ``cos^2(phi_c)``: 0.59 at 40 degrees, 0.19 at 64.  (A centre of
the outer ring past a pole is measured by the same formula as its mirror
point across the pole, so it too is a point of the sphere.)  The node
``n`` nearest a point ``q`` of the bucket is no farther from ``q`` than
``c``'s nearest node, so ``d(q, n) <= r + d_min(c)`` and, by the triangle inequality,
``d(c, n) <= d(c, q) + d(q, n) <= d_min(c) + 2r``.  Every node within
that distance of ``c`` is kept, so a node tying with the nearest is kept
too.  A margin of 1e-9 relative plus 1e-6 m covers the rounding of the
distances and of the point's bucket, which at city scale is near a
nanometre.  A lookup measures each point against its bucket's candidates
with the same haversine expression as a scan of all nodes, so both give
the same node, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geo import EARTH_RADIUS_M, Location, haversine, haversine_arrays


class EdgeListParseError(ValueError):
    """Malformed edge-list file; carries the offending line number."""


@dataclass(frozen=True)
class Path:
    """Node sequence joined by graph edges. Empty when origin equals destination."""

    nodes: tuple[int, ...]
    total_length: float


class Buckets(NamedTuple):
    """Equal-angle grid of buckets with the candidate nodes of each.

    Bucket ``(i, j)`` spans latitudes ``lat0 + [i, i + 1) * dlat`` and
    longitudes ``lon0 + [j, j + 1) * dlon``; its candidates are row
    ``i * cols + j`` of ``candidates``: ascending node indices, padded to
    the table's width by repeating the last one.
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    rows: int
    cols: int
    candidates: np.ndarray


# margin on the candidate radius for rounding, relative and in meters
_CANDIDATE_REL = 1e-9
_CANDIDATE_ABS_M = 1e-6


def _cos_factor_bound(phi_c: float, half: float) -> float:
    """The largest ``cos(phi_c) * cos(phi)`` over ``phi`` within ``half`` of ``phi_c``, radians."""
    lo, hi = phi_c - half, phi_c + half
    # cos(phi) is extreme at the band's ends and at each multiple of pi inside it
    turns = range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)
    return max(math.cos(phi_c) * x
               for x in [math.cos(lo), math.cos(hi)] + [(-1.0) ** k for k in turns])


def _build_buckets(lats: np.ndarray, lons: np.ndarray) -> Buckets:
    """Bucket index over nodes at ``lats``, ``lons``; see the module docstring."""
    n = len(lats)
    lat_lo, lat_hi = float(lats.min()), float(lats.max())
    lon_lo, lon_hi = float(lons.min()), float(lons.max())
    # one degree of longitude in degrees of latitude, at the box's middle
    shrink = abs(math.cos(math.radians((lat_lo + lat_hi) / 2.0)))
    height, width = lat_hi - lat_lo, (lon_hi - lon_lo) * shrink
    # square buckets, about one per node inside the box and at most n along
    # a side; for coincident nodes any size is exact
    side = max(math.sqrt(height * width / n), max(height, width) / n) or 1e-3
    rows = max(1, round(height / side)) + 2
    cols = max(1, round(width / side)) + 2
    dlat, dlon = side, side / shrink
    lat0, lon0 = lat_lo - dlat, lon_lo - dlon
    # half extents in radians, capped where sin^2(h/2) stops growing
    half_lat = min(math.radians(dlat) / 2.0, math.pi)
    half_lon = min(math.radians(dlon) / 2.0, math.pi)
    centre_lons = lon0 + (np.arange(cols) + 0.5) * dlon
    counts, kept = [], []
    for i in range(rows):  # one row of buckets at a time keeps memory at cols x n
        centre_lat = lat0 + (i + 0.5) * dlat
        factor = max(0.0, _cos_factor_bound(math.radians(centre_lat), half_lat))
        reach = 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(
            math.sin(half_lat / 2.0) ** 2 + factor * math.sin(half_lon / 2.0) ** 2)))
        d = haversine_arrays(centre_lat, centre_lons[:, None], lats, lons)
        bound = (d.min(axis=1) + 2.0 * reach) * (1.0 + _CANDIDATE_REL) + _CANDIDATE_ABS_M
        bucket, node = np.nonzero(d <= bound[:, None])  # by bucket, then ascending node
        counts.append(np.bincount(bucket, minlength=cols))
        kept.append(node)
    counts = np.concatenate(counts)
    starts = np.cumsum(counts) - counts
    pad = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    candidates = np.concatenate(kept)[starts[:, None] + pad].astype(np.int32)
    return Buckets(lat0, lon0, dlat, dlon, rows, cols, candidates)


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
    # half the radians: a / 2 - b / 2 equals (a - b) / 2 bit for bit
    _half_lats: list[float] = field(init=False, repr=False)
    _half_lons: list[float] = field(init=False, repr=False)
    _cos_lats: list[float] = field(init=False, repr=False)
    # haversine(nodes[a], nodes[b]) of each directed edge (a, b)
    _hop_m: dict[tuple[int, int], float] = field(init=False, repr=False)
    # candidate nodes per bucket for nearest-node lookups; None without nodes
    _buckets: Buckets | None = field(init=False, repr=False)

    def __post_init__(self):
        ids = sorted(self.nodes)
        self._ids = np.asarray(ids, dtype=np.int64)
        self._lats = np.asarray([self.nodes[i].lat for i in ids], dtype=np.float64)
        self._lons = np.asarray([self.nodes[i].lon for i in ids], dtype=np.float64)
        finite = np.isfinite(self._lats) & np.isfinite(self._lons)
        if not finite.all():
            nid = ids[int(np.argmin(finite))]
            raise ValueError(f"node {nid} has a non-finite location {self.nodes[nid]}")
        self._buckets = _build_buckets(self._lats, self._lons) if ids else None
        self._index = {nid: k for k, nid in enumerate(ids)}
        self._id_list = ids
        self._adj = [[(self._index[to], length) for to, length in self.adjacency[nid]]
                     for nid in ids]
        rad_lats = [math.radians(self.nodes[i].lat) for i in ids]
        self._half_lats = [lat / 2.0 for lat in rad_lats]
        self._half_lons = [math.radians(self.nodes[i].lon) / 2.0 for i in ids]
        self._cos_lats = [math.cos(lat) for lat in rad_lats]
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
        if not (math.isfinite(length) and length > 0):
            raise EdgeListParseError(f"edge {frm}->{to} has length {length}, "
                                     "which is not finite and positive")
        key = (frm, to)
        if key not in best or length < best[key]:
            best[key] = float(length)
    for (frm, to), length in sorted(best.items()):
        adjacency[frm].append((to, length))
    return RoadGraph(nodes=nodes, adjacency=adjacency)


def load_edge_list(path) -> RoadGraph:
    """Parse a ``#nodes`` / ``#edges`` sectioned edge-list file.

    Node lines are ``node_id,lat,lon``; edge lines are
    ``from_id,to_id,length_m``.  A malformed line, a node id given twice, a
    bad edge or a file without nodes raises :class:`EdgeListParseError`
    naming ``path``, and the line number where there is one.
    """
    nodes: dict[int, Location] = {}
    node_lines: dict[int, int] = {}
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
                    raise EdgeListParseError(f"{path}: line {lineno}: unknown section '{line}'")
                section = name
                continue
            parts = line.split(",")
            try:
                if section == "nodes":
                    if len(parts) != 3:
                        raise ValueError("expected node_id,lat,lon")
                    lat, lon = float(parts[1]), float(parts[2])
                    if not (math.isfinite(lat) and math.isfinite(lon)):
                        raise ValueError(f"non-finite location {lat},{lon}")
                    nid = int(parts[0])
                    first = node_lines.setdefault(nid, lineno)
                    if first != lineno:
                        raise ValueError(f"node {nid} is already given on line {first}")
                    nodes[nid] = Location(lat, lon)
                elif section == "edges":
                    if len(parts) != 3:
                        raise ValueError("expected from_id,to_id,length_m")
                    edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
                else:
                    raise ValueError("data before any section header")
            except ValueError as exc:
                raise EdgeListParseError(f"{path}: line {lineno}: {exc}") from exc
    if not nodes:
        raise EdgeListParseError(f"{path}: no nodes")
    try:
        return build_graph(nodes, edges)
    except EdgeListParseError as exc:
        raise EdgeListParseError(f"{path}: {exc}") from None


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
    """Id of the node nearest each point (haversine); ties go to the lowest id.

    When every point lies inside the graph's bucket grid, each is measured
    against its bucket's candidates only; the module docstring proves that
    the nearest node and every node tying with it are among them.
    Otherwise the whole batch is measured against every node.  Both use
    ``haversine_arrays`` on the same operands, and the candidates are
    ascending indices padded with the last one, so ``argmin``'s first hit
    picks the lowest id among ties either way, and the two give the same
    node bit for bit.  Raises ``ValueError`` on an empty graph or a
    non-finite point.
    """
    if not graph.nodes:
        raise ValueError("nearest-node lookup on an empty graph")
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    b = graph._buckets
    rows = np.floor((lats - b.lat0) / b.dlat)
    cols = np.floor((lons - b.lon0) / b.dlon)
    # false for a non-finite point too
    inside = (rows >= 0) & (rows < b.rows) & (cols >= 0) & (cols < b.cols)
    if inside.all():
        cand = b.candidates[(rows * b.cols + cols).astype(np.intp)]
        d = haversine_arrays(lats[:, None], lons[:, None], graph._lats[cand], graph._lons[cand])
        return graph._ids[cand[np.arange(len(cand)), np.argmin(d, axis=1)]]
    finite = np.isfinite(lats) & np.isfinite(lons)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"nearest-node lookup of a non-finite point {k}: "
                         f"({lats[k]}, {lons[k]})")
    d = haversine_arrays(lats[:, None], lons[:, None], graph._lats, graph._lons)
    # ids are sorted ascending, so argmin's first hit breaks ties by lowest id
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
    from the precomputed half radians and cosines, once per node per
    search.  Halving is exact (short of subnormal angles) and
    ``min(1.0, x)`` is ``x`` below 1 and ``1.0`` otherwise, so every value
    equals ``geo.haversine``'s bit for bit.  The origin's entry is the
    heap's only one when it is popped, so it needs no heuristic.
    """
    if origin not in graph.nodes or dest not in graph.nodes:
        raise KeyError(f"endpoint missing from graph: {origin} or {dest}")
    if origin == dest:
        return Path(nodes=(), total_length=0.0)

    lats, lons, coss = graph._half_lats, graph._half_lons, graph._cos_lats
    src, goal = graph._index[origin], graph._index[dest]
    glat, glon, gcos = lats[goal], lons[goal], coss[goal]
    scale = graph.heuristic_scale
    sin, sqrt, asin = math.sin, math.sqrt, math.asin
    push, pop = heapq.heappush, heapq.heappop
    diameter = 2.0 * EARTH_RADIUS_M

    adj = graph._adj
    dist = [math.inf] * len(adj)
    dist[src] = 0.0
    parent = [-1] * len(adj)
    done = [False] * len(adj)
    heur = [-1.0] * len(adj)  # heuristic memo; negative until computed
    frontier: list[tuple[float, float, int]] = [(0.0, 0.0, src)]
    while frontier:
        f, g, k = pop(frontier)
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
                h = heur[nbr]
                if h < 0.0:
                    root = sqrt(sin(glat - lats[nbr]) ** 2
                                + coss[nbr] * gcos * sin(glon - lons[nbr]) ** 2)
                    h = heur[nbr] = scale * (diameter * asin(root if root < 1.0 else 1.0))
                push(frontier, (g2 + h, g2, nbr))
    return None

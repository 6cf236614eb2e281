"""A city's road lattice with A* shortest-path search.

Dispatch trajectories run along this graph; travel *time* comes from the
ETA model, the graph only supplies distances and waypoints.

A city's roads join the centre of each cell of its grid to the centres of
its four neighbours, both ways, at their haversine distance.
:class:`RoadGraph` builds that lattice from the grid: node ``r * cols + c``
is the centre of cell ``(r, c)``, so a node's id is its index.  A graph
derives its query arrays once, when it is built: the nodes' latitude and
longitude arrays and a bucket index (for nearest-node lookups), and each
node's latitude and longitude in radians, halved, with the cosine of its
latitude (for the A* heuristic).  A graph must therefore not be mutated
afterwards; build a new one instead.  Queries are pure functions, so
concurrent use is safe.

Every road is as long as the straight line between its ends, so A*
takes the haversine to the destination as its heuristic, unscaled; and
the lattice is connected, so every destination has a path.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geo import EARTH_RADIUS_M, GridSpec, center_of, haversine, haversine_arrays


@dataclass(frozen=True)
class Path:
    """Node sequence joined by roads. Empty when origin equals destination."""

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


class RoadGraph:
    """The road lattice over ``grid``'s cell centres; see the module docstring."""

    def __init__(self, grid: GridSpec):
        rows, cols = grid.rows, grid.cols
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        self.nodes = tuple(center_of(cell, grid) for cell in cells)
        # each node's roads, (neighbour, meters) by ascending neighbour; a
        # road measures from its lower id, both ways
        self.adjacency = tuple(
            tuple((b, haversine(self.nodes[min(a, b)], self.nodes[max(a, b)]))
                  for b, on_grid in ((a - cols, r > 0), (a - 1, c > 0),
                                     (a + 1, c + 1 < cols), (a + cols, r + 1 < rows))
                  if on_grid)
            for a, (r, c) in enumerate(cells))
        self._lats = np.array([p.lat for p in self.nodes], dtype=np.float64)
        self._lons = np.array([p.lon for p in self.nodes], dtype=np.float64)
        # candidate nodes per bucket for nearest-node lookups
        self._buckets = _build_buckets(self._lats, self._lons)
        rad_lats = [math.radians(p.lat) for p in self.nodes]
        # half the radians: a / 2 - b / 2 equals (a - b) / 2 bit for bit
        self._half_lats = [lat / 2.0 for lat in rad_lats]
        self._half_lons = [math.radians(p.lon) / 2.0 for p in self.nodes]
        self._cos_lats = [math.cos(lat) for lat in rad_lats]


def nearest_nodes(lats, lons, graph: RoadGraph) -> np.ndarray:
    """Id of the node nearest each point (haversine); ties go to the lowest id.

    When every point lies inside the graph's bucket grid, each is measured
    against its bucket's candidates only; the module docstring proves that
    the nearest node and every node tying with it are among them.
    Otherwise the whole batch is measured against every node.  Both use
    ``haversine_arrays`` on the same operands, and the candidates are
    ascending ids padded with the last one, so ``argmin``'s first hit
    picks the lowest id among ties either way, and the two give the same
    node bit for bit.  Raises ``ValueError`` on a non-finite point.
    """
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
        # the table's int32 ids, widened to the scan's intp
        return cand[np.arange(len(cand)), np.argmin(d, axis=1)].astype(np.intp)
    finite = np.isfinite(lats) & np.isfinite(lons)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"nearest-node lookup of a non-finite point {k}: "
                         f"({lats[k]}, {lons[k]})")
    d = haversine_arrays(lats[:, None], lons[:, None], graph._lats, graph._lons)
    # argmin's first hit breaks ties by lowest id
    return np.argmin(d, axis=1)


def hop_lengths(path: Path, graph: RoadGraph) -> list[float]:
    """Meters of each road along ``path``."""
    ids, adjacency = path.nodes, graph.adjacency
    return [next(m for n, m in adjacency[a] if n == b) for a, b in zip(ids, ids[1:])]


def shortest_path(origin: int, dest: int, graph: RoadGraph) -> Path:
    """Length-optimal path via A* with a haversine heuristic.

    No road is shorter than the straight line, so the heuristic is
    admissible and results match Dijkstra.  The heuristic is
    :func:`geo.haversine` from a node to ``dest``, evaluated inline from
    the precomputed half radians and cosines, once per node per search.
    Halving is exact (short of subnormal angles) and ``min(1.0, x)`` is
    ``x`` below 1 and ``1.0`` otherwise, so every value equals
    ``geo.haversine``'s bit for bit.  The origin's entry is the heap's
    only one when it is popped, so it needs no heuristic.
    """
    if origin == dest:
        return Path(nodes=(), total_length=0.0)

    lats, lons, coss = graph._half_lats, graph._half_lons, graph._cos_lats
    glat, glon, gcos = lats[dest], lons[dest], coss[dest]
    sin, sqrt, asin = math.sin, math.sqrt, math.asin
    push, pop = heapq.heappush, heapq.heappop
    diameter = 2.0 * EARTH_RADIUS_M

    adj = graph.adjacency
    dist = [math.inf] * len(adj)
    dist[origin] = 0.0
    parent = [-1] * len(adj)
    done = [False] * len(adj)
    heur = [-1.0] * len(adj)  # heuristic memo; negative until computed
    frontier: list[tuple[float, float, int]] = [(0.0, 0.0, origin)]
    while True:  # the lattice is connected, so the destination is popped
        f, g, k = pop(frontier)
        if done[k]:
            continue
        if k == dest:
            seq = [k]
            while seq[-1] != origin:
                seq.append(parent[seq[-1]])
            return Path(nodes=tuple(reversed(seq)), total_length=g)
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
                    h = heur[nbr] = diameter * asin(root if root < 1.0 else 1.0)
                push(frontier, (g2 + h, g2, nbr))

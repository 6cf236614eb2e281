"""Grid geometry and road-network routing in a nutshell.

Builds a small city grid, shows how coordinates map to cells and
regions, and runs a few shortest-path queries over a synthetic road
network.
"""

import numpy as np

from fleetsim.geo import (
    GridSpec, Location, RegionMap, aggregate_to_regions, cell_arrays,
    center_of, haversine,
)
from fleetsim.roadgraph import nearest_nodes, shortest_path
from fleetsim.harness.synth import build_road_grid

grid = GridSpec(rows=8, cols=8, cell_size=500.0, origin=Location(40.0, -74.0))
print(f"grid: {grid.rows}x{grid.cols} cells of {grid.cell_size:.0f} m")
print(f"angular cell size: {grid.d_lat:.6f} deg lat x {grid.d_lon:.6f} deg lon")

loc = Location(40.012, -73.985)
rows, cols = cell_arrays([loc.lat], [loc.lon], grid)
cell = (int(rows[0]), int(cols[0]))
print(f"\n{loc} falls in cell {cell}, center {center_of(cell, grid)}")

# blocks of 4x4 cells: four regions, ids row-major over the 2x2 blocks
regions = RegionMap(grid, 4)
heat = np.zeros(grid.shape)
heat[1, 1] = 3
heat[6, 6] = 5
print("per-region totals of a heat map:", aggregate_to_regions(heat, regions))

graph = build_road_grid(grid)
n_edges = sum(len(out) for out in graph.adjacency.values())
print(f"\nroad graph: {len(graph.nodes)} nodes, {n_edges} directed edges")

a = Location(40.001, -73.999)
b = Location(40.03, -73.96)
na, nb = nearest_nodes([a.lat, b.lat], [a.lon, b.lon], graph).tolist()
path = shortest_path(na, nb, graph)
print(f"shortest path {na} -> {nb}: {len(path.nodes)} nodes, "
      f"{path.total_length/1000:.2f} km (straight line "
      f"{haversine(a, b)/1000:.2f} km)")

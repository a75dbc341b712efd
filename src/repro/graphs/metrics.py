"""Graph-level metrics used by the paper's analysis.

* **hop-diameter** ``D`` — maximum hop-distance (number of edges, ignoring
  weights) between any two vertices,
* **shortest-path diameter** ``S`` — maximum number of hops a shortest path
  uses.  The paper stresses ``D <= S`` and that ``S`` can be ``Omega(n)``
  even when ``D`` is small; the [LP15] round bound depends on ``S`` while
  this paper's depends on ``D``.
"""

from __future__ import annotations

from .shortest_paths import INF, hop_distances, shortest_path_hops
from .weighted_graph import WeightedGraph


def eccentricity_hops(graph: WeightedGraph, source: int) -> int:
    """Maximum hop-distance from ``source`` to any reachable vertex."""
    dist = hop_distances(graph, source)
    finite = [d for d in dist if d != INF]
    return int(max(finite)) if finite else 0


def hop_diameter(graph: WeightedGraph) -> int:
    """The hop-diameter ``D`` of a connected graph.

    Computed exactly by one BFS per vertex; fine for simulation scales.
    """
    graph.require_connected()
    best = 0
    for source in graph.vertices():
        ecc = eccentricity_hops(graph, source)
        if ecc > best:
            best = ecc
    return best




def shortest_path_diameter(graph: WeightedGraph) -> int:
    """The shortest-path diameter ``S``: max hops used by a shortest path.

    Uses the fewest-hops tie-breaking convention of
    :func:`repro.graphs.shortest_paths.shortest_path_hops` (the paper
    assumes unique shortest paths).
    """
    graph.require_connected()
    best = 0
    for source in graph.vertices():
        _, hops = shortest_path_hops(graph, source)
        ecc = max(hops)
        if ecc > best:
            best = ecc
    return best

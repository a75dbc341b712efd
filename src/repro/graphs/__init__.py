"""Weighted-graph substrate: graph type, CSR views, shortest paths,
metrics and workload generators."""

from .weighted_graph import WeightedGraph, validate_polynomial_weights
from .csr import CSRView, csr_view, matrix_view
from .shortest_paths import (
    INF,
    all_pairs_distances,
    dijkstra,
    dijkstra_distances,
    dijkstra_to_set,
    hop_bounded_distances,
    hop_distances,
    path_weight,
    shortest_path,
    shortest_path_hops,
)
from .metrics import (
    eccentricity_hops,
    hop_diameter,
    shortest_path_diameter,
)
from .generators import (
    SMALL_INSTANCES,
    barbell,
    caterpillar_tree,
    expander_like,
    grid,
    path,
    random_connected,
    random_geometric,
    random_tree,
    ring_of_cliques,
    star_of_paths,
    weighted_small_world,
)

__all__ = [
    "WeightedGraph",
    "validate_polynomial_weights",
    "CSRView",
    "csr_view",
    "matrix_view",
    "INF",
    "all_pairs_distances",
    "dijkstra",
    "dijkstra_distances",
    "dijkstra_to_set",
    "hop_bounded_distances",
    "hop_distances",
    "path_weight",
    "shortest_path",
    "shortest_path_hops",
    "eccentricity_hops",
    "hop_diameter",
    "shortest_path_diameter",
    "SMALL_INSTANCES",
    "barbell",
    "caterpillar_tree",
    "expander_like",
    "grid",
    "path",
    "random_connected",
    "random_geometric",
    "random_tree",
    "ring_of_cliques",
    "star_of_paths",
    "weighted_small_world",
]

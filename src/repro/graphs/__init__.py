"""Weighted-graph substrate: graph type, CSR views, shortest paths,
metrics and workload generators."""

from .. import _lazy

#: Public name -> the submodule defining it.  Resolved on first access
#: (PEP 562), so ``repro.cli``, which imports ``graphs.generators`` to
#: name the workloads, does not load the CSR and shortest-path modules.
_EXPORTS = {
    "WeightedGraph": "weighted_graph",
    "validate_polynomial_weights": "weighted_graph",
    "CSRView": "csr",
    "csr_view": "csr",
    "matrix_view": "csr",
    "INF": "shortest_paths",
    "all_pairs_distances": "shortest_paths",
    "dijkstra": "shortest_paths",
    "dijkstra_distances": "shortest_paths",
    "dijkstra_to_set": "shortest_paths",
    "hop_bounded_distances": "shortest_paths",
    "hop_distances": "shortest_paths",
    "path_weight": "shortest_paths",
    "shortest_path": "shortest_paths",
    "shortest_path_hops": "shortest_paths",
    "eccentricity_hops": "metrics",
    "hop_diameter": "metrics",
    "shortest_path_diameter": "metrics",
    "SMALL_INSTANCES": "generators",
    "barbell": "generators",
    "caterpillar_tree": "generators",
    "expander_like": "generators",
    "grid": "generators",
    "path": "generators",
    "random_connected": "generators",
    "random_geometric": "generators",
    "random_tree": "generators",
    "ring_of_cliques": "generators",
    "star_of_paths": "generators",
    "weighted_small_world": "generators",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy(__name__, _EXPORTS)

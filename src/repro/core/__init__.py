"""The paper's core contribution: approximate pivots/clusters (Section 3),
the compact routing scheme (Section 4), distance estimation (Section 5)
and distributed tree routing (Section 6)."""

from .. import _lazy

#: Public name -> the submodule defining it.  Resolved on first access
#: (PEP 562), so importing one serving module — ``core.compiled``,
#: ``core.dense`` — does not load the construction behind it.
_EXPORTS = {
    "SchemeParams": "params",
    "LevelHierarchy": "sampling",
    "hierarchy_from_levels": "sampling",
    "sample_levels": "sampling",
    "ExactCluster": "clusters",
    "ExactClusterSystem": "clusters",
    "ExactPivots": "clusters",
    "compute_exact_clusters": "clusters",
    "compute_exact_pivots": "clusters",
    "grow_exact_cluster": "clusters",
    "ApproxCluster": "approx_clusters",
    "ApproxClusterSystem": "approx_clusters",
    "ApproxPivots": "approx_clusters",
    "build_approx_clusters": "approx_clusters",
    "ForestRoutingReport": "tree_routing",
    "build_forest_routing": "tree_routing",
    "sample_splitters": "tree_routing",
    "RoutingScheme": "routing_scheme",
    "DistanceEstimation": "distance_estimation",
    "estimation_from_clusters": "distance_estimation",
    "CompiledEstimation": "compiled",
    "CompiledRoute": "compiled",
    "CompiledScheme": "compiled",
    "QueryResult": "compiled",
    "load_artifact": "compiled",
    "DenseRoutingPlane": "dense",
    "HandshakeRouteResult": "handshake",
    "HandshakeRouter": "handshake",
    "ConstructionReport": "scheme_builder",
    "build_routing_scheme": "scheme_builder",
    "run_construction": "scheme_builder",
    "sample_pairs": "scheme_builder",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy(__name__, _EXPORTS)

"""The paper's core contribution: approximate pivots/clusters (Section 3),
the compact routing scheme (Section 4), distance estimation (Section 5)
and distributed tree routing (Section 6)."""

from .params import SchemeParams
from .sampling import LevelHierarchy, hierarchy_from_levels, sample_levels
from .clusters import (
    ExactCluster,
    ExactClusterSystem,
    ExactPivots,
    compute_exact_clusters,
    compute_exact_pivots,
    grow_exact_cluster,
)
from .approx_clusters import (
    ApproxCluster,
    ApproxClusterSystem,
    ApproxPivots,
    build_approx_clusters,
)
from .tree_routing import (
    ForestRoutingReport,
    build_forest_routing,
    sample_splitters,
)
from .routing_scheme import RoutingScheme
from .distance_estimation import DistanceEstimation, estimation_from_clusters
from .compiled import (
    CompiledEstimation,
    CompiledRoute,
    CompiledScheme,
    QueryResult,
    load_artifact,
)
from .dense import DenseRoutingPlane
from .handshake import HandshakeRouteResult, HandshakeRouter
from .scheme_builder import (
    ConstructionReport,
    build_routing_scheme,
    run_construction,
    sample_pairs,
)

__all__ = [
    "SchemeParams",
    "LevelHierarchy",
    "hierarchy_from_levels",
    "sample_levels",
    "ExactCluster",
    "ExactClusterSystem",
    "ExactPivots",
    "compute_exact_clusters",
    "compute_exact_pivots",
    "grow_exact_cluster",
    "ApproxCluster",
    "ApproxClusterSystem",
    "ApproxPivots",
    "build_approx_clusters",
    "ForestRoutingReport",
    "build_forest_routing",
    "sample_splitters",
    "RoutingScheme",
    "build_routing_scheme",
    "DistanceEstimation",
    "QueryResult",
    "estimation_from_clusters",
    "CompiledEstimation",
    "CompiledRoute",
    "CompiledScheme",
    "DenseRoutingPlane",
    "load_artifact",
    "HandshakeRouteResult",
    "HandshakeRouter",
    "ConstructionReport",
    "run_construction",
    "sample_pairs",
]

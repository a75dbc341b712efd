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
    DistributedTreeRouting,
    ForestRoutingReport,
    build_distributed_tree_routing,
    build_distributed_tree_routing_reference,
    build_forest_routing,
    build_forest_routing_reference,
    sample_splitters,
)
from .routing_scheme import (
    RouteResult,
    RoutingScheme,
    VertexLabel,
    VertexTable,
)
from .distance_estimation import (
    DistanceEstimation,
    QueryResult,
    Sketch,
    estimation_from_clusters,
    sketches_from_clusters,
)
from .compiled import (
    CompiledEstimation,
    CompiledRoute,
    CompiledScheme,
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
    "DistributedTreeRouting",
    "ForestRoutingReport",
    "build_distributed_tree_routing",
    "build_distributed_tree_routing_reference",
    "build_forest_routing",
    "build_forest_routing_reference",
    "sample_splitters",
    "RouteResult",
    "RoutingScheme",
    "VertexLabel",
    "VertexTable",
    "build_routing_scheme",
    "DistanceEstimation",
    "QueryResult",
    "Sketch",
    "estimation_from_clusters",
    "sketches_from_clusters",
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

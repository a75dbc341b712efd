"""Eager object-level oracles, imported by tests only.

The construction builds integer columns and serves from compiled
artifacts; nothing under ``repro`` outside this package imports it.
What lives here is the per-vertex object model of Sections 4 and 6 —
tables, labels, global-edge rows — built from the cluster system by the
per-subtree reference builder, plus the hop-by-hop routers over those
objects that the compiled replay is held to, the dict-based Bellman–Ford
explorations the CSR kernels are held to, the BFS flood the BFS kernel
is held to and the gossip flood the Lemma-1 charge is checked against,
the per-source detection sweep and per-vertex extension loops the
detection's matrices are held to, the dict virtual plane its ``V' ×
V'`` matrices are held to (:mod:`.virtual`), and the dict-of-deques
CONGEST engine :class:`Simulator` that ``FastSimulator`` is held to.
"""

from .bfs import simulate_bfs_tree, simulate_flood_rounds
from .detection import (
    broadcast_extension_reference,
    detect_sources_reference,
    spt_extension_reference,
)
from .exploration import (
    JoinPredicate,
    multi_source_exploration_reference,
    nearest_source_exploration_reference,
)
from .routing_scheme import ReferenceRouter, VertexLabel, VertexTable
from .simulator import Simulator
from .tree_routing import (
    DistTreeLabel,
    DistTreeTable,
    DistributedTreeRouting,
    GlobalEdgeEntry,
    ReferenceForestReport,
    build_distributed_tree_routing_reference,
    build_forest_routing_reference,
    trees_as_columns,
)

__all__ = [
    "DistTreeLabel",
    "DistTreeTable",
    "DistributedTreeRouting",
    "GlobalEdgeEntry",
    "JoinPredicate",
    "ReferenceForestReport",
    "ReferenceRouter",
    "Simulator",
    "VertexLabel",
    "VertexTable",
    "broadcast_extension_reference",
    "build_distributed_tree_routing_reference",
    "build_forest_routing_reference",
    "detect_sources_reference",
    "multi_source_exploration_reference",
    "nearest_source_exploration_reference",
    "simulate_bfs_tree",
    "simulate_flood_rounds",
    "spt_extension_reference",
    "trees_as_columns",
]

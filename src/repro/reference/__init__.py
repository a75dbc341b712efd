"""Eager object-level oracles, imported by tests only.

The construction builds integer columns and serves from compiled
artifacts; nothing under ``repro`` outside this package imports it.
What lives here is the per-vertex object model of Sections 4 and 6 —
tables, labels, global-edge rows — built from the cluster system by
the per-subtree reference builder, plus the hop-by-hop routers over
those objects that the compiled replay is held to.
"""

from .routing_scheme import ReferenceRouter, VertexLabel, VertexTable
from .tree_routing import (
    DistTreeLabel,
    DistTreeTable,
    DistributedTreeRouting,
    GlobalEdgeEntry,
    ReferenceForestReport,
    build_distributed_tree_routing_reference,
    build_forest_routing_reference,
)

__all__ = [
    "DistTreeLabel",
    "DistTreeTable",
    "DistributedTreeRouting",
    "GlobalEdgeEntry",
    "ReferenceForestReport",
    "ReferenceRouter",
    "VertexLabel",
    "VertexTable",
    "build_distributed_tree_routing_reference",
    "build_forest_routing_reference",
]

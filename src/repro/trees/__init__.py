"""Rooted trees and Thorup–Zwick interval tree routing (shared by the
centralized baseline and the paper's distributed tree-routing scheme)."""

from .rooted import RootedTree, tree_distance
from .interval_routing import (
    TreeLabel,
    TreeRoutingScheme,
    TreeTable,
    build_tree_routing,
    interval_next_hop,
)

__all__ = [
    "RootedTree",
    "tree_distance",
    "TreeLabel",
    "TreeRoutingScheme",
    "TreeTable",
    "build_tree_routing",
    "interval_next_hop",
]

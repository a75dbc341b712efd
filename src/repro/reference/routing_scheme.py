"""Theorem 5's per-vertex objects and Algorithm 1, built eagerly.

:class:`ReferenceRouter` builds what every vertex of a
:class:`~repro.core.routing_scheme.RoutingScheme` would hold — its
:class:`VertexTable` and :class:`VertexLabel` over the per-tree objects
of :func:`~.tree_routing.build_distributed_tree_routing_reference` —
from the scheme's graph and cluster system, and routes a packet as the
paper does: find-tree from the source's table and the target's label,
then Section 6 hop by hop inside the chosen tree.  The compiled replay
(:meth:`~repro.core.compiled.CompiledScheme.route_many`) is held to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..congest.network import Network
from ..core.compiled import CompiledRoute
from ..dataclass import dataclass
from ..exceptions import SchemeError
from .tree_routing import (
    DistributedTreeRouting,
    DistTreeLabel,
    DistTreeTable,
    build_distributed_tree_routing_reference,
)


@dataclass
class VertexTable:
    """Routing table of one vertex (all sizes in words)."""

    vertex: int
    tree_entries: Dict[int, DistTreeTable]   # center -> tree table
    member_labels: Dict[int, DistTreeLabel]  # 4k-5 trick (level-0 centers)
    pivot_names: List[Optional[int]]     # ẑ_i(v), i = 0..k-1

    @property
    def words(self) -> int:
        total = len(self.pivot_names)
        for table in self.tree_entries.values():
            total += 1 + table.words          # center name + tree table
        for label in self.member_labels.values():
            total += 1 + label.words
        return total


@dataclass
class VertexLabel:
    """Label of one vertex: ``O(k log^2 n)`` words."""

    vertex: int
    entries: List[Tuple[Optional[int], Optional[DistTreeLabel]]]
    #: entries[i] = (ẑ_i(v), tree label in C̃(ẑ_i(v)) or None if absent)

    @property
    def words(self) -> int:
        total = 1
        for pivot, label in self.entries:
            total += 1                         # pivot name (or ⊥ marker)
            if label is not None:
                total += label.words
        return total

    def tree_label(self, i: int) -> Optional[DistTreeLabel]:
        return self.entries[i][1]


class ReferenceRouter:
    """Every vertex's table and label, built eagerly, and the routes
    they give.

    Each cluster tree goes through the per-subtree builder with the
    splitters the forest sampled in it (``U(T)``, the distinct
    ``t_splitter`` of the tree's slots) and the graph's real ports.
    Pivots and the 4k-5 members are recomputed from the cluster system;
    the trick is on when the scheme kept member rows at all.
    """

    def __init__(self, scheme) -> None:
        graph, clusters = scheme.graph, scheme.clusters
        k = scheme.params.k
        columns = scheme.forest.columns
        port_of = Network(graph).port_of
        self.graph = graph
        self.trees: Dict[int, DistributedTreeRouting] = {}
        for center, cluster in sorted(clusters.clusters.items()):
            tid = int(np.searchsorted(columns.tree_center, center))
            rows = slice(columns.tree_start[tid],
                         columns.tree_start[tid + 1])
            self.trees[center] = build_distributed_tree_routing_reference(
                cluster.tree(), set(columns.t_splitter[rows].tolist()),
                port_of=port_of)

        n = graph.num_vertices
        tree_entries: List[Dict[int, DistTreeTable]] = [{} for _ in range(n)]
        for center, tree in self.trees.items():
            for v, table in tree.tables.items():
                tree_entries[v][center] = table
        member_labels: List[Dict[int, DistTreeLabel]] = [{} for _ in range(n)]
        if scheme.use_tz_trick:
            for center, cluster in clusters.clusters.items():
                if cluster.level == 0:
                    labels = self.trees[center].labels
                    member_labels[center] = {
                        m: labels[m] for m in sorted(cluster.members())
                        if m != center}
        self.tables: List[VertexTable] = []
        self.labels: List[VertexLabel] = []
        for v in range(n):
            pivots = [clusters.pivot_of(v, i) for i in range(k)]
            self.tables.append(VertexTable(
                vertex=v, tree_entries=tree_entries[v],
                member_labels=member_labels[v], pivot_names=pivots))
            self.labels.append(VertexLabel(vertex=v, entries=[
                (pivot, self.trees[pivot].labels.get(v)
                 if pivot in self.trees else None) for pivot in pivots]))

    def find_tree(self, source: int, target_label: VertexLabel
                  ) -> Tuple[int, int]:
        """Algorithm 1: the first level whose pivot tree holds both ends.

        Returns ``(tree center w, level i)``, level ``-1`` when the
        source stores the target's label (the 4k-5 trick).  Reads only
        the source's table and the target's label.
        """
        table = self.tables[source]
        if target_label.vertex in table.member_labels:
            return source, -1
        for i, (pivot, tree_label) in enumerate(target_label.entries):
            if pivot is None or tree_label is None:
                continue
            if pivot in table.tree_entries or pivot == source:
                return pivot, i
        raise SchemeError(
            f"find-tree failed for {source} -> {target_label.vertex}; "
            "A_{k-1} cluster should contain every vertex")

    def route(self, source: int, target: int) -> CompiledRoute:
        """Route one packet: find-tree, then Section 6 in that tree."""
        if source == target:
            return CompiledRoute(source=source, target=target,
                                 path=[source], weight=0.0,
                                 tree_center=None, found_level=-1)
        center, level = self.find_tree(source, self.labels[target])
        path = self.trees[center].route(source, target)
        weight = 0.0
        for a, b in zip(path, path[1:]):
            weight += self.graph.weight(a, b)
        return CompiledRoute(source=source, target=target, path=path,
                             weight=weight, tree_center=center,
                             found_level=level)

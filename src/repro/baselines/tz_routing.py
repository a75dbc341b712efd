"""Centralized Thorup–Zwick compact routing ([TZ01], Table 1 row 1).

The sequential baseline the paper compares against: exact clusters and
pivots, exact interval tree routing on every cluster tree, stretch
``4k - 5`` (with the member-label trick).  Its "construction cost" in the
CONGEST currency is the trivial ``O(m)``-round upper bound of Table 1 —
the point of the comparison is that the centralized scheme has slightly
smaller tables/labels (no ``log n`` blowup from the two-level tree
scheme) but no sublinear distributed construction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..congest.network import Network
from ..core.clusters import ExactClusterSystem, compute_exact_clusters
from ..core.params import SchemeParams
from ..core.sampling import LevelHierarchy, sample_levels
from ..dataclass import dataclass
from ..exceptions import ParameterError, SchemeError
from ..graphs.shortest_paths import dijkstra_distances
from ..graphs.weighted_graph import WeightedGraph
from ..trees.interval_routing import (
    TreeLabel,
    TreeRoutingScheme,
    build_tree_routing,
)


@dataclass
class TZRouteResult:
    source: int
    target: int
    path: List[int]
    weight: float
    tree_center: Optional[int]
    exact_distance: float

    @property
    def stretch(self) -> float:
        if self.exact_distance == 0:
            return 1.0
        return self.weight / self.exact_distance


class TZRoutingScheme:
    """The assembled [TZ01] baseline."""

    def __init__(self, graph: WeightedGraph, params: SchemeParams,
                 system: ExactClusterSystem,
                 tree_schemes: Dict[int, TreeRoutingScheme],
                 use_trick: bool = True) -> None:
        self.graph = graph
        self.params = params
        self.system = system
        self.tree_schemes = tree_schemes
        self.use_trick = use_trick
        self._member_labels: Dict[int, Dict[int, TreeLabel]] = {}
        if use_trick:
            for center, cluster in system.clusters.items():
                if cluster.level != 0:
                    continue
                scheme = tree_schemes[center]
                self._member_labels[center] = {
                    v: scheme.label_of(v) for v in cluster.members()
                    if v != center}
        self._distance_cache: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------
    # Size accounting (words)
    # ------------------------------------------------------------------
    def table_words(self, v: int) -> int:
        total = self.params.k  # pivot names
        for center, scheme in self.tree_schemes.items():
            if v in scheme.tables and scheme.tree.contains(v):
                total += 1 + scheme.table_of(v).words
        for label in self._member_labels.get(v, {}).values():
            total += 1 + label.words
        return total

    def label_words(self, v: int) -> int:
        total = 1
        for i in range(self.params.k):
            total += 1
            pivot = self.system.pivots[i].pivot[v]
            if pivot is not None and \
                    self.tree_schemes[pivot].tree.contains(v):
                total += self.tree_schemes[pivot].label_of(v).words
        return total

    def max_table_words(self) -> int:
        return max(self.table_words(v) for v in self.graph.vertices())

    def average_table_words(self) -> float:
        n = self.graph.num_vertices
        return sum(self.table_words(v) for v in self.graph.vertices()) / n

    def max_label_words(self) -> int:
        return max(self.label_words(v) for v in self.graph.vertices())

    # ------------------------------------------------------------------
    # Routing (Algorithm-1 style find-tree over exact clusters)
    # ------------------------------------------------------------------
    def find_tree(self, source: int, target: int) -> Tuple[int, int]:
        if self.use_trick and target in self._member_labels.get(source, {}):
            return source, -1
        for i in range(self.params.k):
            pivot = self.system.pivots[i].pivot[target]
            if pivot is None:
                continue
            scheme = self.tree_schemes[pivot]
            if scheme.tree.contains(source) and \
                    scheme.tree.contains(target):
                return pivot, i
        raise SchemeError(
            f"TZ find-tree failed for {source} -> {target}")

    def route(self, source: int, target: int) -> TZRouteResult:
        n = self.graph.num_vertices
        if not 0 <= source < n or not 0 <= target < n:
            raise ParameterError(
                f"route endpoints ({source}, {target}) out of range")
        exact = self._exact_distance(source, target)
        if source == target:
            return TZRouteResult(source, target, [source], 0.0, None, 0.0)
        center, level = self.find_tree(source, target)
        scheme = self.tree_schemes[center]
        if level == -1:
            label = self._member_labels[source][target]
        else:
            label = scheme.label_of(target)
        path = [source]
        current = source
        for _ in range(4 * n + 4):
            nxt = scheme.next_hop(current, label)
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        if current != target:
            raise SchemeError(
                f"TZ routing {source} -> {target} stuck at {current}")
        weight = sum(self.graph.weight(a, b)
                     for a, b in zip(path, path[1:]))
        return TZRouteResult(source, target, path, weight, center, exact)

    def _exact_distance(self, source: int, target: int) -> float:
        if source not in self._distance_cache:
            if len(self._distance_cache) > 256:
                self._distance_cache.clear()
            self._distance_cache[source] = dijkstra_distances(
                self.graph, source)
        return self._distance_cache[source][target]

    @property
    def construction_rounds(self) -> int:
        """Table 1 charges [TZ01] the trivial O(m) distributed bound."""
        return self.graph.num_edges

    def __repr__(self) -> str:
        return (f"TZRoutingScheme(n={self.graph.num_vertices}, "
                f"k={self.params.k})")


def build_tz_routing(graph: WeightedGraph, k: int, seed: int = 0,
                     use_trick: bool = True,
                     hierarchy: Optional[LevelHierarchy] = None
                     ) -> TZRoutingScheme:
    """Build the [TZ01] baseline (centralized, exact)."""
    graph.require_connected()
    n = graph.num_vertices
    params = SchemeParams(n=n, k=k)
    if hierarchy is None:
        hierarchy = sample_levels(n, params, random.Random(seed))
    system = compute_exact_clusters(graph, hierarchy)
    network = Network(graph)
    tree_schemes = {
        center: build_tree_routing(cluster.tree(),
                                   port_of=network.port_of)
        for center, cluster in system.clusters.items()}
    return TZRoutingScheme(graph=graph, params=params, system=system,
                           tree_schemes=tree_schemes, use_trick=use_trick)

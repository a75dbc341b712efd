"""Exact Thorup–Zwick pivots and clusters (paper, Eq. (6), [TZ01/TZ05]).

These are computed *centrally* and serve three roles:

1. the oracle the tests compare the distributed approximate artifacts
   against (inequalities (7) and (9) relate them);
2. the substrate of the centralized [TZ01] baseline in Table 1;
3. the definitional ground truth for Claim 2 / Corollary 4 diagnostics.

For ``u ∈ A_i \\ A_{i+1}`` the cluster is
``C(u) = {v : d_G(u, v) < d_G(v, A_{i+1})}``; it is grown by a truncated
Dijkstra (only vertices satisfying the inequality are expanded), which is
correct because every vertex on a shortest ``u``–``v`` path with
``v ∈ C(u)`` is itself in ``C(u)`` (shown in Section 3.2).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..dataclass import dataclass
from ..graphs.shortest_paths import INF, dijkstra_to_set
from ..graphs.weighted_graph import WeightedGraph
from ..trees.rooted import RootedTree
from .sampling import LevelHierarchy


@dataclass
class ExactPivots:
    """Exact pivots for one level: ``dist[v] = d_G(v, A_i)`` and
    ``pivot[v]`` the realizing vertex of ``A_i`` (None iff ``A_i = ∅``,
    in which case ``dist[v] = INF``)."""

    level: int
    dist: List[float]
    pivot: List[Optional[int]]


@dataclass
class ExactCluster:
    """One exact cluster with its shortest-path tree."""

    center: int
    level: int
    dist: Dict[int, float]          # member -> d_G(center, member)
    parent: Dict[int, Optional[int]]  # member -> SPT parent

    def members(self) -> List[int]:
        return list(self.dist)

    def tree(self) -> RootedTree:
        return RootedTree(self.center, self.parent)

    def __len__(self) -> int:
        return len(self.dist)


@dataclass
class ExactClusterSystem:
    """All exact pivots and clusters for a hierarchy."""

    hierarchy: LevelHierarchy
    pivots: List[ExactPivots]            # index i = level
    clusters: Dict[int, ExactCluster]    # center -> cluster

    def pivot_distance(self, v: int, i: int) -> float:
        """``d_G(v, A_i)``, with ``d_G(v, A_k) = INF``."""
        if i >= len(self.pivots):
            return INF
        return self.pivots[i].dist[v]

    def membership_counts(self) -> List[int]:
        """How many clusters contain each vertex (Claim 2 diagnostics)."""
        n = len(self.pivots[0].dist)
        counts = [0] * n
        for cluster in self.clusters.values():
            for v in cluster.dist:
                counts[v] += 1
        return counts

    def max_overlap(self) -> int:
        counts = self.membership_counts()
        return max(counts) if counts else 0


def compute_exact_pivots(graph: WeightedGraph,
                         hierarchy: LevelHierarchy) -> List[ExactPivots]:
    """Multi-root Dijkstra per level: exact ``(d_G(v, A_i), z_i(v))``."""
    out = []
    for i in range(hierarchy.k):
        level_set = hierarchy.level_set(i)
        dist, root_of = dijkstra_to_set(graph, level_set)
        out.append(ExactPivots(level=i, dist=dist, pivot=root_of))
    return out


def grow_exact_cluster(graph: WeightedGraph, center: int, level: int,
                       next_pivot_dist: List[float]) -> ExactCluster:
    """Truncated Dijkstra from ``center``: keep ``v`` iff
    ``d(center, v) < next_pivot_dist[v]`` (Eq. (6))."""
    dist: Dict[int, float] = {center: 0.0}
    parent: Dict[int, Optional[int]] = {center: None}
    heap: List[Tuple[float, int, Optional[int]]] = [(0.0, center, None)]
    settled: Dict[int, float] = {}
    while heap:
        d, v, via = heapq.heappop(heap)
        if v in settled:
            continue
        settled[v] = d
        parent[v] = via
        dist[v] = d
        for y, w in graph.neighbor_weights(v):
            nd = d + w
            if y in settled:
                continue
            if nd < next_pivot_dist[y] and nd < dist.get(y, INF):
                dist[y] = nd
                heapq.heappush(heap, (nd, y, v))
    # drop tentative entries that never settled
    members = {v: settled[v] for v in settled}
    tree_parent = {v: parent[v] for v in settled}
    return ExactCluster(center=center, level=level, dist=members,
                        parent=tree_parent)


def compute_exact_clusters(graph: WeightedGraph,
                           hierarchy: LevelHierarchy
                           ) -> ExactClusterSystem:
    """Full exact system: pivots for every level, cluster for every
    center ``u ∈ A_i \\ A_{i+1}``."""
    pivots = compute_exact_pivots(graph, hierarchy)
    n = graph.num_vertices
    clusters: Dict[int, ExactCluster] = {}
    for i in range(hierarchy.k):
        if i + 1 < hierarchy.k:
            next_dist = pivots[i + 1].dist
        else:
            next_dist = [INF] * n
        for center in hierarchy.centers_at(i):
            clusters[center] = grow_exact_cluster(graph, center, i,
                                                  next_dist)
    return ExactClusterSystem(hierarchy=hierarchy, pivots=pivots,
                              clusters=clusters)

"""Distributed construction of approximate pivots and clusters (Section 3).

This module is the paper's main technical contribution.  For a hierarchy
``A_0 ⊇ ... ⊇ A_k = ∅`` and ``eps = 1/(48 k^4)`` it produces, for every
center ``u ∈ A_i \\ A_{i+1}``, an *approximate cluster* ``C̃(u)`` stored
as a tree of real graph edges, satisfying the paper's invariants:

* (7)  approximate pivots:  ``d_G(v, ẑ_i(v)) <= (1+eps) d_G(v, A_i)``;
* (9)  sandwich:            ``C_{6eps}(u) ⊆ C̃(u) ⊆ C(u)``;
* (10) tree stretch:        ``d_{C̃(u)}(u,v) <= (1+eps)^4 d_G(u,v)``;
* (17) value accuracy:      ``d_G(u,v) <= b_v(u) <= (1+eps)^4 d_G(u,v)``.

Construction phases (all costs measured into a :class:`CostLedger`):

* **pivots** — exact for ``i <= ceil(k/2)`` by set-rooted Bellman–Ford
  with Claim-3 budgets; approximate via Theorem 3 above that;
* **small scales** ``i < ceil(k/2)`` — bounded multi-source Bellman–Ford
  with join rule (11) ``b_v(u) < d_G(v, A_{i+1})``;
* **middle scale** (odd ``k`` only, ``i = (k-1)/2``) — Theorem-1 source
  detection instead of Bellman–Ford, join rule with the exact
  ``(k+1)/2``-pivot distance, parents from Remark 1;
* **large scales** ``i >= ceil(k/2)`` — the two-phase virtual
  construction of Section 3.3: source detection from ``V' = A_{ceil(k/2)}``
  builds ``G'``; a path-reporting hopset turns it into ``G''`` satisfying
  (13); Phase 1 runs β Bellman–Ford iterations over ``G''`` with join
  rule (14); Phase 1.5 walks hopset-edge paths to repair virtual parents;
  Phase 2 broadcasts the virtual trees and extends them to all of ``V``
  with join rule (15), real parents coming from Remark 1.

Every join rule above is a *per-vertex threshold* and is handed to the
exploration layer declaratively as a
:class:`repro.congest.bellman_ford.JoinRule` instead of a closure, so
the vectorized kernel can evaluate it as one masked compare fused into
the scatter-min relaxation.  The plans per scale band:

* small levels — ``JoinRule(threshold=d̂_{i+1})``: rule (11), strict,
  thresholds the (possibly approximate) next-level pivot distances;
* middle level — ``JoinRule(threshold=d̂_{(k+1)/2})`` applied by the
  source detection as one masked compare over its finished matrix (the
  exact ``(k+1)/2``-pivot distances; propagation is unchanged);
* large levels, Phase 1 — ``JoinRule(threshold=[d̂_{i+1}(v) /
  (1+eps)^3])``: rule (14) over the virtual graph ``G''``;
* large levels, Phase 2 — rule (15) thresholds ``d̂_{i+1}(y)/(1+eps)``
  per vertex, one masked compare after the broadcast-extension sweep
  (not an exploration: one pass over the detection's ``V'`` rows
  computes every ``min_v d̂(y, v) + b_v(u)`` and its first minimizing
  row, which names the Remark-1 parent).

Wall-clock per phase is measured into the ledger (``seconds=``) purely
for benchmark reporting; it never participates in any equivalence.
"""

from __future__ import annotations

import random
import time
from dataclasses import field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..congest.bellman_ford import (
    JoinRule,
    multi_source_exploration,
    nearest_source_exploration,
    virtual_multi_source_exploration,
)
from ..congest.bfs import BFSTree, build_bfs_tree
from ..congest.metrics import CostLedger, pipelined_rounds
from ..congest.network import Network
from ..dataclass import dataclass
from ..exceptions import ParameterError, SchemeError
from ..graphs.shortest_paths import INF
from ..graphs.weighted_graph import WeightedGraph
from ..hopsets.construction import build_hopset
from ..sketches.approx_spt import approximate_spt
from ..sketches.source_detection import (
    SourceDetectionResult,
    build_virtual_graph_from_detection,
    detect_sources,
    extend_over_sources,
)
from ..trees.rooted import RootedTree
from .params import SchemeParams
from .sampling import LevelHierarchy, sample_levels


@dataclass
class ApproxPivots:
    """Per-level pivot data: ``d̂_i(v)`` and ``ẑ_i(v)``; ``exact`` marks
    levels where the values are exact distances to ``A_i``."""

    level: int
    dist_hat: List[float]
    pivot: List[Optional[int]]
    exact: bool


@dataclass
class ApproxCluster:
    """One approximate cluster ``C̃(u)`` stored as a rooted tree."""

    center: int
    level: int
    value: Dict[int, float]            # member v -> b_v(u)
    parent: Dict[int, Optional[int]]   # member v -> real parent in G
    dropped_members: int = 0           # defensive prunes (should be 0)

    def members(self) -> List[int]:
        return list(self.value)

    def tree(self) -> RootedTree:
        return RootedTree(self.center, self.parent)

    def __len__(self) -> int:
        return len(self.value)


@dataclass
class ApproxClusterSystem:
    """Everything Section 3 produces, plus cost accounting."""

    params: SchemeParams
    hierarchy: LevelHierarchy
    pivots: List[ApproxPivots]
    clusters: Dict[int, ApproxCluster]
    ledger: CostLedger
    bfs_tree: BFSTree
    beta: int = 0
    total_dropped: int = 0

    def pivot_distance(self, v: int, i: int) -> float:
        """``d̂_i(v)`` with the convention ``d̂_k = INF``."""
        if i >= len(self.pivots):
            return INF
        return self.pivots[i].dist_hat[v]

    def pivot_of(self, v: int, i: int) -> Optional[int]:
        if i >= len(self.pivots):
            return None
        return self.pivots[i].pivot[v]

    def membership_counts(self) -> List[int]:
        n = len(self.pivots[0].dist_hat)
        counts = [0] * n
        for cluster in self.clusters.values():
            for v in cluster.value:
                counts[v] += 1
        return counts

    def max_overlap(self) -> int:
        counts = self.membership_counts()
        return max(counts) if counts else 0


# ----------------------------------------------------------------------
# Pivots
# ----------------------------------------------------------------------
def _compute_pivots(graph: WeightedGraph, params: SchemeParams,
                    hierarchy: LevelHierarchy, rng: random.Random,
                    bfs_tree: BFSTree, detection_mode: str,
                    capacity_words: int,
                    ledger: CostLedger) -> List[ApproxPivots]:
    n = graph.num_vertices
    pivots: List[ApproxPivots] = []
    # level 0: every vertex is its own pivot at distance 0.
    pivots.append(ApproxPivots(level=0, dist_hat=[0.0] * n,
                               pivot=list(range(n)), exact=True))
    for i in range(1, params.k):
        level_set = hierarchy.level_set(i)
        if i <= params.half_level:
            budget = params.exploration_budget(i)
            started = time.perf_counter()
            result = nearest_source_exploration(graph, level_set, budget,
                                                capacity_words)
            ledger.add(f"pivots/exact-level-{i}", result.rounds,
                       seconds=time.perf_counter() - started)
            pivots.append(ApproxPivots(level=i, dist_hat=result.dist,
                                       pivot=result.source_of, exact=True))
        else:
            started = time.perf_counter()
            spt = approximate_spt(graph, level_set, params.eps, rng=rng,
                                  bfs_tree=bfs_tree,
                                  capacity_words=capacity_words,
                                  detection_mode=detection_mode,
                                  rho=params.hopset_rho)
            ledger.add(f"pivots/approx-level-{i}", spt.rounds,
                       seconds=time.perf_counter() - started)
            pivots.append(ApproxPivots(level=i, dist_hat=spt.dist_hat,
                                       pivot=spt.witness, exact=False))
    return pivots


# ----------------------------------------------------------------------
# Tree repair (defensive, see module docstring of clusters)
# ----------------------------------------------------------------------
def _prune_orphans(center: int, value: Dict[int, float],
                   parent: Dict[int, Optional[int]]) -> int:
    """Drop members whose parent chain leaves the member set.

    The paper proves parents always join (Claim 7); with floating-point
    arithmetic an equality-boundary case could in principle violate it,
    so we prune instead of crashing and report the count (tests pin it
    to zero).
    """
    dropped = 0
    changed = True
    while changed:
        changed = False
        for v in list(value):
            if v == center:
                continue
            p = parent.get(v)
            if p is None or p not in value:
                del value[v]
                del parent[v]
                dropped += 1
                changed = True
    return dropped


def _vertex_objects(n: int) -> np.ndarray:
    """Object array of the ``n`` vertex ints, then ``None`` (index −1
    reads it, for a parent of −1)."""
    vertex = np.empty(n + 1, dtype=object)
    vertex[:n] = list(range(n))
    return vertex


def _add_members(cluster: ApproxCluster, vertex: np.ndarray,
                 members: np.ndarray, values: list,
                 parents: np.ndarray) -> None:
    """Append ``members`` (ascending) with their values and parent
    cells to ``cluster``.  Keys and parents are :func:`_vertex_objects`'
    ints, one object per vertex shared by every cluster it joins rather
    than one per membership: the clusters live through the tree build.
    """
    keys = vertex[members].tolist()
    cluster.value.update(zip(keys, values))
    cluster.parent.update(zip(keys, vertex[parents].tolist()))


# ----------------------------------------------------------------------
# Small scales (Section 3.2)
# ----------------------------------------------------------------------
def _build_small_level(graph: WeightedGraph, level: int,
                       centers: Sequence[int],
                       next_pivot_dist: List[float], budget: int,
                       capacity_words: int, ledger: CostLedger
                       ) -> Dict[int, ApproxCluster]:
    # rule (11): join iff b_v(u) < d̂_{i+1}(v), declaratively
    rule = JoinRule(threshold=next_pivot_dist)
    started = time.perf_counter()
    result = multi_source_exploration(graph, centers, budget, rule,
                                      capacity_words)
    ledger.add(f"clusters/small-level-{level}", result.rounds,
               seconds=time.perf_counter() - started)
    clusters: Dict[int, ApproxCluster] = {
        u: ApproxCluster(center=u, level=level, value={}, parent={})
        for u in centers}
    for v in range(graph.num_vertices):
        for u, b in result.dist[v].items():
            clusters[u].value[v] = b
            clusters[u].parent[v] = result.parent[v][u]
    for cluster in clusters.values():
        cluster.dropped_members = _prune_orphans(
            cluster.center, cluster.value, cluster.parent)
    return clusters


# ----------------------------------------------------------------------
# Middle scale for odd k (Section 3.2, "The middle level")
# ----------------------------------------------------------------------
def _build_middle_level(graph: WeightedGraph, level: int,
                        centers: Sequence[int],
                        next_pivot_dist: List[float], budget: int,
                        eps: float, bfs_tree: BFSTree,
                        detection_mode: str, ledger: CostLedger
                        ) -> Dict[int, ApproxCluster]:
    # middle-level join rule, applied inside the detection when it
    # materializes estimates: keep (v, u) iff b < d̂_{(k+1)/2}(v)
    rule = JoinRule(threshold=next_pivot_dist)
    started = time.perf_counter()
    detection = detect_sources(graph, centers, budget, eps,
                               bfs_tree=bfs_tree, mode=detection_mode,
                               join_rule=rule)
    ledger.add(f"clusters/middle-level-{level}", detection.rounds,
               seconds=time.perf_counter() - started)
    clusters: Dict[int, ApproxCluster] = {
        u: ApproxCluster(center=u, level=level, value={u: 0.0},
                         parent={u: None})
        for u in centers}
    # the detection kept only rule-passing cells; each row is one
    # center's members, ascending
    vertex = _vertex_objects(graph.num_vertices)
    for r, u in enumerate(detection.sources):
        row = detection.dist[r]
        vs = np.nonzero(row < INF)[0]
        vs = vs[vs != u]
        _add_members(clusters[u], vertex, vs, detection.numbers(row[vs]),
                     detection.par[r, vs])
    for cluster in clusters.values():
        cluster.dropped_members = _prune_orphans(
            cluster.center, cluster.value, cluster.parent)
    return clusters


# ----------------------------------------------------------------------
# Large scales (Section 3.3)
# ----------------------------------------------------------------------
@dataclass
class _LargeScalePreprocessing:
    """Shared state of Section 3.3.1: detection, G', hopset, G''."""

    detection: SourceDetectionResult
    virtual_graph: object
    augmented: object
    hopset: object
    beta: int


def _preprocess_large_scales(graph: WeightedGraph, params: SchemeParams,
                             v_prime: Sequence[int], rng: random.Random,
                             bfs_tree: BFSTree, detection_mode: str,
                             capacity_words: int, ledger: CostLedger
                             ) -> _LargeScalePreprocessing:
    hop_bound = params.detection_hop_bound
    started = time.perf_counter()
    detection = detect_sources(graph, v_prime, hop_bound, params.eps / 2,
                               bfs_tree=bfs_tree, mode=detection_mode)
    ledger.add("large/preprocess-detection", detection.rounds,
               seconds=time.perf_counter() - started)
    virtual_graph = build_virtual_graph_from_detection(detection)
    started = time.perf_counter()
    hopset_report = build_hopset(virtual_graph, params.eps / 3,
                                 rho=params.hopset_rho, rng=rng,
                                 bfs_tree=bfs_tree,
                                 capacity_words=capacity_words)
    ledger.add("large/preprocess-hopset", hopset_report.rounds,
               seconds=time.perf_counter() - started)
    augmented = hopset_report.hopset.augment(virtual_graph)
    beta = hopset_report.hopset.beta_measured or max(
        1, virtual_graph.num_vertices)
    return _LargeScalePreprocessing(detection=detection,
                                    virtual_graph=virtual_graph,
                                    augmented=augmented,
                                    hopset=hopset_report.hopset,
                                    beta=beta)


def _broadcast_extension(clusters: Dict[int, ApproxCluster],
                         centers: Sequence[int],
                         virt_value: Dict[int, Dict[int, float]],
                         detection: SourceDetectionResult,
                         next_pivot_hat: List[float], eps: float) -> int:
    """Phase 2 of a large level: extend the virtual clusters to all of
    ``V`` under rule (15), in place; returns the broadcast words (3 per
    announced value).

    Every ``y`` takes ``b_y(u) = min_{v ∈ V'} d̂(y, v) + b_v(u)``, its
    first strict minimum over ``V'`` in ascending order, and joins
    ``C̃(u)`` if that is below ``d̂_{i+1}(y) / (1+eps)`` and ``y`` is
    not a Phase-1 member; its real parent is the detection's parent of
    ``y`` toward the winning ``v`` (Remark 1).  The min is one sweep
    over the announcing rows of the detection's matrix
    (:func:`~repro.sketches.source_detection.extend_over_sources`); the
    rule is one masked compare.
    """
    n = len(next_pivot_hat)
    row_of = detection.row_of
    # the broadcast values, by announcing V' row and center column, and
    # the Phase-1 members C̃'(u) they come from
    values = np.full((len(detection.sources), len(centers)), INF)
    member = np.zeros((n, len(centers)), dtype=bool)
    broadcast_words = 0
    for c, u in enumerate(centers):
        announced = virt_value[u]
        values[[row_of[v] for v in announced], c] = list(announced.values())
        member[list(announced), c] = True
        broadcast_words += 3 * len(announced)
    best, row = extend_over_sources(detection.dist, values)
    # rule (15), strict (an unreached cell is INF and fails it); C̃'(u)
    # members keep their Phase-1 values
    threshold = np.asarray(next_pivot_hat, dtype=np.float64) / (1.0 + eps)
    joins = (best < threshold[:, None]) & ~member
    vertex = _vertex_objects(n)
    for c, u in enumerate(centers):
        ys = np.nonzero(joins[:, c])[0]      # new members, ascending
        # floats: Phase-1 values start at 0.0, so every sum is one
        _add_members(clusters[u], vertex, ys, best[ys, c].tolist(),
                     detection.par[row[ys, c], ys])
    return broadcast_words


def _build_large_level(graph: WeightedGraph, level: int,
                       centers: Sequence[int],
                       next_pivot_hat: List[float], eps: float,
                       pre: _LargeScalePreprocessing, bfs_tree: BFSTree,
                       capacity_words: int, ledger: CostLedger
                       ) -> Dict[int, ApproxCluster]:
    one_plus = 1.0 + eps

    # ----- Phase 1: β-iteration Bellman–Ford over G'' with rule (14),
    # declaratively: per-vertex budgets d̂_{i+1}(v) / (1+eps)^3 (the
    # division is precomputed per vertex — same float as the closure's
    # ``next_pivot_hat[v] / one_plus ** 3``, evaluated once).
    cube = one_plus ** 3
    rule14 = JoinRule(threshold=[t / cube for t in next_pivot_hat])
    started = time.perf_counter()
    phase1 = virtual_multi_source_exploration(
        pre.augmented, centers, pre.beta, rule14, bfs_tree,
        capacity_words)
    ledger.add(f"large/phase1-level-{level}", phase1.rounds,
               seconds=time.perf_counter() - started)

    # virtual cluster state: value/virtual-parent per member of C̃'(u)
    virt_value: Dict[int, Dict[int, float]] = {u: {} for u in centers}
    virt_parent: Dict[int, Dict[int, Optional[int]]] = {
        u: {} for u in centers}
    for v, per_source in phase1.dist.items():
        for u, b in per_source.items():
            virt_value[u][v] = b
            virt_parent[u][v] = phase1.parent[v][u]

    # ----- Phase 1.5: repair along hopset-edge paths (Property 1).
    started = time.perf_counter()
    for u in centers:
        values = virt_value[u]
        parents = virt_parent[u]
        for y in list(values):
            x = parents.get(y)
            if x is None:
                continue
            edge = pre.hopset.lookup(x, y)
            if edge is None:
                continue  # (x, y) is a plain G' edge; Remark 1 covers it
            path = list(edge.path)
            if path[0] != x:
                path.reverse()
            prefix = [0.0]
            for a, b in zip(path, path[1:]):
                prefix.append(prefix[-1] + pre.virtual_graph.weight(a, b))
            bx = values[x]
            for idx in range(1, len(path)):
                v = path[idx]
                candidate = bx + prefix[idx]
                if candidate < values.get(v, INF):
                    values[v] = candidate
                    parents[v] = path[idx - 1]
    ledger.add(f"large/phase1.5-level-{level}",
               2 * pipelined_rounds(3 * sum(len(v) for v in
                                            virt_value.values()),
                                    capacity_words, bfs_tree.height),
               seconds=time.perf_counter() - started)

    # real parents for the virtual members (Remark 1 through the
    # detection's parent pointers: the cell of v in its virtual
    # parent's row)
    detection = pre.detection
    row_of = detection.row_of
    clusters: Dict[int, ApproxCluster] = {}
    for u in centers:
        members = list(virt_value[u])
        via = [virt_parent[u][v] for v in members]
        # only the center has no virtual parent; its row-0 read is unused
        real = detection.par[[0 if x is None else row_of[x] for x in via],
                             members].tolist()
        parent = {v: None if x is None or p < 0 else p
                  for v, x, p in zip(members, via, real)}
        clusters[u] = ApproxCluster(center=u, level=level,
                                    value=dict(virt_value[u]),
                                    parent=parent)

    # ----- Phase 2: broadcast virtual trees, extend to all of V, rule (15).
    started = time.perf_counter()
    broadcast_words = _broadcast_extension(clusters, centers, virt_value,
                                           detection, next_pivot_hat, eps)
    ledger.add(f"large/phase2-broadcast-level-{level}",
               2 * pipelined_rounds(broadcast_words, capacity_words,
                                    bfs_tree.height),
               seconds=time.perf_counter() - started)

    for cluster in clusters.values():
        cluster.dropped_members = _prune_orphans(
            cluster.center, cluster.value, cluster.parent)
    return clusters


# ----------------------------------------------------------------------
# Top-level driver (Theorem 4)
# ----------------------------------------------------------------------
def build_approx_clusters(graph: WeightedGraph, k: int,
                          seed: int = 0,
                          eps_override: float = 0.0,
                          detection_mode: str = "rounded",
                          capacity_words: int = 2,
                          hierarchy: Optional[LevelHierarchy] = None,
                          bfs_tree: Optional[BFSTree] = None
                          ) -> ApproxClusterSystem:
    """Theorem 4: compute all approximate pivots and clusters.

    Parameters mirror the paper; ``seed`` drives both the hierarchy
    sampling and every random sub-procedure, making runs reproducible.
    ``eps_override`` (tests / ablations only) replaces ``1/(48 k^4)``.
    """
    graph.require_connected()
    n = graph.num_vertices
    params = SchemeParams(n=n, k=k, eps_override=eps_override)
    rng = random.Random(seed)
    ledger = CostLedger()

    if bfs_tree is None:
        started = time.perf_counter()
        bfs_tree = build_bfs_tree(Network(graph), root=0,
                                  capacity_words=capacity_words)
        ledger.add("setup/bfs-tree", bfs_tree.rounds,
                   seconds=time.perf_counter() - started)
    if hierarchy is None:
        hierarchy = sample_levels(n, params, rng)

    pivots = _compute_pivots(graph, params, hierarchy, rng, bfs_tree,
                             detection_mode, capacity_words, ledger)

    def next_hat(i: int) -> List[float]:
        if i + 1 >= params.k:
            return [INF] * n
        return pivots[i + 1].dist_hat

    clusters: Dict[int, ApproxCluster] = {}

    middle = params.middle_level if params.is_odd and params.k > 1 else None
    for i in range(min(params.half_level, params.k)):
        centers = hierarchy.centers_at(i)
        if not centers:
            continue
        budget = params.exploration_budget(i + 1)
        if middle is not None and i == middle:
            clusters.update(_build_middle_level(
                graph, i, centers, next_hat(i), budget, params.eps,
                bfs_tree, detection_mode, ledger))
        else:
            clusters.update(_build_small_level(
                graph, i, centers, next_hat(i), budget, capacity_words,
                ledger))

    beta = 0
    if params.half_level <= params.k - 1:
        v_prime = hierarchy.level_set(params.half_level)
        if v_prime:
            pre = _preprocess_large_scales(
                graph, params, v_prime, rng, bfs_tree, detection_mode,
                capacity_words, ledger)
            beta = pre.beta
            for i in range(params.half_level, params.k):
                centers = hierarchy.centers_at(i)
                if not centers:
                    continue
                clusters.update(_build_large_level(
                    graph, i, centers, next_hat(i), params.eps, pre,
                    bfs_tree, capacity_words, ledger))

    total_dropped = sum(c.dropped_members for c in clusters.values())
    return ApproxClusterSystem(params=params, hierarchy=hierarchy,
                               pivots=pivots, clusters=clusters,
                               ledger=ledger, bfs_tree=bfs_tree,
                               beta=beta, total_dropped=total_dropped)

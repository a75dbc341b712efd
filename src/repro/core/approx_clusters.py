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
  builds ``G'``, a ``V' × V'`` weight matrix; a path-reporting hopset
  turns it into ``G''`` satisfying (13); Phase 1 runs β Bellman–Ford
  iterations over ``G''`` with join rule (14), on the exploration
  kernel; Phase 1.5 walks hopset-edge paths (predecessor walks) to
  repair virtual parents;
  Phase 2 broadcasts the virtual trees and extends them to all of ``V``
  with join rule (15), real parents coming from Remark 1.

Every join rule above is a *per-vertex threshold*, handed over
declaratively as a :class:`repro.congest.bellman_ford.JoinRule` and
evaluated as one masked compare: fused into the scatter-min relaxation
on the small levels (rule (11), thresholds ``d̂_{i+1}``), in the middle
level's source detection (thresholds ``d̂_{(k+1)/2}``) and in Phase 1
(rule (14) over ``G''``, thresholds ``d̂_{i+1}(v) / (1+eps)^3``); and
after the Phase-2 broadcast-extension sweep
(rule (15), thresholds ``d̂_{i+1}(y) / (1+eps)``), one pass over the
detection's ``V'`` rows that computes every ``min_v d̂(y, v) + b_v(u)``
and its first minimizing row, which names the Remark-1 parent.

Every level hands its clusters over as cells — (center, member,
value, parent) arrays straight from its kernel: the exploration's
columns, the detection's finite rows, the virtual members plus the
Phase-2 join mask.  One stable sort by (center, member) merges them
into the system's CSR (:class:`ApproxClusterSystem`), which the forest,
the sketches and the 4k-5 member rows read as it is.  Claim 7 — every
parent joins its cluster — is one vectorised check over it
(:meth:`ApproxClusterSystem.check_parents`), a :class:`SchemeError`
and never a repair.  No per-membership dict is built: the
:class:`ApproxCluster` dicts are a lazy view for tests and oracles.

Wall-clock per phase is measured into the ledger (``seconds=``) purely
for benchmark reporting; it never participates in any equivalence.
"""

from __future__ import annotations

import random
import time
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.bellman_ford import (
    JoinRule,
    _run_starts,
    multi_source_exploration,
    nearest_source_exploration,
    virtual_exploration,
)
from ..congest.bfs import BFSTree, build_bfs_tree
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import CostLedger, pipelined_rounds
from ..dataclass import dataclass
from ..exceptions import SchemeError
from ..graphs.shortest_paths import INF
from ..graphs.weighted_graph import WeightedGraph
from ..hopsets import Hopset, build_hopset
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
from .tree_routing import parent_cells


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
    """One approximate cluster ``C̃(u)`` as dicts: a view of its slice
    of the :class:`ApproxClusterSystem` columns (tests and the
    reference oracles only)."""

    center: int
    level: int
    value: Dict[int, float]            # member v -> b_v(u)
    parent: Dict[int, Optional[int]]   # member v -> real parent in G

    def members(self) -> List[int]:
        return list(self.value)

    def tree(self) -> RootedTree:
        return RootedTree(self.center, self.parent)

    def __len__(self) -> int:
        return len(self.value)


@dataclass(eq=False)
class ApproxClusterSystem:
    """Everything Section 3 produces, plus cost accounting.

    The clusters are one CSR sorted by (center, member): cluster ``c``
    is centered at ``center[c]`` (ascending), built at level
    ``level[c]``, and owns the cells ``c_start[c] : c_start[c + 1]``
    of the columns ``member`` (int64, ascending in the cluster),
    ``value`` (float64, ``b_v(u)``) and ``parent`` (int64, the member's
    real parent in ``G``, ``-1`` at the center).  :attr:`clusters`,
    the same clusters as :class:`ApproxCluster` dicts, is built on
    first access only.
    """

    params: SchemeParams
    hierarchy: LevelHierarchy
    pivots: List[ApproxPivots]
    ledger: CostLedger
    bfs_tree: BFSTree
    center: np.ndarray
    level: np.ndarray
    c_start: np.ndarray
    member: np.ndarray
    value: np.ndarray
    parent: np.ndarray
    beta: int = 0

    @cached_property
    def clusters(self) -> Dict[int, ApproxCluster]:
        """Center -> its cluster as dicts, ascending: for tests,
        baselines and oracles; no construction step reads it."""
        bounds = self.c_start.tolist()
        member, value = self.member.tolist(), self.value.tolist()
        parent = [None if p < 0 else p for p in self.parent.tolist()]
        return {u: ApproxCluster(u, level,
                                 dict(zip(member[lo:hi], value[lo:hi])),
                                 dict(zip(member[lo:hi], parent[lo:hi])))
                for u, level, lo, hi in zip(self.center.tolist(),
                                            self.level.tolist(), bounds,
                                            bounds[1:])}

    def cell_centers(self) -> np.ndarray:
        """The center of every cell."""
        return np.repeat(self.center, np.diff(self.c_start))

    def pivot_distance(self, v: int, i: int) -> float:
        """``d̂_i(v)`` with the convention ``d̂_k = INF``."""
        if i >= len(self.pivots):
            return INF
        return self.pivots[i].dist_hat[v]

    def pivot_of(self, v: int, i: int) -> Optional[int]:
        if i >= len(self.pivots):
            return None
        return self.pivots[i].pivot[v]

    def membership_counts(self) -> np.ndarray:
        """Clusters per vertex, ``|{u : v ∈ C̃(u)}|``."""
        return np.bincount(self.member,
                           minlength=len(self.pivots[0].dist_hat))

    def max_overlap(self) -> int:
        return int(self.membership_counts().max(initial=0))

    def check_parents(self) -> None:
        """Claim 7: a cluster's center has parent ``-1``, and every
        other member's parent is a member of the same cluster.  A
        violation is a :class:`SchemeError` naming the cluster and the
        vertex."""
        owner = self.cell_centers()
        found = parent_cells(owner, self.member, self.parent,
                             len(self.pivots[0].dist_hat)) >= 0
        bad = np.flatnonzero(np.where(self.member == owner,
                                      self.parent != -1, ~found))
        if len(bad):
            cell = bad[0]
            raise SchemeError(
                f"cluster {int(owner[cell])}: vertex {int(self.member[cell])}"
                f" has parent {int(self.parent[cell])}, which is not a member"
                f" (Claim 7)")


# ----------------------------------------------------------------------
# Pivots
# ----------------------------------------------------------------------
def _compute_pivots(graph: WeightedGraph, params: SchemeParams,
                    hierarchy: LevelHierarchy, rng: random.Random,
                    bfs_tree: BFSTree,
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
            result = nearest_source_exploration(graph, level_set, budget)
            ledger.add(f"pivots/exact-level-{i}", result.rounds,
                       seconds=time.perf_counter() - started)
            pivots.append(ApproxPivots(level=i, dist_hat=result.dist,
                                       pivot=result.source_of, exact=True))
        else:
            started = time.perf_counter()
            spt = approximate_spt(graph, level_set, params.eps, rng=rng,
                                  bfs_tree=bfs_tree,
                                  rho=params.hopset_rho)
            ledger.add(f"pivots/approx-level-{i}", spt.rounds,
                       seconds=time.perf_counter() - started)
            pivots.append(ApproxPivots(level=i, dist_hat=spt.dist_hat,
                                       pivot=spt.witness, exact=False))
    return pivots


#: One level's clusters as cells: (center, member, value, parent) arrays.
Cells = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# Small scales (Section 3.2)
# ----------------------------------------------------------------------
def _build_small_level(graph: WeightedGraph, level: int,
                       centers: Sequence[int],
                       next_pivot_dist: List[float], budget: int,
                       ledger: CostLedger) -> Cells:
    # rule (11): join iff b_v(u) < d̂_{i+1}(v), declaratively
    rule = JoinRule(threshold=next_pivot_dist)
    started = time.perf_counter()
    result = multi_source_exploration(graph, centers, budget, rule)
    ledger.add(f"clusters/small-level-{level}", result.rounds,
               seconds=time.perf_counter() - started)
    # one cell per (source, vertex) estimate: the clusters as they are
    return result.source, result.vertex, result.value, result.via


# ----------------------------------------------------------------------
# Middle scale for odd k (Section 3.2, "The middle level")
# ----------------------------------------------------------------------
def _build_middle_level(graph: WeightedGraph, level: int,
                        centers: Sequence[int],
                        next_pivot_dist: List[float], budget: int,
                        eps: float, bfs_tree: BFSTree,
                        ledger: CostLedger) -> Cells:
    # middle-level join rule, fused into the detection's propagation:
    # v stores and relays b_v(u) iff b < d̂_{(k+1)/2}(v)
    rule = JoinRule(threshold=next_pivot_dist)
    started = time.perf_counter()
    detection = detect_sources(graph, centers, budget, eps,
                               bfs_tree=bfs_tree, join_rule=rule)
    ledger.add(f"clusters/middle-level-{level}", detection.rounds,
               seconds=time.perf_counter() - started)
    # the detection stored only rule-passing cells, and the seeded
    # center (value 0, parent -1): each row is one center's cluster
    rows, members = np.nonzero(detection.dist < INF)
    return (np.asarray(detection.sources, dtype=np.int64)[rows], members,
            detection.dist[rows, members], detection.par[rows, members])


# ----------------------------------------------------------------------
# Large scales (Section 3.3)
# ----------------------------------------------------------------------
@dataclass
class _LargeScalePreprocessing:
    """Shared state of Section 3.3.1: the detection, ``G''`` as a ``V' ×
    V'`` weight matrix (``V'`` is the detection's sources, so a ``V'``
    index is a detection row), the hopset over ``G'`` and β."""

    detection: SourceDetectionResult
    augmented: np.ndarray
    hopset: Hopset
    beta: int


def _preprocess_large_scales(graph: WeightedGraph, params: SchemeParams,
                             v_prime: Sequence[int], rng: random.Random,
                             bfs_tree: BFSTree, ledger: CostLedger
                             ) -> _LargeScalePreprocessing:
    hop_bound = params.detection_hop_bound
    started = time.perf_counter()
    detection = detect_sources(graph, v_prime, hop_bound, params.eps / 2,
                               bfs_tree=bfs_tree)
    ledger.add("large/preprocess-detection", detection.rounds,
               seconds=time.perf_counter() - started)
    weights = build_virtual_graph_from_detection(detection)
    started = time.perf_counter()
    hopset_report = build_hopset(weights, params.eps / 3,
                                 rho=params.hopset_rho, rng=rng,
                                 bfs_tree=bfs_tree)
    ledger.add("large/preprocess-hopset", hopset_report.rounds,
               seconds=time.perf_counter() - started)
    return _LargeScalePreprocessing(detection=detection,
                                    augmented=hopset_report.augmented,
                                    hopset=hopset_report.hopset,
                                    beta=hopset_report.hopset.beta_measured)


def _broadcast_extension(centers: np.ndarray, virt: np.ndarray,
                         detection: SourceDetectionResult,
                         next_pivot_hat: List[float], eps: float
                         ) -> Tuple[Cells, int]:
    """Phase 2 of a large level: extend the virtual clusters to all of
    ``V`` under rule (15).  ``virt`` holds the Phase-1 values, one row
    per center and one column per ``V'`` vertex (``INF`` off
    ``C̃'(u)``).  Returns the new members' cells and the broadcast words
    (3 per announced value).

    Every ``y`` takes ``b_y(u) = min_{v ∈ V'} d̂(y, v) + b_v(u)``, its
    first strict minimum over ``V'`` in ascending order, and joins
    ``C̃(u)`` if that is below ``d̂_{i+1}(y) / (1+eps)`` and ``y`` is
    not a Phase-1 member; its real parent is the detection's parent of
    ``y`` toward the winning ``v`` (Remark 1).  The min is one sweep
    over the announcing rows of the detection's matrix
    (:func:`~repro.sketches.source_detection.extend_over_sources`); the
    rule is one masked compare, and its mask is the cells.
    """
    n = len(next_pivot_hat)
    # the Phase-1 members C̃'(u) the broadcast values come from
    cs, vs = np.nonzero(virt < INF)
    member = np.zeros((n, len(centers)), dtype=bool)
    member[np.asarray(detection.sources)[vs], cs] = True
    best, row = extend_over_sources(detection.dist, virt.T)
    # rule (15), strict (an unreached cell is INF and fails it); C̃'(u)
    # members keep their Phase-1 values
    threshold = np.asarray(next_pivot_hat, dtype=np.float64) / (1.0 + eps)
    joins = (best < threshold[:, None]) & ~member
    cs, ys = np.nonzero(joins.T)          # by center, members ascending
    return (centers[cs], ys, best[ys, cs],
            detection.par[row[ys, cs], ys]), 3 * len(vs)


def _walk_hopset_paths(virt: np.ndarray, vpar: np.ndarray,
                       hopset: Hopset) -> None:
    """Phase 1.5 (Property 1), in place on the Phase-1 matrices: a
    member ``y`` whose virtual parent ``x`` is joined to it by a hopset
    edge walks the edge's path from ``x``, improving every path vertex
    by ``b_x + d_P(x, ·)`` and taking its path predecessor as parent;
    the edge stands for its path, so if ``y`` still hangs off ``x`` it
    takes ``path[-2]``.  The distances along the path are the
    Property-1 prefix sums ``D[u, path]`` of the predecessor walk from
    the edge's endpoint ``u``, so no decision depends on summation
    order.  Members are walked per center in ascending
    order, each reading the values and parents the earlier walks left.
    """
    edge_id = np.full(hopset.dist.shape, -1, dtype=np.int64)
    edge_id[hopset.u, hopset.v] = edge_id[hopset.v, hopset.u] = \
        np.arange(len(hopset))
    # a walk starts only at a hopset-edge parent, and only a walk moves
    # a parent: a row with none at the start is left as it is
    crossing = (edge_id[vpar, np.arange(vpar.shape[1])] >= 0) & (vpar >= 0)
    walks = {}
    for c in np.flatnonzero(crossing.any(axis=1)).tolist():
        values, parents = virt[c].tolist(), vpar[c].tolist()
        for y in [y for y, b in enumerate(values) if b < INF]:
            x = parents[y]
            edge = int(edge_id[x, y]) if x >= 0 else -1
            if edge < 0:
                continue  # (x, y) is a plain G' edge; Remark 1 covers it
            if edge not in walks:     # an edge serves both its rows
                path = hopset.path(edge)
                walks[edge] = path, hopset.dist[path[0], path].tolist()
            path, prefix = walks[edge]
            if path[0] != x:
                path = path[::-1]
                prefix = [prefix[-1] - d for d in reversed(prefix)]
            bx = values[x]
            for idx in range(1, len(path)):
                w = path[idx]
                candidate = bx + prefix[idx]
                if candidate < values[w]:
                    values[w] = candidate
                    parents[w] = path[idx - 1]
            if parents[y] == x:
                parents[y] = path[-2]
        virt[c], vpar[c] = values, parents


def _build_large_level(graph: WeightedGraph, level: int,
                       centers: Sequence[int],
                       next_pivot_hat: List[float], eps: float,
                       pre: _LargeScalePreprocessing, bfs_tree: BFSTree,
                       ledger: CostLedger) -> Cells:
    detection = pre.detection
    v_prime = np.asarray(detection.sources, dtype=np.int64)
    center = np.asarray(centers, dtype=np.int64)

    # ----- Phase 1: β-iteration Bellman–Ford over G'' with rule (14),
    # declaratively: per-vertex budgets d̂_{i+1}(v) / (1+eps)^3 at V'
    cube = (1.0 + eps) ** 3
    threshold = np.asarray(next_pivot_hat, dtype=np.float64)[v_prime] / cube
    started = time.perf_counter()
    virt, vpar, rounds = virtual_exploration(
        pre.augmented, np.searchsorted(v_prime, center), pre.beta,
        threshold, bfs_tree.height)
    ledger.add(f"large/phase1-level-{level}", rounds,
               seconds=time.perf_counter() - started)

    # ----- Phase 1.5: repair along hopset-edge paths (Property 1).
    started = time.perf_counter()
    _walk_hopset_paths(virt, vpar, pre.hopset)
    cs, vs = np.nonzero(virt < INF)
    ledger.add(f"large/phase1.5-level-{level}",
               2 * pipelined_rounds(3 * len(cs), DEFAULT_CAPACITY_WORDS,
                                    bfs_tree.height),
               seconds=time.perf_counter() - started)

    # the virtual members' cells; real parents by Remark 1 through the
    # detection's parent pointers: the cell of v in its virtual parent's
    # row (only the center has no virtual parent, and keeps -1)
    member = v_prime[vs]
    via = vpar[cs, vs]
    parent = np.where(via >= 0, detection.par[via, member], -1)

    # ----- Phase 2: broadcast virtual trees, extend to all of V, rule (15).
    started = time.perf_counter()
    joined, broadcast_words = _broadcast_extension(
        center, virt, detection, next_pivot_hat, eps)
    ledger.add(f"large/phase2-broadcast-level-{level}",
               2 * pipelined_rounds(broadcast_words, DEFAULT_CAPACITY_WORDS,
                                    bfs_tree.height),
               seconds=time.perf_counter() - started)
    return tuple(np.concatenate(pair) for pair in zip(
        (center[cs], member, virt[cs, vs], parent), joined))


def _merge_levels(n: int, hierarchy: LevelHierarchy,
                  cells: List[Cells]) -> Dict[str, np.ndarray]:
    """The levels' clusters as the system's CSR columns: the cells in
    one stable sort by (center, member), which merges the long sorted
    runs the levels hand over.  Every cluster holds its center."""
    owner, member, value, parent = map(np.concatenate, zip(*cells))
    order = np.argsort(owner * n + member, kind="stable")
    first = np.flatnonzero(_run_starts(owner[order]))
    center = owner[order[first]]
    return dict(center=center,
                level=np.asarray(hierarchy.level_of, dtype=np.int64)[center],
                c_start=np.append(first, len(order)), member=member[order],
                value=value[order], parent=parent[order])


# ----------------------------------------------------------------------
# Top-level driver (Theorem 4)
# ----------------------------------------------------------------------
def build_approx_clusters(graph: WeightedGraph, k: int,
                          seed: int = 0,
                          eps_override: float = 0.0,
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
        bfs_tree = build_bfs_tree(graph, root=0)
        ledger.add("setup/bfs-tree", bfs_tree.rounds,
                   messages=bfs_tree.messages, words=bfs_tree.messages,
                   seconds=time.perf_counter() - started)
    if hierarchy is None:
        hierarchy = sample_levels(n, params, rng)

    pivots = _compute_pivots(graph, params, hierarchy, rng, bfs_tree,
                             ledger)

    def next_hat(i: int) -> List[float]:
        if i + 1 >= params.k:
            return [INF] * n
        return pivots[i + 1].dist_hat

    cells: List[Cells] = []

    middle = params.middle_level if params.is_odd and params.k > 1 else None
    for i in range(min(params.half_level, params.k)):
        centers = hierarchy.centers_at(i)
        if not centers:
            continue
        budget = params.exploration_budget(i + 1)
        if middle is not None and i == middle:
            cells.append(_build_middle_level(
                graph, i, centers, next_hat(i), budget, params.eps,
                bfs_tree, ledger))
        else:
            cells.append(_build_small_level(
                graph, i, centers, next_hat(i), budget, ledger))

    beta = 0
    if params.half_level <= params.k - 1:
        v_prime = hierarchy.level_set(params.half_level)
        if v_prime:
            pre = _preprocess_large_scales(
                graph, params, v_prime, rng, bfs_tree, ledger)
            beta = pre.beta
            for i in range(params.half_level, params.k):
                centers = hierarchy.centers_at(i)
                if not centers:
                    continue
                cells.append(_build_large_level(
                    graph, i, centers, next_hat(i), params.eps, pre,
                    bfs_tree, ledger))

    started = time.perf_counter()
    system = ApproxClusterSystem(
        params=params, hierarchy=hierarchy, pivots=pivots, ledger=ledger,
        bfs_tree=bfs_tree, beta=beta, **_merge_levels(n, hierarchy, cells))
    system.check_parents()
    ledger.add("assemble/clusters", 0,
               seconds=time.perf_counter() - started)
    return system

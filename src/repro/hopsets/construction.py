"""Path-reporting hopset construction ([EN16a]-style, Theorem 2).

We build the Thorup–Zwick-emulator hopset, the construction [EN16a]'s
superclustering-and-interconnection refines:

1. Sample a level hierarchy ``A_0 = V' ⊇ A_1 ⊇ ... ⊇ A_κ = ∅`` on the
   virtual graph's vertices, each level keeping vertices with probability
   ``m^{-1/κ}`` where ``κ = ceil(1/ρ)``.
2. For every ``u ∈ A_i \\ A_{i+1}`` add hopset edges
   * to its ``(i+1)``-pivot (nearest ``A_{i+1}`` vertex), and
   * to every ``v ∈ A_i`` with ``d(u, v) < d(u, A_{i+1})`` (its *bunch*),
   each weighted by the exact virtual-graph distance and carrying the
   Dijkstra path realizing it (Property 1).

The expected number of edges is ``O(κ · m^{1+1/κ})`` and the classic
analysis gives hopbound ``β = O(κ/ε)^{κ}``-ish; rather than trusting the
constant we *measure* β on the instance (see
:func:`repro.hopsets.verification.measure_hopbound`) and let downstream
phases iterate exactly ``β_measured`` times.  Tests assert the measured
bound stays far below the unaided hop radius.

Round accounting follows Theorem 2's schedule with measured quantities:
every bunch exploration is a bounded Dijkstra whose frontier words are
counted, and virtual-edge traffic is charged via Lemma 1 broadcast.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest.bfs import BFSTree
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import pipelined_rounds
from ..dataclass import dataclass
from ..exceptions import HopsetError, ParameterError
from ..graphs.shortest_paths import INF
from ..graphs.virtual_graph import VirtualGraph
from .hopset import Hopset, HopsetEdge
from .verification import measure_hopbound


@dataclass
class HopsetBuildReport:
    """What the hopset build produced and what it cost."""

    hopset: Hopset
    levels: int
    hierarchy_sizes: List[int]
    rounds: int
    eps: float

    @property
    def num_edges(self) -> int:
        return len(self.hopset)


def _virtual_dijkstra_with_paths(virtual: VirtualGraph, source: int
                                 ) -> Tuple[Dict[int, float],
                                            Dict[int, Optional[int]]]:
    """Dijkstra over the virtual graph, returning distances and parents."""
    dist: Dict[int, float] = {v: INF for v in virtual.vertices()}
    parent: Dict[int, Optional[int]] = {v: None for v in virtual.vertices()}
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in virtual.neighbor_weights(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, parent


def _extract_path(parent: Dict[int, Optional[int]], source: int,
                  target: int) -> Tuple[int, ...]:
    path = [target]
    while path[-1] != source:
        prev = parent[path[-1]]
        if prev is None:
            raise HopsetError(
                f"no path from {source} to {target} in virtual graph")
        path.append(prev)
    path.reverse()
    return tuple(path)


def sample_hierarchy(vertices: Sequence[int], levels: int,
                     rng: random.Random) -> List[List[int]]:
    """Sample ``A_0 ⊇ A_1 ⊇ ... ⊇ A_{levels-1}`` (``A_levels = ∅``).

    Each vertex of ``A_{i-1}`` survives into ``A_i`` independently with
    probability ``m^{-1/levels}``.
    """
    m = max(len(vertices), 2)
    keep_probability = m ** (-1.0 / levels)
    hierarchy: List[List[int]] = [sorted(vertices)]
    for _ in range(1, levels):
        previous = hierarchy[-1]
        nxt = [v for v in previous if rng.random() < keep_probability]
        hierarchy.append(nxt)
    return hierarchy


def build_hopset(virtual: VirtualGraph, eps: float,
                 rho: float = 0.5,
                 rng: Optional[random.Random] = None,
                 bfs_tree: Optional[BFSTree] = None) -> HopsetBuildReport:
    """Build a path-reporting hopset for ``virtual`` (paper Theorem 2).

    Parameters
    ----------
    virtual:
        The virtual graph ``G'`` (e.g. from source detection).
    eps:
        Target stretch slack; used only for β measurement — the TZ
        emulator's edges are exact distances, so smaller ``eps`` simply
        yields a larger measured β.
    rho:
        Controls the number of levels ``κ = max(2, ceil(1/ρ))``; the
        paper picks ``ρ = max(1/k, log log n / sqrt(log n))``.
    rng:
        Source of randomness for the hierarchy (defaults to seeded 0).
    bfs_tree:
        Underlying BFS tree, for the broadcast round charge.

    The instance's actual hopbound is measured and stored on the
    hopset as ``beta_measured``.
    """
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    if not 0 < rho <= 1:
        raise ParameterError(f"rho must be in (0, 1], got {rho}")
    if rng is None:
        rng = random.Random(0)

    vertices = virtual.vertices()
    m = len(vertices)
    hopset = Hopset()
    if m <= 1:
        report = HopsetBuildReport(hopset=hopset, levels=0,
                                   hierarchy_sizes=[m], rounds=0, eps=eps)
        hopset.beta_measured = 1
        return report

    levels = max(2, math.ceil(1.0 / rho))
    hierarchy = sample_hierarchy(vertices, levels, rng)
    level_of: Dict[int, int] = {}
    for i, level_set in enumerate(hierarchy):
        for v in level_set:
            level_of[v] = i  # highest level containing v

    exploration_words = 0
    for u in vertices:
        i = level_of[u]
        dist, parent = _virtual_dijkstra_with_paths(virtual, u)
        next_level = hierarchy[i + 1] if i + 1 < levels else []
        if next_level:
            pivot = min(next_level, key=lambda x: (dist[x], x))
            pivot_dist = dist[pivot]
        else:
            pivot = None
            pivot_dist = INF
        # bunch: same-or-higher level vertices strictly closer than the
        # next-level pivot
        for v in vertices:
            if v == u or level_of[v] < i:
                continue
            if dist[v] < pivot_dist and dist[v] < INF:
                path = _extract_path(parent, u, v)
                hopset.add(HopsetEdge(u, v, dist[v], path))
                exploration_words += len(path)
        if pivot is not None and pivot_dist < INF:
            path = _extract_path(parent, u, pivot)
            hopset.add(HopsetEdge(u, pivot, pivot_dist, path))
            exploration_words += len(path)

    # Round charge (Theorem 2 schedule with measured quantities):
    #   exploration traffic over virtual edges is realized by Lemma-1
    #   broadcasts; κ sampling levels each ship their bunch explorations.
    height = bfs_tree.height if bfs_tree is not None else 0
    rounds = levels * pipelined_rounds(
        2 * exploration_words, DEFAULT_CAPACITY_WORDS, height)

    augmented = hopset.augment(virtual)
    hopset.beta_measured = measure_hopbound(virtual, augmented, eps)
    report = HopsetBuildReport(hopset=hopset, levels=levels,
                               hierarchy_sizes=[len(s) for s in hierarchy],
                               rounds=rounds, eps=eps)
    return report

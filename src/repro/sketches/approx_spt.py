"""Approximate shortest-path tree rooted at a vertex set (Theorem 3).

Implements the paper's Appendix A directly: given ``A ⊆ V`` with
``|A| <= 2 sqrt(n) ln n`` and slack ``eps``, every vertex ``u`` learns

    d_G(u, A) <= d̂(u) <= (1 + eps) d_G(u, A),                       (5)

together with a witness ``ẑ(u) ∈ A`` with ``d_G(u, ẑ(u)) <= d̂(u)``.

Pipeline (Appendix A):

1. sample ``X`` (each vertex w.p. ``1/sqrt(n)``), set ``V' = A ∪ X`` and
   ``B = 4 sqrt(n) ln n``;
2. Theorem-1 source detection from ``V'`` with slack ``eps/2``; its
   estimates form the virtual graph ``G'``;
3. a path-reporting hopset on ``G'`` gives ``G''`` satisfying (13);
4. ``β`` Bellman–Ford iterations over ``G''`` rooted at the *set* ``A``
   (realized by Lemma-1 broadcasts) give ``(d̂(v), ẑ(v))`` for ``v ∈ V'``;
5. every ``u ∈ V`` extends: ``d̂(u) = min_{v∈V'} (d_uv + d̂(v))``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.bfs import BFSTree
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import CostLedger, pipelined_rounds
from ..dataclass import dataclass
from ..exceptions import ParameterError
from ..graphs.shortest_paths import INF
from ..graphs.virtual_graph import VirtualGraph
from ..graphs.weighted_graph import WeightedGraph
from ..hopsets.construction import build_hopset
from .source_detection import (
    SourceDetectionResult,
    build_virtual_graph_from_detection,
    detect_sources,
    extend_over_sources,
)


@dataclass
class ApproxSPTResult:
    """Outcome of the approximate-SPT computation.

    ``dist_hat[u]`` is ``d̂(u)``; ``witness[u]`` is ``ẑ(u) ∈ A`` (None only
    when ``A`` is empty).  ``rounds`` is the total charged cost and
    ``ledger`` its per-phase breakdown.
    """

    roots: List[int]
    dist_hat: List[float]
    witness: List[Optional[int]]
    rounds: int
    ledger: CostLedger
    detection: SourceDetectionResult
    beta: int


def _set_rooted_virtual_bellman_ford(virtual: VirtualGraph,
                                     roots: Sequence[int],
                                     iterations: int,
                                     bfs_tree: Optional[BFSTree]
                                     ) -> tuple:
    """Bellman–Ford over ``G''`` with all of ``roots`` at distance 0.

    Every iteration's fresh ``(vertex, dist, witness)`` updates are
    broadcast (Lemma 1).  Returns (dist, witness, rounds).
    """
    dist: Dict[int, float] = {v: INF for v in virtual.vertices()}
    witness: Dict[int, Optional[int]] = {v: None for v in virtual.vertices()}
    frontier = []
    for r in roots:
        if virtual.contains(r):
            dist[r] = 0.0
            witness[r] = r
            frontier.append(r)
    height = bfs_tree.height if bfs_tree is not None else 0
    rounds = 0
    for _ in range(iterations):
        if not frontier:
            break
        update_words = 3 * len(frontier)
        rounds += 2 * pipelined_rounds(update_words, DEFAULT_CAPACITY_WORDS,
                                       height)
        updates: Dict[int, tuple] = {}
        for u in frontier:
            du = dist[u]
            for v, w in virtual.neighbor_weights(u):
                nd = du + w
                best = updates.get(v)
                if nd < dist[v] and (best is None or nd < best[0]):
                    updates[v] = (nd, witness[u])
        frontier = []
        for v, (nd, z) in updates.items():
            if nd < dist[v]:
                dist[v] = nd
                witness[v] = z
                frontier.append(v)
    return dist, witness, rounds


def _extend_to_all(detection: SourceDetectionResult,
                   dist_vp: Dict[int, float],
                   witness_vp: Dict[int, Optional[int]]
                   ) -> Tuple[List[float], List[Optional[int]]]:
    """Step 5: ``d̂(u) = min_{v∈V'} (d_uv + d̂(v))`` for every ``u``, and
    the witness of the winning ``v`` (the first strict minimum in
    ascending ``V'``): the Lemma-1 extension with one column."""
    sources = detection.sources
    values = np.asarray([dist_vp.get(v, INF) for v in sources],
                        dtype=np.float64).reshape(-1, 1)
    best, row = extend_over_sources(detection.dist, values)
    witness = [None if r < 0 else witness_vp.get(sources[r])
               for r in row[:, 0].tolist()]
    return best[:, 0].tolist(), witness


def approximate_spt(graph: WeightedGraph, roots: Sequence[int], eps: float,
                    rng: Optional[random.Random] = None,
                    bfs_tree: Optional[BFSTree] = None,
                    rho: float = 0.5) -> ApproxSPTResult:
    """Compute a ``(1+eps)``-approximate SPT rooted at the set ``roots``.

    Mirrors Theorem 3; see the module docstring for the pipeline.  The
    returned values satisfy inequality (5), which the tests check against
    exact multi-root Dijkstra.
    """
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    roots = sorted(set(roots))
    if not roots:
        raise ParameterError("roots must be non-empty")
    if rng is None:
        rng = random.Random(0)
    n = graph.num_vertices
    ledger = CostLedger()

    # Step 1: sample X and form V' = A ∪ X, B = 4 sqrt(n) ln n.
    sample_probability = 1.0 / math.sqrt(max(n, 2))
    extra = [v for v in graph.vertices() if rng.random() < sample_probability]
    v_prime = sorted(set(roots) | set(extra))
    hop_bound = min(n - 1, math.ceil(4 * math.sqrt(n) * math.log(max(n, 2))))

    # Step 2: source detection with eps/2 (paper uses eps/2 into (13)).
    detection = detect_sources(graph, v_prime, hop_bound, eps / 2,
                               bfs_tree=bfs_tree)
    ledger.add("spt/source-detection", detection.rounds)
    virtual = build_virtual_graph_from_detection(detection)

    # Step 3: hopset on G' -> G''.
    hopset_report = build_hopset(virtual, eps / 3, rho=rho, rng=rng,
                                 bfs_tree=bfs_tree)
    ledger.add("spt/hopset", hopset_report.rounds)
    augmented = hopset_report.hopset.augment(virtual)
    beta = hopset_report.hopset.beta_measured

    # Step 4: β Bellman–Ford iterations over G'' rooted at the set A.
    dist_vp, witness_vp, bf_rounds = _set_rooted_virtual_bellman_ford(
        augmented, roots, beta, bfs_tree)
    ledger.add("spt/virtual-bellman-ford", bf_rounds)

    # Step 5: extend to all of V via the detection estimates.
    dist_hat, witness = _extend_to_all(detection, dist_vp, witness_vp)
    # the extension itself is local (u already knows d_uv and the
    # broadcast d̂(v) values); broadcasting the V' results costs:
    height = bfs_tree.height if bfs_tree is not None else 0
    extend_rounds = 2 * pipelined_rounds(3 * len(v_prime),
                                         DEFAULT_CAPACITY_WORDS, height)
    ledger.add("spt/extension-broadcast", extend_rounds)

    return ApproxSPTResult(roots=list(roots), dist_hat=dist_hat,
                           witness=witness, rounds=ledger.total_rounds,
                           ledger=ledger, detection=detection, beta=beta)

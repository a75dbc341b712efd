"""Approximate shortest-path tree rooted at a vertex set (Theorem 3).

Implements the paper's Appendix A directly: given ``A ⊆ V`` with
``|A| <= 2 sqrt(n) ln n`` and slack ``eps``, every vertex ``u`` learns

    d_G(u, A) <= d̂(u) <= (1 + eps) d_G(u, A),                       (5)

together with a witness ``ẑ(u) ∈ A`` with ``d_G(u, ẑ(u)) <= d̂(u)``.

Pipeline (Appendix A):

1. sample ``X`` (each vertex w.p. ``1/sqrt(n)``), set ``V' = A ∪ X`` and
   ``B = 4 sqrt(n) ln n``;
2. Theorem-1 source detection from ``V'`` with slack ``eps/2``; its
   estimates form the virtual graph ``G'``, a ``V' × V'`` weight matrix;
3. a path-reporting hopset on ``G'`` gives ``G''`` satisfying (13), the
   same matrix with the hopset's weights written over it;
4. ``β`` Bellman–Ford iterations over ``G''`` rooted at the *set* ``A``
   (realized by Lemma-1 broadcasts) give ``(d̂(v), ẑ(v))`` for ``v ∈ V'``:
   masked min-plus steps over the matrix, a target taking the first
   minimum in ascending frontier order;
5. every ``u ∈ V`` extends: ``d̂(u) = min_{v∈V'} (d_uv + d̂(v))``, one
   sweep over the detection's rows.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..congest.bfs import BFSTree
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import CostLedger, pipelined_rounds
from ..dataclass import dataclass
from ..exceptions import ParameterError
from ..graphs.shortest_paths import INF
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


def _set_rooted_min_plus(augmented: np.ndarray, roots: np.ndarray,
                        iterations: int, height: int) -> tuple:
    """Bellman–Ford over ``G''`` with every root (a ``V'`` index) at
    distance 0: per iteration, one masked min-plus step from the
    vertices that improved in the last one, each target taking the
    first minimum in ascending frontier order.  Every iteration's fresh
    ``(vertex, dist, witness)`` updates are broadcast (Lemma 1).
    Returns ``(dist, witness, rounds)`` over ``V'``, a witness being the
    root's ``V'`` index (``-1`` where unreached)."""
    m = len(augmented)
    dist = np.full(m, INF)
    dist[roots] = 0.0
    witness = np.full(m, -1, dtype=np.int64)
    witness[roots] = roots
    frontier = roots
    rounds = 0
    for _ in range(iterations):
        if frontier.size == 0:
            break
        rounds += 2 * pipelined_rounds(3 * frontier.size,
                                       DEFAULT_CAPACITY_WORDS, height)
        candidates = dist[frontier, None] + augmented[frontier]
        first = candidates.argmin(axis=0)
        best = candidates[first, np.arange(m)]
        improved = best < dist
        witness[improved] = witness[frontier[first[improved]]]
        dist[improved] = best[improved]
        frontier = np.flatnonzero(improved)
    return dist, witness, rounds


def _extend_to_all(detection: SourceDetectionResult,
                   dist_vp: np.ndarray, witness_vp: np.ndarray
                   ) -> Tuple[List[float], List[Optional[int]]]:
    """Step 5: ``d̂(u) = min_{v∈V'} (d_uv + d̂(v))`` for every ``u``, and
    the witness of the winning ``v`` (the first strict minimum in
    ascending ``V'``): the Lemma-1 extension with one column."""
    best, row = extend_over_sources(detection.dist, dist_vp.reshape(-1, 1))
    sources = detection.sources
    witness = [None if r < 0 else sources[witness_vp[r]]
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
    weights = build_virtual_graph_from_detection(detection)

    # Step 3: hopset on G' -> G''.
    hopset_report = build_hopset(weights, eps / 3, rho=rho, rng=rng,
                                 bfs_tree=bfs_tree)
    ledger.add("spt/hopset", hopset_report.rounds)
    beta = hopset_report.hopset.beta_measured

    # Step 4: β Bellman–Ford iterations over G'' rooted at the set A.
    height = bfs_tree.height if bfs_tree is not None else 0
    dist_vp, witness_vp, bf_rounds = _set_rooted_min_plus(
        hopset_report.augmented, np.searchsorted(detection.sources, roots),
        beta, height)
    ledger.add("spt/virtual-bellman-ford", bf_rounds)

    # Step 5: extend to all of V via the detection estimates.
    dist_hat, witness = _extend_to_all(detection, dist_vp, witness_vp)
    # the extension itself is local (u already knows d_uv and the
    # broadcast d̂(v) values); broadcasting the V' results costs:
    extend_rounds = 2 * pipelined_rounds(3 * len(v_prime),
                                         DEFAULT_CAPACITY_WORDS, height)
    ledger.add("spt/extension-broadcast", extend_rounds)

    return ApproxSPTResult(roots=list(roots), dist_hat=dist_hat,
                           witness=witness, rounds=ledger.total_rounds,
                           ledger=ledger, detection=detection, beta=beta)

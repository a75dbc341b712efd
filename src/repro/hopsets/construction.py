"""Path-reporting hopset construction ([EN16a]-style, Theorem 2).

We build the Thorup–Zwick-emulator hopset, the construction [EN16a]'s
superclustering-and-interconnection refines, on ``G'``'s ``V' × V'``
weight matrix:

1. Sample a level hierarchy ``A_0 = V' ⊇ A_1 ⊇ ... ⊇ A_κ = ∅`` on the
   virtual graph's vertices, each level keeping vertices with probability
   ``m^{-1/κ}`` where ``κ = ceil(1/ρ)``.
2. For every ``u ∈ A_i \\ A_{i+1}`` add hopset edges
   * to its ``(i+1)``-pivot (nearest ``A_{i+1}`` vertex, the smallest
     on a tie), and
   * to every ``v ∈ A_i`` with ``d(u, v) < d(u, A_{i+1})`` (its *bunch*),
   each weighted by the exact virtual-graph distance and carrying the
   predecessor walk realizing it (Property 1).

Both rules are masks over one all-pairs pass
(:func:`~repro.hopsets.hopset.shortest_paths`).  An edge found from both
endpoints keeps the lighter weight, and on a tie the one found first in
ascending ``(u, bunch before pivot, v)`` order.

The expected number of edges is ``O(κ · m^{1+1/κ})`` and the classic
analysis gives hopbound ``β = O(κ/ε)^{κ}``-ish; rather than trusting the
constant we *measure* β on the instance (see
:func:`repro.hopsets.verification.measure_hopbound`) and let downstream
phases iterate exactly ``β_measured`` times.

Round accounting follows Theorem 2's schedule with measured quantities:
every bunch exploration ships the words of its path (one per vertex on
it, each found edge counted), and virtual-edge traffic is charged via
Lemma 1 broadcast.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

import numpy as np

from ..congest.bellman_ford import _run_starts
from ..congest.bfs import BFSTree
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import pipelined_rounds
from ..dataclass import dataclass
from ..exceptions import ParameterError
from ..graphs.shortest_paths import INF
from .hopset import Hopset, shortest_paths
from .verification import measure_hopbound


@dataclass
class HopsetBuildReport:
    """What the hopset build produced and what it cost; ``augmented``
    is ``G''``, the weight matrix with the hopset written over it."""

    hopset: Hopset
    augmented: np.ndarray
    levels: int
    rounds: int


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


def build_hopset(weights: np.ndarray, eps: float,
                 rho: float = 0.5,
                 rng: Optional[random.Random] = None,
                 bfs_tree: Optional[BFSTree] = None) -> HopsetBuildReport:
    """Build a path-reporting hopset for ``G'`` (paper Theorem 2).

    Parameters
    ----------
    weights:
        ``G'``'s ``V' × V'`` weight matrix (``INF`` = no edge).
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

    m = len(weights)
    dist, pred = shortest_paths(weights)
    if m <= 1:
        none = np.empty(0, dtype=np.int64)
        return HopsetBuildReport(
            hopset=Hopset(dist, pred, none, none, np.empty(0)),
            augmented=weights.copy(), levels=0, rounds=0)

    levels = max(2, math.ceil(1.0 / rho))
    hierarchy = sample_hierarchy(range(m), levels, rng)
    level_of = np.zeros(m, dtype=np.int64)
    for i, level_set in enumerate(hierarchy):
        level_of[level_set] = i       # highest level containing v
    # the pivot: the nearest vertex a level up, the first on a tie
    upper = np.where(level_of > level_of[:, None], dist, INF)
    pivot = upper.argmin(axis=1)
    pivot_dist = upper[np.arange(m), pivot]
    # the bunch: same-or-higher level, strictly closer than the pivot
    bunch = (level_of >= level_of[:, None]) & (dist < pivot_dist[:, None])
    np.fill_diagonal(bunch, False)
    bunch_u, bunch_v = np.nonzero(bunch)
    reached = np.flatnonzero(pivot_dist < INF)
    u = np.concatenate([bunch_u, reached])
    order = np.argsort(u, kind="stable")      # per u: bunch, then pivot
    u = u[order]
    v = np.concatenate([bunch_v, pivot[reached]])[order]

    # every found edge ships its path: one word per vertex on it
    words = len(u)
    x = v.copy()
    while (walking := x != u).any():
        x[walking] = pred[u[walking], x[walking]]
        words += int(walking.sum())
    height = bfs_tree.height if bfs_tree is not None else 0
    rounds = levels * pipelined_rounds(2 * words, DEFAULT_CAPACITY_WORDS,
                                       height)

    # one edge per endpoint pair: the lightest, the first found on a tie
    key = np.minimum(u, v) * m + np.maximum(u, v)
    weight = dist[u, v]
    order = np.lexsort((np.arange(len(u)), weight, key))
    keep = order[_run_starts(key[order])]
    hopset = Hopset(dist, pred, u[keep], v[keep], weight[keep])
    augmented = weights.copy()
    augmented[hopset.u, hopset.v] = hopset.weight
    augmented[hopset.v, hopset.u] = hopset.weight
    hopset.beta_measured = measure_hopbound(dist, augmented, eps)
    return HopsetBuildReport(hopset=hopset, augmented=augmented,
                             levels=levels, rounds=rounds)

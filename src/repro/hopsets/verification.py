"""Hopset verification: Definition 1, Property 1, and β measurement.

The library never *assumes* an analytic hopbound: after building a hopset
we measure, per instance, the smallest ``β`` such that

    d^(β)_{G''}(u, v) <= (1 + eps) d_{G'}(u, v)   for all u, v,

and downstream phases iterate exactly that many times.  (Phase 1 of the
cluster construction is a ``β``-iteration Bellman–Ford over ``G''`` —
using a measured β keeps it both correct and tight.)  Everything here
is min-plus products over the ``V' × V'`` matrices.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import HopsetError
from ..graphs.shortest_paths import INF
from .hopset import Hopset, hop_bounded, min_plus, shortest_paths


def measure_hopbound(dist: np.ndarray, augmented: np.ndarray,
                     eps: float) -> int:
    """Smallest β with ``d^(β)_augmented <= (1+eps) * dist`` on every
    pair that ``dist`` — ``G'``'s all-pairs distances — reaches.

    Synchronous min-plus hops over ``augmented`` from the identity,
    stopping as soon as every pair is within ``(1+eps)``; a global
    read of ``G'`` a CONGEST network does not make
    (``core/README.md``).
    """
    if augmented.shape != dist.shape:
        raise HopsetError("augmented graph must share the base vertex set")
    m = len(dist)
    if m <= 1:
        return 1
    pairs = dist < INF
    np.fill_diagonal(pairs, False)
    target = (1.0 + eps) * dist[pairs] + 1e-9
    current = hop_bounded(augmented, 0)
    for beta in range(1, m + 1):
        current = np.minimum(current, min_plus(current, augmented))
        if (current[pairs] <= target).all():
            return beta
    raise HopsetError(
        f"hopbound not reached within {m} iterations; "
        "the hopset likely violates Definition 1")


def verify_hopset_property(weights: np.ndarray, augmented: np.ndarray,
                           beta: int, eps: float) -> bool:
    """Check Definition 1 for ``G'`` = ``weights``, ``G''`` =
    ``augmented`` and the given ``(beta, eps)`` pair."""
    exact = shortest_paths(weights)[0]
    full = shortest_paths(augmented)[0]
    bounded = hop_bounded(augmented, beta)
    pairs = exact < INF
    np.fill_diagonal(pairs, False)
    # d_G <= d_H (hopset edges must dominate); d^(beta)_H <= (1+eps) d_G
    return bool((full[pairs] >= exact[pairs] - 1e-9).all()
                and (bounded[pairs] <= (1.0 + eps) * exact[pairs]
                     + 1e-9).all())


def verify_path_reporting(weights: np.ndarray, hopset: Hopset) -> bool:
    """Check Property 1: every edge's path runs over edges of ``G'`` and
    its length equals the edge weight."""
    for e in range(len(hopset)):
        path = hopset.path(e)
        steps = weights[path[:-1], path[1:]]
        if not (steps < INF).all():
            return False
        total = sum(steps.tolist())
        weight = float(hopset.weight[e])
        if abs(total - weight) > 1e-9 * max(1.0, weight):
            return False
    return True

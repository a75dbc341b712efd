"""The virtual plane's matrices and the hopset over them (paper,
Definition 1 and Property 1).

``G'`` lives on ``V' = A_{ceil(k/2)}``, which Lemma 1 makes global
knowledge, so it is a float64 ``V' × V'`` weight matrix: ``W[a, b]``
is the virtual edge between the ``a``-th and ``b``-th vertex of ``V'``
(ascending), ``INF`` where there is none, the diagonal included.
``G''`` is the same matrix with the hopset's weights written over it.

A ``(beta, eps)``-hopset for ``G'`` is an edge set ``F`` such that in
``H = G' ∪ F``:

    d_G'(u,v) <= d_H(u,v) <= d^(beta)_H(u,v) <= (1+eps) d_G'(u,v).   (4)

The paper needs it **path-reporting** (Property 1): every hopset edge
``(u, v)`` of weight ``b`` stands for a path ``P`` of ``G'`` of length
exactly ``b``, and every vertex on ``P`` knows its distances to both
endpoints and its neighbours on ``P``.  Here every edge's weight is the
all-pairs distance ``D[u, v]``, its path is the predecessor walk of
row ``u`` of ``P``, and the Property-1 prefix sums are ``D[u, path]``.

:func:`shortest_paths` is that all-pairs pass: a row-wise min-plus of
left-fold sums ``D[s, u] + W[u, v]`` run to its fixed point, so every
distance is the float a Dijkstra from ``s`` sums, and ``P[s, v]`` is
the first ``u`` in ascending ``(D[s, u], u)`` order — Dijkstra's pop
order — that attains ``D[s, v]``: the parent that Dijkstra, updating
only on a strict improvement, keeps.  Every product is chunked by
source rows so its ``rows × m × m`` candidate cube stays under
:data:`_CUBE_CELLS` cells.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..dataclass import dataclass
from ..graphs.shortest_paths import INF

#: Ceiling on the cells of one chunk's ``rows × m × m`` min-plus cube
#: (2 MB of float64).
_CUBE_CELLS = 1 << 18


def _row_chunks(rows: int, m: int):
    step = max(1, _CUBE_CELLS // max(m * m, 1))
    return ((lo, min(lo + step, rows)) for lo in range(0, rows, step))


def min_plus(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``out[s, v] = min_u left[s, u] + right[u, v]``."""
    out = np.empty((left.shape[0], right.shape[1]))
    for lo, hi in _row_chunks(left.shape[0], right.shape[0]):
        np.min(left[lo:hi, :, None] + right, axis=1, out=out[lo:hi])
    return out


def hop_bounded(weights: np.ndarray, hops: int) -> np.ndarray:
    """``d^(hops)`` between every pair: synchronous min-plus hops from
    the identity (0 on the diagonal, ``INF`` elsewhere)."""
    dist = np.full(weights.shape, INF)
    np.fill_diagonal(dist, 0.0)
    for _ in range(hops):
        dist = np.minimum(dist, min_plus(dist, weights))
    return dist


def shortest_paths(weights: np.ndarray):
    """All-pairs distances ``D`` and predecessors ``P`` of the virtual
    graph with weight matrix ``weights``; ``P`` is ``-1`` on the
    diagonal and where ``D`` is ``INF`` (module docstring)."""
    m = len(weights)
    dist = hop_bounded(weights, 0)
    while True:
        step = np.minimum(dist, min_plus(dist, weights))
        if np.array_equal(step, dist):
            break
        dist = step
    pred = np.full((m, m), -1, dtype=np.int64)
    for lo, hi in _row_chunks(m, m):
        row = dist[lo:hi]
        order = np.argsort(row, axis=1, kind="stable")
        # hit[s, j, v]: the j-th vertex of s's pop order attains D[s, v]
        hit = (np.take_along_axis(row, order, 1)[:, :, None]
               + weights[order]) == row[:, None, :]
        hit &= row[:, None, :] < INF
        first = hit.argmax(axis=1)
        pred[lo:hi] = np.where(hit.any(axis=1),
                               np.take_along_axis(order, first, 1), -1)
    return dist, pred


@dataclass(eq=False)
class Hopset:
    """A path-reporting hopset as columns over ``V'`` indices.

    Edge ``e`` joins ``u[e]`` and ``v[e]`` with ``weight[e] = dist[u[e],
    v[e]]``; ``u[e]`` is the endpoint whose row found it, and its path
    is that row's predecessor walk, :meth:`path`, along which the
    Property-1 prefix sums are ``dist[u[e], path]``.  Columns are
    sorted by the edge's
    sorted endpoints.  ``dist`` and ``pred`` are ``G'``'s
    :func:`shortest_paths`; ``beta_measured`` is the hopbound the build
    measured on the instance.
    """

    dist: np.ndarray
    pred: np.ndarray
    u: np.ndarray
    v: np.ndarray
    weight: np.ndarray
    beta_measured: int = 1

    def __len__(self) -> int:
        return len(self.u)

    def path(self, e: int) -> List[int]:
        """Edge ``e``'s path in ``G'``, from ``u[e]`` to ``v[e]``."""
        source, x = int(self.u[e]), int(self.v[e])
        walk = [x]
        while x != source:
            x = int(self.pred[source, x])
            walk.append(x)
        return walk[::-1]

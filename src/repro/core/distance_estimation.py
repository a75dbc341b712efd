"""Distance estimation / sketching (paper, Section 5 / Theorem 6).

Every vertex ``v`` gets a *sketch* of ``O(n^{1/k} log n)`` words:

* ``(u, b_v(u))`` for every center ``u`` with ``v ∈ C̃(u)``, and
* ``(ẑ_i(v), d̂_i(v))`` for every level ``i = 0..k-1``.

The sketches of all vertices are the six columns of
:class:`~.compiled.CompiledEstimation`, built here straight from the
cluster system with array operations: ``sk_pivot`` / ``sk_pivot_d``
hold the ``k`` pivot entries of every vertex, row ``v * k + i``;
``cv_center`` / ``cv_value`` hold the memberships ``(u, b_v(u))``
sorted by member, then center, and ``cv_start`` cuts them into the
vertices' slices; ``sketch_words`` is ``1 + 2 |cv slice| + 2k`` per
vertex.  :meth:`DistanceEstimation.compile` wraps the columns without
copying them.

Given two sketches — and nothing else — **Algorithm 2 (Dist)** returns an
estimate with stretch ``2k - 1 + o(1)`` in ``O(k)`` time:

    i ← 0;  w ← u
    while v ∉ C̃(w):  i ← i+1;  (u,v) ← (v,u);  w ← ẑ_i(u)
    return d̂_i(u) + b_v(w)

It has one body, in :class:`~.compiled.CompiledEstimation` (behind its
``query`` and ``estimate_many``); the queries here delegate to it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List

import numpy as np

from ..congest.metrics import CostLedger
from ..graphs.weighted_graph import WeightedGraph
from .approx_clusters import ApproxClusterSystem
from .compiled import CompiledEstimation, QueryResult
from .params import SchemeParams


class DistanceEstimation:
    """The assembled sketching scheme (Theorem 6): the sketch columns
    and the ledger of the construction that built them."""

    def __init__(self, graph: WeightedGraph, params: SchemeParams,
                 columns: Dict[str, np.ndarray],
                 ledger: CostLedger,
                 clusters: ApproxClusterSystem) -> None:
        self.graph = graph
        self.params = params
        self.columns = columns
        self.ledger = ledger
        self.clusters = clusters

    @property
    def construction_rounds(self) -> int:
        return self.ledger.total_rounds

    def max_sketch_words(self) -> int:
        return self._served.max_sketch_words()

    def average_sketch_words(self) -> float:
        return self._served.average_sketch_words()

    # ------------------------------------------------------------------
    def compile(self) -> CompiledEstimation:
        """The serve-side artifact over the same column arrays."""
        meta = {
            "n": self.graph.num_vertices,
            "k": self.params.k,
            "eps": self.params.eps,
            "construction_rounds": self.construction_rounds,
        }
        return CompiledEstimation(meta, self.columns)

    @cached_property
    def _served(self) -> CompiledEstimation:
        return self.compile()

    def query(self, u: int, v: int) -> QueryResult:
        """Algorithm 2: estimate ``d_G(u, v)`` from the two sketches."""
        return self._served.query(u, v)

    def estimate(self, u: int, v: int) -> float:
        """Just the distance estimate."""
        return self.query(u, v).estimate

    def estimate_many(self, pairs) -> List[float]:
        """Batch Algorithm 2, estimates in input order."""
        return self._served.estimate_many(pairs)

    def __repr__(self) -> str:
        return (f"DistanceEstimation(n={self.graph.num_vertices}, "
                f"k={self.params.k})")


def estimation_from_clusters(graph: WeightedGraph,
                             clusters: ApproxClusterSystem
                             ) -> DistanceEstimation:
    """The sketches of an existing cluster system (shared with the
    routing build).

    All information is already held locally by each vertex at the end
    of the Section-3 construction, so this step costs no extra rounds.
    """
    n = graph.num_vertices
    k = clusters.params.k
    ledger = CostLedger()
    ledger.merge(clusters.ledger)
    # (k, n) per-level rows, transposed to row v * k + i; no pivot is -1
    sk_pivot = np.array([level.pivot for level in clusters.pivots],
                        dtype=object)
    sk_pivot[np.equal(sk_pivot, None)] = -1
    sk_pivot_d = np.array([level.dist_hat for level in clusters.pivots],
                          dtype=np.float64)
    # the memberships by member, then center: one stable sort of the
    # (center, member)-sorted cluster columns
    order = np.argsort(clusters.member, kind="stable")
    counts = clusters.membership_counts()
    cv_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=cv_start[1:])
    columns = {
        "sk_pivot": sk_pivot.T.ravel().astype(np.int64),
        "sk_pivot_d": sk_pivot_d.T.ravel(),
        "cv_start": cv_start,
        "cv_center": clusters.cell_centers()[order],
        "cv_value": clusters.value[order],
        "sketch_words": 1 + 2 * counts + 2 * k,
    }
    return DistanceEstimation(graph=graph, params=clusters.params,
                              columns=columns, ledger=ledger,
                              clusters=clusters)

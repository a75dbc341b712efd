"""Distance estimation / sketching (paper, Section 5 / Theorem 6).

Every vertex ``v`` gets a *sketch* of ``O(n^{1/k} log n)`` words:

* ``(u, b_v(u))`` for every center ``u`` with ``v ∈ C̃(u)``, and
* ``(ẑ_i(v), d̂_i(v))`` for every level ``i = 0..k-1``.

Given two sketches — and nothing else — **Algorithm 2 (Dist)** returns an
estimate with stretch ``2k - 1 + o(1)`` in ``O(k)`` time:

    i ← 0;  w ← u
    while v ∉ C̃(w):  i ← i+1;  (u,v) ← (v,u);  w ← ẑ_i(u)
    return d̂_i(u) + b_v(w)

The membership test and both summands are read from the two sketches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..congest.metrics import CostLedger
from ..dataclass import dataclass
from ..exceptions import ParameterError, SchemeError
from ..graphs.weighted_graph import WeightedGraph
from .approx_clusters import ApproxClusterSystem
from .params import SchemeParams


@dataclass
class Sketch:
    """One vertex's sketch."""

    vertex: int
    cluster_values: Dict[int, float]   # center u -> b_v(u), v ∈ C̃(u)
    pivots: List[Tuple[Optional[int], float]]  # (ẑ_i(v), d̂_i(v)) per i

    @property
    def words(self) -> int:
        return 1 + 2 * len(self.cluster_values) + 2 * len(self.pivots)

    def contains_center(self, center: int) -> bool:
        return center in self.cluster_values


@dataclass
class QueryResult:
    """Outcome of one Algorithm-2 query."""

    u: int
    v: int
    estimate: float
    iterations: int        # while-loop iterations (<= k-1)
    final_center: int


class DistanceEstimation:
    """The assembled sketching scheme (Theorem 6)."""

    def __init__(self, graph: WeightedGraph, params: SchemeParams,
                 sketches: Dict[int, Sketch],
                 ledger: CostLedger,
                 clusters: Optional[ApproxClusterSystem] = None) -> None:
        self.graph = graph
        self.params = params
        self.sketches = sketches
        self.ledger = ledger
        self.clusters = clusters
        self._compiled = None  # lazy CompiledEstimation for batch serving

    @property
    def construction_rounds(self) -> int:
        return self.ledger.total_rounds

    def sketch_of(self, v: int) -> Sketch:
        return self.sketches[v]

    def max_sketch_words(self) -> int:
        return max(s.words for s in self.sketches.values())

    def average_sketch_words(self) -> float:
        return sum(s.words for s in self.sketches.values()) / \
            len(self.sketches)

    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> QueryResult:
        """Algorithm 2: estimate ``d_G(u, v)`` from the two sketches."""
        n = self.graph.num_vertices
        if not 0 <= u < n or not 0 <= v < n:
            raise ParameterError(f"query endpoints ({u}, {v}) out of range")
        if u == v:
            return QueryResult(u=u, v=v, estimate=0.0, iterations=0,
                               final_center=u)
        sketch_u = self.sketches[u]
        sketch_v = self.sketches[v]
        i = 0
        w = u
        while not sketch_v.contains_center(w):
            i += 1
            if i >= self.params.k:
                raise SchemeError(
                    f"Dist({u}, {v}) ran out of levels; top-level cluster "
                    "should span V")
            sketch_u, sketch_v = sketch_v, sketch_u
            w = sketch_u.pivots[i][0]
            if w is None:
                raise SchemeError(f"missing level-{i} pivot in sketch")
        estimate = sketch_u.pivots[i][1] + sketch_v.cluster_values[w]
        return QueryResult(u=u, v=v, estimate=estimate, iterations=i,
                           final_center=w)

    def estimate(self, u: int, v: int) -> float:
        """Just the distance estimate."""
        return self.query(u, v).estimate

    def compile(self):
        """Flatten into a serve-side :class:`CompiledEstimation`."""
        from .compiled import CompiledEstimation
        return CompiledEstimation.from_estimation(self)

    def estimate_many(self, pairs) -> List[float]:
        """Batch Algorithm 2 via the compiled path (cached compile)."""
        if self._compiled is None:
            self._compiled = self.compile()
        return self._compiled.estimate_many(pairs)

    def __repr__(self) -> str:
        return (f"DistanceEstimation(n={self.graph.num_vertices}, "
                f"k={self.params.k})")


def sketches_from_clusters(clusters: ApproxClusterSystem
                           ) -> Dict[int, Sketch]:
    """Assemble per-vertex sketches out of an approximate cluster system.

    All information is already held locally by each vertex at the end of
    the Section-3 construction, so this step costs no extra rounds.
    """
    n = len(clusters.pivots[0].dist_hat)
    k = clusters.params.k
    cluster_values: List[Dict[int, float]] = [dict() for _ in range(n)]
    for center, cluster in clusters.clusters.items():
        for v, b in cluster.value.items():
            cluster_values[v][center] = b
    sketches: Dict[int, Sketch] = {}
    for v in range(n):
        pivots = [(clusters.pivot_of(v, i), clusters.pivot_distance(v, i))
                  for i in range(k)]
        sketches[v] = Sketch(vertex=v, cluster_values=cluster_values[v],
                             pivots=pivots)
    return sketches


def estimation_from_clusters(graph: WeightedGraph,
                             clusters: ApproxClusterSystem
                             ) -> DistanceEstimation:
    """Reuse an existing cluster system (shared with the routing build)."""
    ledger = CostLedger()
    ledger.merge(clusters.ledger)
    return DistanceEstimation(graph=graph, params=clusters.params,
                              sketches=sketches_from_clusters(clusters),
                              ledger=ledger, clusters=clusters)

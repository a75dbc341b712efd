"""Thorup–Zwick approximate distance oracle ([TZ05], stretch 2k-1).

The sequential sketching baseline the paper's Theorem 6 matches (up to
``o(1)``): every vertex stores its *bunch*

    B(v) = { u ∈ A_i \\ A_{i+1} : d(v, u) < d(v, A_{i+1}), i < k }

(equivalently: ``u ∈ B(v) ⇔ v ∈ C(u)``), plus its pivots.  The query
walks levels exactly like Algorithm 2 but with exact distances:

    w ← u; i ← 0
    while w ∉ B(v): i ← i+1; (u,v) ← (v,u); w ← z_i(u)
    return d(u, w) + d(w, v)
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..core.clusters import compute_exact_clusters
from ..core.params import SchemeParams
from ..core.sampling import LevelHierarchy, sample_levels
from ..dataclass import dataclass
from ..exceptions import ParameterError, SchemeError
from ..graphs.weighted_graph import WeightedGraph


@dataclass
class OracleSketch:
    """One vertex's [TZ05] data: bunch distances + pivots."""

    vertex: int
    bunch: Dict[int, float]                   # u -> d(v, u), u ∈ B(v)
    pivots: List[Tuple[Optional[int], float]]  # (z_i(v), d(v, A_i))

    @property
    def words(self) -> int:
        return 1 + 2 * len(self.bunch) + 2 * len(self.pivots)


class TZOracle:
    """The assembled [TZ05] distance oracle."""

    def __init__(self, graph: WeightedGraph, params: SchemeParams,
                 sketches: Dict[int, OracleSketch]) -> None:
        self.graph = graph
        self.params = params
        self.sketches = sketches

    def max_sketch_words(self) -> int:
        return max(s.words for s in self.sketches.values())

    def average_sketch_words(self) -> float:
        return sum(s.words for s in self.sketches.values()) / \
            len(self.sketches)

    def query(self, u: int, v: int) -> float:
        """Stretch-(2k-1) estimate from the two sketches."""
        n = self.graph.num_vertices
        if not 0 <= u < n or not 0 <= v < n:
            raise ParameterError(f"query endpoints ({u}, {v}) out of range")
        if u == v:
            return 0.0
        sketch_u = self.sketches[u]
        sketch_v = self.sketches[v]
        w = u
        i = 0
        while w not in sketch_v.bunch:
            i += 1
            if i >= self.params.k:
                raise SchemeError("TZ oracle ran out of levels")
            sketch_u, sketch_v = sketch_v, sketch_u
            w = sketch_u.pivots[i][0]
            if w is None:
                raise SchemeError(f"missing level-{i} pivot")
        return sketch_u.pivots[i][1] + sketch_v.bunch[w]

    def __repr__(self) -> str:
        return f"TZOracle(n={self.graph.num_vertices}, k={self.params.k})"


def build_tz_oracle(graph: WeightedGraph, k: int, seed: int = 0,
                    hierarchy: Optional[LevelHierarchy] = None
                    ) -> TZOracle:
    """Build the [TZ05] oracle (centralized, exact)."""
    graph.require_connected()
    n = graph.num_vertices
    params = SchemeParams(n=n, k=k)
    if hierarchy is None:
        hierarchy = sample_levels(n, params, random.Random(seed))
    system = compute_exact_clusters(graph, hierarchy)

    bunches: List[Dict[int, float]] = [dict() for _ in range(n)]
    for center, cluster in system.clusters.items():
        for v, d in cluster.dist.items():
            bunches[v][center] = d
    sketches = {
        v: OracleSketch(
            vertex=v, bunch=bunches[v],
            pivots=[(system.pivots[i].pivot[v], system.pivots[i].dist[v])
                    for i in range(k)])
        for v in graph.vertices()}
    return TZOracle(graph=graph, params=params, sketches=sketches)

"""Dict-based oracles for the Bellman–Ford explorations.

The original per-node loops of :func:`repro.congest.nearest_source_exploration`
and :func:`repro.congest.multi_source_exploration`, kept as the semantic
references for the differential grids
(``tests/congest/test_engine_equivalence.py``,
``tests/congest/test_exploration_grid.py``,
``tests/core/test_cluster_equivalence.py``).  Both process their
frontier in sorted vertex order, so equal-distance ties resolve exactly
as in the CSR kernels.  The join decision here is an opaque callback
(:data:`JoinPredicate`); production hands the kernel the declarative
:class:`~repro.congest.JoinRule`, whose :meth:`~repro.congest.JoinRule.accepts`
is such a callback.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.bellman_ford import (
    _ESTIMATE_WORDS,
    ExplorationResult,
    NearestSourceResult,
)
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import congestion_rounds
from ..graphs.shortest_paths import INF
from ..graphs.weighted_graph import WeightedGraph

#: join(vertex, source, candidate_distance) -> bool.  Models the local
#: decision rule a vertex applies on receiving an estimate, so it MUST
#: be a pure function of its arguments: it is evaluated once per
#: improving (vertex, source) winner.  It must also be *antitone in
#: the distance* (once a candidate is rejected, every farther candidate
#: is too) — true of the paper's threshold rules (Eq. (11)/(14)) and
#: what lets the kernel filter candidates before taking each group's
#: minimum.
JoinPredicate = Callable[[int, int, float], bool]


def nearest_source_exploration_reference(graph: WeightedGraph,
                                         sources: Sequence[int],
                                         iterations: int
                                         ) -> NearestSourceResult:
    """Dict-based oracle for :func:`repro.congest.nearest_source_exploration`.

    The frontier is processed in sorted vertex order so equal-distance
    ties resolve deterministically (and identically to the kernel).
    """
    n = graph.num_vertices
    dist: List[float] = [INF] * n
    source_of: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    for s in sources:
        dist[s] = 0
        source_of[s] = s
    frontier = set(sources)
    per_iter_words: List[int] = []
    executed = 0
    for _ in range(iterations):
        if not frontier:
            break
        executed += 1
        per_iter_words.append(_ESTIMATE_WORDS if frontier else 0)
        updates: Dict[int, Tuple[float, int, int]] = {}
        for u in sorted(frontier):
            du = dist[u]
            su = source_of[u]
            assert su is not None
            for v, weight in graph.neighbor_weights(u):
                nd = du + weight
                best = updates.get(v)
                if nd < dist[v] and (best is None or nd < best[0]):
                    updates[v] = (nd, su, u)
        frontier = set()
        for v, (nd, s, via) in updates.items():
            if nd < dist[v]:
                dist[v] = nd
                source_of[v] = s
                parent[v] = via
                frontier.add(v)
    rounds = congestion_rounds(per_iter_words, DEFAULT_CAPACITY_WORDS)
    return NearestSourceResult(dist=dist, source_of=source_of,
                               parent=parent, iterations=executed,
                               rounds=rounds)


def multi_source_exploration_reference(graph: WeightedGraph,
                                       sources: Sequence[int],
                                       iterations: int,
                                       join: JoinPredicate
                                       ) -> ExplorationResult:
    """Dict-based oracle for :func:`repro.congest.multi_source_exploration`.

    The original setdefault-heavy loop; frontier and update application
    run in sorted vertex order so tie-breaking matches the kernel.
    """
    n = graph.num_vertices
    dist: List[Dict[int, float]] = [dict() for _ in range(n)]
    parent: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    frontier: Dict[int, List[int]] = {}
    for s in sources:
        dist[s][s] = 0.0
        parent[s][s] = None
        frontier.setdefault(s, []).append(s)
    per_iter_words: List[int] = []
    executed = 0
    max_live = 0
    for _ in range(iterations):
        if not frontier:
            break
        executed += 1
        congestion = max(len(updated) for updated in frontier.values())
        per_iter_words.append(congestion * _ESTIMATE_WORDS)
        updates: Dict[int, Dict[int, Tuple[float, int]]] = {}
        for u, updated_sources in sorted(frontier.items()):
            du = dist[u]
            for v, weight in graph.neighbor_weights(u):
                bucket = updates.setdefault(v, {})
                for s in updated_sources:
                    nd = du[s] + weight
                    best = bucket.get(s)
                    if best is None or nd < best[0]:
                        bucket[s] = (nd, u)
        frontier = {}
        for v, bucket in sorted(updates.items()):
            changed: List[int] = []
            for s, (nd, via) in bucket.items():
                current = dist[v].get(s, INF)
                if nd < current and join(v, s, nd):
                    dist[v][s] = nd
                    parent[v][s] = via
                    changed.append(s)
            if changed:
                frontier[v] = changed
            if len(dist[v]) > max_live:
                max_live = len(dist[v])
    rounds = congestion_rounds(per_iter_words, DEFAULT_CAPACITY_WORDS)
    # the columns with one sort; the oracle's own dicts stay the views,
    # so a comparison with the kernel's views compares with them
    cells = sorted((s, v, d, -1 if parent[v][s] is None else parent[v][s])
                   for v, row in enumerate(dist) for s, d in row.items())
    result = ExplorationResult(
        n, *(np.array([cell[i] for cell in cells], dtype=dtype)
             for i, dtype in enumerate((np.int64, np.int64, np.float64,
                                        np.int64))),
        iterations=executed, rounds=rounds, max_estimates_per_node=max_live)
    result.__dict__.update(dist=dist, parent=parent)
    return result

"""Distributed Bellman–Ford explorations with congestion accounting.

Three variants back the paper's construction:

* :func:`nearest_source_exploration` — multi-root BFS/Bellman–Ford where
  every node keeps only its *nearest* root (used for exact pivots,
  Section 3.1): each node relays at most one estimate per iteration, so an
  iteration costs O(1) rounds.
* :func:`multi_source_exploration` — independent per-source explorations
  with a *join predicate* (used for cluster growing, Sections 3.2/3.3):
  a node stores and relays an estimate for source ``u`` only while the
  predicate holds (Eq. (11)/(14)).  Congestion — the number of distinct
  live estimates a node must push over one link in one iteration — is
  measured, and the iteration is charged ``ceil(words / capacity)`` rounds
  exactly as the paper's pipelining argument schedules it.
* :func:`virtual_multi_source_exploration` — the same, but over a virtual
  graph whose "links" are realized by global broadcast (Lemma 1): every
  iteration's updates are convergecast to a BFS-tree root and broadcast
  back, costing ``O(M + D)`` measured rounds.

All variants run round-by-round over explicit per-node state, so their
outputs are exactly what the message-passing execution would compute.

Like the CONGEST round engine, the two physical-graph explorations ship
in two implementations: the original dict-based loops live on as
``nearest_source_exploration_reference`` /
``multi_source_exploration_reference`` (the semantic oracles), while
the public names run a **batched flat-array path** — CSR/snapshot
adjacency (no per-vertex generator dispatch), candidate arrays with a
touched-list instead of ``setdefault`` churn, and sorted frontiers.

The join decision is the declarative :class:`JoinRule` — a per-vertex
threshold plan covering every rule the paper actually applies (Eq. (11),
the middle-scale pivot-distance filter, Eq. (14)/(15)) — which the dense
kernel evaluates as a masked vector compare fused into the scatter-min
relaxation and the bucketed kernel as an inline comparison.  The one
selection between them is by size: the dense kernel holds a
``|sources| × n`` distance matrix, so past :data:`_DENSE_CELL_LIMIT`
cells :func:`multi_source_exploration` takes the bucketed kernel
(chunking the dense one is still open).  numpy is required; the only
other size-based selection is the dense plane's parent walk below
``_VECTOR_MIN_PAIRS`` (:mod:`repro.core.dense`).  Only the
``_reference`` oracles and the (tiny) virtual-graph exploration still
take an opaque callback (:data:`JoinPredicate`).

One deliberate semantic pin, applied to *both* implementations:
frontiers are processed in sorted vertex order (the originals iterated
a ``set``/dict), so equal-distance ties resolve deterministically and
identically across the pair.  Distances, frontier membership,
iteration and round counts were already order-independent; only
``source_of``/``parent`` ties could differ, and no seeded workload in
the suite observes a change.  The differential harness
(``tests/congest/test_engine_equivalence.py``) asserts every result
field matches exactly between oracle and batched path.  The
virtual-graph variant stays dict-based: its instances are tiny
(``|A_{ceil(k/2)}|`` vertices) and its cost is dominated by the
Lemma-1 broadcast accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..graphs.csr import _gather_edge_indices, csr_view, frontier_neighbors
from ..graphs.shortest_paths import INF
from ..graphs.virtual_graph import VirtualGraph
from ..graphs.weighted_graph import WeightedGraph
from .bfs import BFSTree
from .metrics import congestion_rounds, pipelined_rounds

#: join(vertex, source, candidate_distance) -> bool.  Models the local
#: decision rule a vertex applies on receiving an estimate, so it MUST
#: be a pure function of its arguments: it is evaluated once per
#: improving (vertex, source) winner, but the order of those calls
#: across pairs is an implementation detail that differs between the
#: execution paths (the differential guarantees below are stated for
#: pure predicates, which is all the paper's join rules are).  It must
#: also be *antitone in the distance* (once a candidate is rejected,
#: every farther candidate is too) — true of the paper's threshold
#: rules (Eq. (11)/(14)) and what lets the dense kernel filter
#: candidates before taking each group's minimum.
JoinPredicate = Callable[[int, int, float], bool]


@dataclass(frozen=True)
class JoinRule:
    """Declarative join plan: accept ``(v, s, d)`` iff ``d`` beats a
    per-vertex threshold.

    Every join rule the paper's cluster growing applies has exactly
    this shape — rule (11) compares against ``d_G(v, A_{i+1})``, the
    middle scale against the exact ``(k+1)/2``-pivot distance, rules
    (14)/(15) against scaled pivot budgets on the virtual graphs — so
    instead of an opaque :data:`JoinPredicate` closure, callers hand
    the exploration the *description*: a ``threshold`` array indexed by
    vertex (``INF`` entries always accept) and a ``strict`` flag (``d <
    threshold[v]`` when set, ``d <= threshold[v]`` otherwise; every
    paper rule is strict).  The dense kernel evaluates the rule as one
    masked vector compare fused into the scatter-min relaxation; the
    bucketed kernel evaluates the same comparison inline.  A rule is by
    construction a pure, distance-antitone predicate, so
    :meth:`accepts` is a valid :data:`JoinPredicate` for the oracles.
    """

    threshold: Sequence[float]
    strict: bool = True

    def accepts(self, v: int, s: int, d: float) -> bool:
        """Scalar evaluation (the semantics the arrays implement)."""
        budget = self.threshold[v]
        return d < budget if self.strict else d <= budget


#: Words per (source, distance) estimate on the wire.
_ESTIMATE_WORDS = 2

#: Ceiling on ``|sources| * n`` cells before the dense kernel's distance
#: and parent matrices stop being worth their memory.
_DENSE_CELL_LIMIT = 1 << 22


def _flat_adjacency(graph: WeightedGraph
                    ) -> Tuple[List[int], List[int], List[int]]:
    """CSR adjacency ``(starts, neighbors, weights)`` as plain lists.

    Served from the graph's cached :func:`csr_view` (same neighbor
    order by that view's contract), converted to lists because the
    scalar exploration loops below index them far faster than numpy
    arrays.  The triplet is cached on the graph (``_flat_cache``) keyed
    by the mutation ``version`` — exactly the CSR view's own
    invalidation contract — so one build's many exploration calls share
    a single conversion.  The cached lists are *shared*: callers must
    treat them as read-only.
    """
    cache = graph._flat_cache
    version = graph.version
    if cache is not None and cache[0] == version:
        return cache[1]
    view = csr_view(graph)
    flat = (view.indptr.tolist(), view.indices.tolist(),
            view.weights.tolist())
    graph._flat_cache = (version, flat)
    return flat


@dataclass
class NearestSourceResult:
    """Outcome of :func:`nearest_source_exploration`."""

    dist: List[float]
    source_of: List[Optional[int]]
    parent: List[Optional[int]]
    iterations: int
    rounds: int


def nearest_source_exploration_reference(graph: WeightedGraph,
                                         sources: Sequence[int],
                                         iterations: int,
                                         capacity_words: int = 2
                                         ) -> NearestSourceResult:
    """Dict-based oracle for :func:`nearest_source_exploration`.

    The original per-node loop, kept as the semantic reference for the
    differential harness.  The frontier is processed in sorted vertex
    order so equal-distance ties resolve deterministically (and
    identically to the batched implementation).
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
    rounds = congestion_rounds(per_iter_words, capacity_words)
    return NearestSourceResult(dist=dist, source_of=source_of,
                               parent=parent, iterations=executed,
                               rounds=rounds)


def nearest_source_exploration(graph: WeightedGraph,
                               sources: Sequence[int],
                               iterations: int,
                               capacity_words: int = 2
                               ) -> NearestSourceResult:
    """Bounded Bellman–Ford rooted at a vertex *set*.

    After ``t`` iterations each node knows the minimum, over sources ``s``,
    of the ``t``-hop-bounded distance to ``s``, together with the closest
    such source and the neighbor (parent) realizing it — exactly the
    paper's pivot computation ("conduct 4 n^{i/k} ln n iterations of
    Bellman-Ford rooted in the vertex set A_i").

    Each node sends one ``(source, dist)`` pair per link per iteration, so
    an iteration costs ``ceil(2 / capacity)`` rounds.

    Batched flat-array implementation: relaxations walk a CSR adjacency,
    per-iteration candidates live in flat arrays reset via a touched
    list, and the frontier is a sorted vertex list.  Result-identical to
    :func:`nearest_source_exploration_reference`.
    """
    n = graph.num_vertices
    starts, nbrs, wts = _flat_adjacency(graph)
    dist: List[float] = [INF] * n
    source_of: List[Optional[int]] = [None] * n
    parent: List[Optional[int]] = [None] * n
    for s in sources:
        dist[s] = 0
        source_of[s] = s
    frontier = sorted(set(sources))
    cand_d: List[float] = [INF] * n
    cand_s = [0] * n
    cand_p = [0] * n
    per_iter_words: List[int] = []
    executed = 0
    for _ in range(iterations):
        if not frontier:
            break
        executed += 1
        per_iter_words.append(_ESTIMATE_WORDS)
        touched: List[int] = []
        for u in frontier:
            du = dist[u]
            su = source_of[u]
            for j in range(starts[u], starts[u + 1]):
                v = nbrs[j]
                nd = du + wts[j]
                if nd < dist[v] and nd < cand_d[v]:
                    if cand_d[v] == INF:
                        touched.append(v)
                    cand_d[v] = nd
                    cand_s[v] = su
                    cand_p[v] = u
        frontier = []
        for v in sorted(touched):
            dist[v] = cand_d[v]
            source_of[v] = cand_s[v]
            parent[v] = cand_p[v]
            cand_d[v] = INF
            frontier.append(v)
    rounds = congestion_rounds(per_iter_words, capacity_words)
    return NearestSourceResult(dist=dist, source_of=source_of,
                               parent=parent, iterations=executed,
                               rounds=rounds)


@dataclass
class ExplorationResult:
    """Outcome of a per-source exploration with a join predicate.

    ``dist[v]`` maps each vertex to ``{source: estimate}`` for the sources
    whose exploration it joined; ``parent[v][source]`` is the neighbor the
    winning estimate arrived through (``None`` at the source itself).
    """

    dist: List[Dict[int, float]]
    parent: List[Dict[int, Optional[int]]]
    iterations: int
    rounds: int
    max_estimates_per_node: int = 0

    def members_of(self, source: int) -> List[int]:
        """Vertices that joined ``source``'s exploration."""
        return [v for v in range(len(self.dist)) if source in self.dist[v]]


def multi_source_exploration_reference(graph: WeightedGraph,
                                       sources: Sequence[int],
                                       iterations: int,
                                       join: JoinPredicate,
                                       capacity_words: int = 2
                                       ) -> ExplorationResult:
    """Dict-based oracle for :func:`multi_source_exploration`.

    The original setdefault-heavy loop, kept as the semantic reference
    for the differential harness; frontier and update application run in
    sorted vertex order so tie-breaking matches the batched path.
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
    rounds = congestion_rounds(per_iter_words, capacity_words)
    return ExplorationResult(dist=dist, parent=parent, iterations=executed,
                             rounds=rounds,
                             max_estimates_per_node=max_live)


def multi_source_exploration(graph: WeightedGraph,
                             sources: Sequence[int],
                             iterations: int,
                             rule: JoinRule,
                             capacity_words: int = 2
                             ) -> ExplorationResult:
    """Parallel bounded-depth Bellman–Ford from every source.

    Implements the cluster-growing loop of Section 3.2: a vertex ``v``
    receiving an estimate ``b_v(u)`` for source ``u`` stores and relays it
    iff ``rule`` accepts ``(v, u, b_v(u))``; improved estimates are
    re-relayed.  Sources always hold estimate 0 for themselves.

    Round accounting measures, per iteration, the maximum number of words
    any single node must push over one of its links (every live update is
    sent to all neighbors), and charges ``ceil(words / capacity)`` rounds
    — the paper's congestion argument (Claim 2 bounds the number of live
    estimates per node by ``Õ(n^{1/k})`` w.h.p.).

    Two kernels sit behind this name, both result-identical to
    :func:`multi_source_exploration_reference` and chosen only from the
    input size:

    * at most :data:`_DENSE_CELL_LIMIT` ``|sources| × n`` cells,
      :func:`_multi_source_dense_rule` — one flat scatter-min per hop
      over every live estimate, the join fused in as a masked vector
      compare;
    * past it, :func:`_multi_source_bucketed` — flat candidate buckets
      over an adjacency snapshot, the join an inline comparison.
    """
    n = graph.num_vertices
    if n > 0 and sources and len(set(sources)) * n <= _DENSE_CELL_LIMIT:
        return _multi_source_dense_rule(csr_view(graph), graph, sources,
                                        iterations, rule, capacity_words)
    return _multi_source_bucketed(graph, sources, iterations, rule,
                                  capacity_words)


def _multi_source_dense_rule(view, graph: WeightedGraph,
                             sources: Sequence[int], iterations: int,
                             rule: JoinRule, capacity_words: int
                             ) -> ExplorationResult:
    """Kernel path for declarative join rules: every live
    ``(source, vertex)`` estimate across *all* explorations advances in
    one flat scatter-min per hop, with the join comparison fused in as
    a masked vector compare.

    The frontier is three parallel arrays — source row, vertex,
    distance — covering every exploration at once.  A hop gathers the
    out-edges of each frontier pair (``repeat`` over the CSR slices),
    applies the join rule to the candidates as one vector compare
    (``cand < threshold[target]``), keeps strict improvements against
    the current distance matrix, and reduces to one winner per
    ``(row, target)`` key with a single ``lexsort``.  Work per hop is proportional to the *live* edges —
    the same cells the reference's dict loops touch — not to
    ``|sources| × |frontier|``, which is what makes this profitable for
    many small localized clusters.

    Bit-identity with the per-winner evaluation of the oracle and the
    bucketed kernel:

    * Candidates are ordered by (frontier position, CSR edge index)
      and the frontier is kept sorted by (row, vertex), so the
      ``lexsort`` picking the earliest position among equal minima
      reproduces the first-strict-minimum tie-break (ascending
      frontier: first winning edge in CSR order supplies the parent).
    * Filtering *candidates* by the threshold before the group minimum
      equals filtering winners afterwards: rules are antitone in the
      distance, so if the group minimum fails the compare every other
      candidate in the group fails it too.
    * A rejected pair keeps its ``INF`` entry and every later
      (heavier) candidate re-fails the same fused compare, exactly as
      the reference's repeated predicate calls would.

    Equivalence accounting mirrors the reference loop field by field:
    iteration-1 congestion is the source multiset's max multiplicity
    (duplicate sources inflate it, as the reference's frontier lists
    do), later congestion is the max per-vertex count of accepted
    updates from the previous hop, ``executed`` counts
    non-empty-frontier iterations, and the max-estimates statistic
    samples per-vertex live-estimate counts over the frontier's
    out-neighborhood after the hop's updates are applied.
    """
    n = graph.num_vertices
    thr = _np.asarray(rule.threshold, dtype=_np.float64)
    strict = rule.strict
    source_list = sorted(set(sources))
    num_rows = len(source_list)
    src = _np.asarray(source_list, dtype=_np.int64)
    dist_m = _np.full((num_rows, n), INF)
    par_m = _np.full((num_rows, n), -1, dtype=_np.int64)
    dist_m[_np.arange(num_rows), src] = 0.0
    indptr = view.indptr
    indices = view.indices
    weights = view.weights_f64()
    live = _np.zeros(n, dtype=_np.int64)
    live[src] = 1
    # frontier pairs sorted by (row, vertex) — the candidate order the
    # tie-break depends on
    fr_r = _np.arange(num_rows, dtype=_np.int64)
    fr_v = src.copy()
    fr_d = _np.zeros(num_rows)
    congestion = int(_np.bincount(
        _np.asarray(list(sources), dtype=_np.int64)).max())
    per_iter_words: List[int] = []
    executed = 0
    max_live = 0
    for _ in range(iterations):
        if fr_r.size == 0:
            break
        executed += 1
        per_iter_words.append(congestion * _ESTIMATE_WORDS)
        sampled = frontier_neighbors(view, _np.unique(fr_v))
        starts = indptr[fr_v]
        cnts = indptr[fr_v + 1] - starts
        total = int(cnts.sum())
        if total == 0:
            fr_r = fr_r[:0]
            continue   # charged but update-free trailing iteration
        eidx = _gather_edge_indices(starts, cnts, total)
        c_r = _np.repeat(fr_r, cnts)
        c_via = _np.repeat(fr_v, cnts)
        c_t = indices[eidx]
        c_d = _np.repeat(fr_d, cnts) + weights[eidx]
        # the fused join: candidates against the per-vertex budget
        keep = (c_d < thr[c_t]) if strict else (c_d <= thr[c_t])
        keep &= c_d < dist_m[c_r, c_t]
        if not keep.any():
            fr_r = fr_r[:0]
        else:
            c_r = c_r[keep]
            c_via = c_via[keep]
            c_t = c_t[keep]
            c_d = c_d[keep]
            # one winner per (row, target): minimum distance, earliest
            # candidate among equals (frontier position then CSR edge
            # order — the oracle's tie-break)
            key = c_r * n + c_t
            order = _np.lexsort(
                (_np.arange(c_d.size, dtype=_np.int64), c_d, key))
            k_sorted = key[order]
            sel = order[_np.r_[True, k_sorted[1:] != k_sorted[:-1]]]
            b_r = c_r[sel]
            b_t = c_t[sel]
            b_d = c_d[sel]
            b_via = c_via[sel]
            newly = b_t[dist_m[b_r, b_t] == INF]
            dist_m[b_r, b_t] = b_d
            par_m[b_r, b_t] = b_via
            _np.add.at(live, newly, 1)
            congestion = int(_np.bincount(b_t).max())
            # next frontier re-sorted by (row, vertex) for the
            # tie-break order
            order2 = _np.lexsort((b_t, b_r))
            fr_r = b_r[order2]
            fr_v = b_t[order2]
            fr_d = b_d[order2]
        # the vertices whose buckets the reference inspects for the
        # live-estimate maximum, evaluated after this hop's updates
        if len(sampled):
            sampled_max = int(live[_np.asarray(sampled)].max())
            if sampled_max > max_live:
                max_live = sampled_max

    dist: List[Dict[int, float]] = [dict() for _ in range(n)]
    parent: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    rows_i, cols_i = _np.nonzero(dist_m < INF)   # row-major: source
    values = dist_m[rows_i, cols_i].tolist()     # ascending, vertex
    pars = par_m[rows_i, cols_i].tolist()        # ascending within
    for r, v, dv, pv in zip(rows_i.tolist(), cols_i.tolist(),
                            values, pars):
        s = source_list[r]
        dist[v][s] = dv
        parent[v][s] = None if pv < 0 else pv
    rounds = congestion_rounds(per_iter_words, capacity_words)
    return ExplorationResult(dist=dist, parent=parent, iterations=executed,
                             rounds=rounds,
                             max_estimates_per_node=max_live)


def _multi_source_bucketed(graph: WeightedGraph,
                           sources: Sequence[int],
                           iterations: int,
                           rule: JoinRule,
                           capacity_words: int = 2
                           ) -> ExplorationResult:
    """Flat candidate buckets over the cached flat adjacency (the
    kernel past :data:`_DENSE_CELL_LIMIT`): a fast
    path for the common one-live-estimate relay, per-target buckets
    reset via a touched list, sorted frontiers.  The rule is evaluated
    as an inline per-vertex comparison — same acceptances as the fused
    kernel compare, no per-winner call."""
    n = graph.num_vertices
    starts, nbrs, wts = _flat_adjacency(graph)
    thr = rule.threshold
    strict = rule.strict
    dist: List[Dict[int, float]] = [dict() for _ in range(n)]
    parent: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]
    initial: Dict[int, List[int]] = {}
    for s in sources:
        dist[s][s] = 0.0
        parent[s][s] = None
        initial.setdefault(s, []).append(s)
    frontier: List[Tuple[int, List[int]]] = sorted(initial.items())
    buckets: List[Optional[Dict[int, Tuple[float, int]]]] = [None] * n
    per_iter_words: List[int] = []
    executed = 0
    max_live = 0
    for _ in range(iterations):
        if not frontier:
            break
        executed += 1
        congestion = max(len(srcs) for _u, srcs in frontier)
        per_iter_words.append(congestion * _ESTIMATE_WORDS)
        touched: List[int] = []
        for u, updated_sources in frontier:
            du = dist[u]
            if len(updated_sources) == 1:
                # the common sparse case: one live estimate to relay
                s = updated_sources[0]
                d = du[s]
                for j in range(starts[u], starts[u + 1]):
                    v = nbrs[j]
                    bucket = buckets[v]
                    if bucket is None:
                        bucket = buckets[v] = {}
                        touched.append(v)
                    nd = d + wts[j]
                    best = bucket.get(s)
                    if best is None or nd < best[0]:
                        bucket[s] = (nd, u)
                continue
            relayed = [(s, du[s]) for s in updated_sources]
            for j in range(starts[u], starts[u + 1]):
                v = nbrs[j]
                bucket = buckets[v]
                if bucket is None:
                    bucket = buckets[v] = {}
                    touched.append(v)
                bucket_get = bucket.get
                weight = wts[j]
                for s, d in relayed:
                    nd = d + weight
                    best = bucket_get(s)
                    if best is None or nd < best[0]:
                        bucket[s] = (nd, u)
        frontier = []
        for v in sorted(touched):
            bucket = buckets[v]
            buckets[v] = None
            dv = dist[v]
            pv = parent[v]
            changed: List[int] = []
            tv = thr[v]
            for s, (nd, via) in bucket.items():
                if nd >= dv.get(s, INF):
                    continue
                if (nd >= tv) if strict else (nd > tv):
                    continue
                dv[s] = nd
                pv[s] = via
                changed.append(s)
            if changed:
                frontier.append((v, changed))
            if len(dv) > max_live:
                max_live = len(dv)
    rounds = congestion_rounds(per_iter_words, capacity_words)
    return ExplorationResult(dist=dist, parent=parent, iterations=executed,
                             rounds=rounds,
                             max_estimates_per_node=max_live)


@dataclass
class VirtualExplorationResult:
    """Outcome of :func:`virtual_multi_source_exploration`.

    Distances/parents are dictionaries keyed by virtual vertex.
    """

    dist: Dict[int, Dict[int, float]]
    parent: Dict[int, Dict[int, Optional[int]]]
    iterations: int
    rounds: int
    broadcast_words: int = 0

    def members_of(self, source: int) -> List[int]:
        return [v for v, d in self.dist.items() if source in d]


def virtual_multi_source_exploration(virtual: VirtualGraph,
                                     sources: Sequence[int],
                                     iterations: int,
                                     join: JoinPredicate,
                                     bfs_tree: BFSTree,
                                     capacity_words: int = 2
                                     ) -> VirtualExplorationResult:
    """Bellman–Ford over a *virtual* graph, Phase-1 style (Section 3.3.2).

    Virtual edges are not physical links, so every iteration is realized
    by a global exchange (Lemma 1): all fresh estimates are convergecast
    to the BFS-tree root and broadcast back.  The measured cost of an
    iteration with ``M`` update words is
    ``2 * (ceil(M / capacity) + height)`` rounds.

    ``join`` may be a callback or a :class:`JoinRule` (evaluated
    scalar-wise via :meth:`JoinRule.accepts`); virtual instances are
    tiny — ``|A_{ceil(k/2)}|`` vertices — and Lemma-1 accounting
    dominates, so there is no vectorized variant to fall back from.
    """
    join = join.accepts if isinstance(join, JoinRule) else join
    dist: Dict[int, Dict[int, float]] = {v: {} for v in virtual.vertices()}
    parent: Dict[int, Dict[int, Optional[int]]] = {
        v: {} for v in virtual.vertices()}
    frontier: Dict[int, List[int]] = {}
    for s in sources:
        dist[s][s] = 0.0
        parent[s][s] = None
        frontier.setdefault(s, []).append(s)
    rounds = 0
    total_words = 0
    executed = 0
    for _ in range(iterations):
        if not frontier:
            break
        executed += 1
        update_words = sum(
            len(srcs) * (_ESTIMATE_WORDS + 1) for srcs in frontier.values())
        total_words += update_words
        rounds += 2 * pipelined_rounds(update_words, capacity_words,
                                       bfs_tree.height)
        updates: Dict[int, Dict[int, Tuple[float, int]]] = {}
        for u, updated_sources in frontier.items():
            du = dist[u]
            for v, weight in virtual.neighbor_weights(u):
                bucket = updates.setdefault(v, {})
                for s in updated_sources:
                    nd = du[s] + weight
                    best = bucket.get(s)
                    if best is None or nd < best[0]:
                        bucket[s] = (nd, u)
        frontier = {}
        for v, bucket in updates.items():
            changed: List[int] = []
            for s, (nd, via) in bucket.items():
                current = dist[v].get(s, INF)
                if nd < current and join(v, s, nd):
                    dist[v][s] = nd
                    parent[v][s] = via
                    changed.append(s)
            if changed:
                frontier[v] = changed
    return VirtualExplorationResult(dist=dist, parent=parent,
                                    iterations=executed, rounds=rounds,
                                    broadcast_words=total_words)

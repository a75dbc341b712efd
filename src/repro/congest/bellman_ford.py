"""Distributed Bellman–Ford explorations with congestion accounting.

Three explorations back the paper's construction:

* :func:`nearest_source_exploration` — multi-root BFS/Bellman–Ford where
  every node keeps only its *nearest* root (used for exact pivots,
  Section 3.1): each node relays at most one estimate per iteration, so an
  iteration costs O(1) rounds.
* :func:`multi_source_exploration` — independent per-source explorations
  with a *join rule* (used for cluster growing, Sections 3.2/3.3):
  a node stores and relays an estimate for source ``u`` only while the
  rule accepts it (Eq. (11)/(14)).  Congestion — the number of distinct
  live estimates a node must push over one link in one iteration — is
  measured, and the iteration is charged ``ceil(words / capacity)`` rounds
  exactly as the paper's pipelining argument schedules it.
* :func:`virtual_exploration` — the same, but over the virtual graph
  ``G''`` whose "links" are realized by global broadcast (Lemma 1):
  every iteration's updates are convergecast to a BFS-tree root and
  broadcast back, costing ``O(M + D)`` measured rounds.

Every variant's output is exactly what the synchronous message-passing
execution computes.  All three are numpy kernels over a CSR view
(:mod:`repro.graphs.csr`) — the graph's cached one, or ``G''``'s
weight matrix as one with its neighbors ascending: one
scatter-min per hop over the frontier's gathered out-edges, the join
rule fused in as a masked compare against the declarative
:class:`JoinRule` — a per-vertex threshold plan covering every rule the
paper applies (Eq. (11), the middle-scale pivot-distance filter,
Eq. (14)/(15)).  Their dict-based oracles live in
:mod:`repro.reference.exploration`, which production never imports.

The multi-source kernel, :func:`_explore_block`, has three callers:
:func:`multi_source_exploration` and :func:`virtual_exploration` here,
and Theorem-1 source detection
(:func:`repro.sketches.detect_sources`), which is the same hop-bounded
multi-source Bellman–Ford over rounded weights, under the odd-k middle
level's join rule there and an all-``INF`` threshold everywhere else.
The caller owns the ``rows × n`` ``dist`` / ``par`` matrices, the
kernel writes each hop's winners into them in place, and every
caller advances its source rows in blocks of at most
:data:`_DENSE_CELL_LIMIT` cells; rows are independent and every block
size gives a bit-identical result.  The exploration's result is the
blocks' finite cells as four columns sorted by (source, vertex) — the
cluster system appends them as they are — and its per-vertex dicts are
lazy views for tests.  numpy is required.

One deliberate semantic pin, applied to kernel and oracle alike:
frontiers are processed in sorted vertex order (the originals iterated
a ``set``/dict), so equal-distance ties resolve deterministically and
identically across the pair.  The differential grids
(``tests/congest/test_engine_equivalence.py``,
``tests/congest/test_exploration_grid.py``) assert every result field
matches exactly between oracle and kernel.  The virtual exploration's
dict oracle, :mod:`repro.reference.virtual`, kept its frontier in
first-touch order, so at β ≥ 2 a parent may differ from it, only
between exactly tied candidates
(``tests/hopsets/test_virtual_plane_equivalence.py``).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as _np

from ..dataclass import dataclass
from ..graphs.csr import _gather_edge_indices, csr_view, matrix_view
from ..graphs.shortest_paths import INF
from ..graphs.weighted_graph import WeightedGraph
from .messages import DEFAULT_CAPACITY_WORDS
from .metrics import congestion_rounds, pipelined_rounds


@dataclass(frozen=True)
class JoinRule:
    """Declarative join plan: accept ``(v, s, d)`` iff ``d`` beats a
    per-vertex threshold.

    Every join rule the paper's cluster growing applies has exactly
    this shape — rule (11) compares against ``d_G(v, A_{i+1})``, the
    middle scale against the exact ``(k+1)/2``-pivot distance, rules
    (14)/(15) against scaled pivot budgets on the virtual graphs — so
    instead of an opaque closure, callers hand the exploration the
    *description*: a ``threshold`` array indexed by vertex, accepting
    ``d < threshold[v]`` (every paper rule is strict; ``INF`` entries
    always accept).  The kernel evaluates the rule as one masked vector
    compare fused into the scatter-min relaxation, in the cluster
    explorations and in the middle level's source detection alike: a
    vertex stores and relays an estimate only while the rule accepts
    it, and a source's own seeded estimate is always kept.  A rule is by
    construction a pure, distance-antitone predicate, so
    :meth:`accepts` is a valid callback for the dict-based oracles.
    """

    threshold: Sequence[float]

    def accepts(self, v: int, s: int, d: float) -> bool:
        """Scalar evaluation (the semantics the arrays implement)."""
        return d < self.threshold[v]


#: Words per (source, distance) estimate on the wire.
_ESTIMATE_WORDS = 2

#: Ceiling on ``rows * n`` cells for one block of :func:`_explore_block`
#: (explorations and source detection alike): the block's float64
#: distance and int64 parent matrices are capped at 32 MB each; the
#: sorted source rows advance in blocks of ``max(1, _DENSE_CELL_LIMIT //
#: n)``.
_DENSE_CELL_LIMIT = 1 << 22


@dataclass
class NearestSourceResult:
    """Outcome of :func:`nearest_source_exploration`."""

    dist: List[float]
    source_of: List[Optional[int]]
    parent: List[Optional[int]]
    iterations: int
    rounds: int


def _run_starts(keys):
    """Mask of the first element of every run of equal sorted ``keys``."""
    first = _np.empty(keys.size, dtype=bool)
    first[:1] = True
    _np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _listed(values, missing, replacement) -> list:
    """``values`` as a list of Python ints, ``missing`` entries
    replaced."""
    out = values.astype(object)
    out[values == missing] = replacement
    return out.tolist()


def nearest_source_exploration(graph: WeightedGraph,
                               sources: Sequence[int],
                               iterations: int
                               ) -> NearestSourceResult:
    """Bounded Bellman–Ford rooted at a vertex *set*.

    After ``t`` iterations each node knows the minimum, over sources ``s``,
    of the ``t``-hop-bounded distance to ``s``, together with the closest
    such source and the neighbor (parent) realizing it — exactly the
    paper's pivot computation ("conduct 4 n^{i/k} ln n iterations of
    Bellman-Ford rooted in the vertex set A_i").

    Each node sends one ``(source, dist)`` pair per link per iteration, so
    an iteration costs ``ceil(2 / capacity)`` rounds.

    One scatter-min per hop over the CSR out-edges of the frontier,
    carrying a source column.  Weights are integers, so distances are
    exact ``int64``; the winner per target is the first strict minimum
    in (ascending frontier, CSR edge) order, the oracle's tie-break.
    """
    n = graph.num_vertices
    view = csr_view(graph)
    indptr = view.indptr
    unreached = _np.iinfo(_np.int64).max
    dist = _np.full(n, unreached, dtype=_np.int64)
    source_of = _np.full(n, -1, dtype=_np.int64)
    parent = _np.full(n, -1, dtype=_np.int64)
    frontier = _np.unique(_np.asarray(list(sources), dtype=_np.int64))
    dist[frontier] = 0
    source_of[frontier] = frontier
    executed = 0
    for _ in range(iterations):
        if frontier.size == 0:
            break
        executed += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        eidx = _gather_edge_indices(starts, counts, total)
        c_t = view.indices[eidx]
        c_d = dist[frontier].repeat(counts) + view.weights[eidx]
        keep = _np.nonzero(c_d < dist[c_t])[0]
        if keep.size == 0:
            break
        c_t = c_t[keep]
        c_d = c_d[keep]
        order = _np.lexsort((keep, c_d, c_t))
        win = order[_run_starts(c_t[order])]
        via = frontier.repeat(counts)[keep[win]]
        frontier = c_t[win]                 # ascending, like the oracle's
        dist[frontier] = c_d[win]
        source_of[frontier] = source_of[via]
        parent[frontier] = via
    rounds = congestion_rounds([_ESTIMATE_WORDS] * executed,
                               DEFAULT_CAPACITY_WORDS)
    return NearestSourceResult(dist=_listed(dist, unreached, INF),
                               source_of=_listed(source_of, -1, None),
                               parent=_listed(parent, -1, None),
                               iterations=executed, rounds=rounds)


@dataclass(eq=False)
class ExplorationResult:
    """Outcome of a per-source exploration with a join rule: one cell
    per joined ``(source, vertex)``, sorted by (source, vertex), with
    its estimate ``value`` and the neighbor ``via`` it arrived through
    (``-1`` at the source).  ``dist[v]`` (source -> estimate) and
    ``parent[v]`` (source -> neighbor, ``None`` at the source) are
    per-vertex dict views of the cells, built on first access only."""

    num_vertices: int
    source: _np.ndarray
    vertex: _np.ndarray
    value: _np.ndarray
    via: _np.ndarray
    iterations: int
    rounds: int
    max_estimates_per_node: int = 0

    def _per_vertex(self, cells: list) -> List[dict]:
        rows: List[dict] = [dict() for _ in range(self.num_vertices)]
        for s, v, x in zip(self.source.tolist(), self.vertex.tolist(),
                           cells):
            rows[v][s] = x
        return rows

    @cached_property
    def dist(self) -> List[Dict[int, float]]:
        return self._per_vertex(self.value.tolist())

    @cached_property
    def parent(self) -> List[Dict[int, Optional[int]]]:
        return self._per_vertex(_listed(self.via, -1, None))


def multi_source_exploration(graph: WeightedGraph,
                             sources: Sequence[int],
                             iterations: int,
                             rule: JoinRule
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

    The sorted, de-duplicated sources advance through
    :func:`_explore_block` in blocks of ``max(1, _DENSE_CELL_LIMIT //
    n)`` rows.  Rows are independent, so only the accounting spans
    blocks, and any block size gives the same result bit for bit:

    * ``iterations`` is the longest block's run;
    * iteration 1 relays the raw source multiset (a duplicate source
      counts once per copy, as in the oracle's frontier lists); a later
      iteration's congestion is the max over ``v`` of the number of
      estimates ``v`` relays, summed over blocks;
    * ``max_estimates_per_node`` is the max final live count over every
      vertex that was ever a candidate target: the oracle samples
      exactly those vertices after each hop, live counts only grow,
      and a vertex's last gain happens in a hop that samples it;
    * each block's finite cells, in row-major order, are the next
      stretch of the (source, vertex)-sorted result columns.
    """
    n = graph.num_vertices
    view = csr_view(graph)
    weights = view.weights_f64()
    thr = _np.asarray(rule.threshold, dtype=_np.float64)
    multiset = _np.asarray(list(sources), dtype=_np.int64)
    source_rows = _np.unique(multiset)
    cells: List[tuple] = []
    live = _np.zeros(n, dtype=_np.int64)
    relayed: List[list] = []      # per iteration: each block's relays
    block = max(1, _DENSE_CELL_LIMIT // max(n, 1))
    for lo in range(0, source_rows.size, block):
        rows = source_rows[lo:lo + block]
        block_dist = _np.full((rows.size, n), INF)
        block_par = _np.full((rows.size, n), -1, dtype=_np.int64)
        fronts = _explore_block(view, weights, rows, iterations, thr,
                                block_dist, block_par)
        for i, front in enumerate(fronts):
            if i == len(relayed):
                relayed.append([])
            relayed[i].append(front)
        rows_i, cols_i = _np.nonzero(block_dist < INF)
        live += _np.bincount(cols_i, minlength=n)
        cells.append((rows[rows_i], cols_i, block_dist[rows_i, cols_i],
                      block_par[rows_i, cols_i]))
    # every out-neighbor of a relayed estimate was a candidate target
    sampled = _np.zeros(n, dtype=bool)
    if relayed:
        senders = _np.unique(_np.concatenate(
            [front for fronts in relayed for front in fronts]))
        starts = view.indptr[senders]
        counts = view.indptr[senders + 1] - starts
        sampled[view.indices[_gather_edge_indices(
            starts, counts, int(counts.sum()))]] = True
        relayed[0] = [multiset]
    per_iter_words = [
        int(_np.bincount(_np.concatenate(fronts)).max()) * _ESTIMATE_WORDS
        for fronts in relayed]
    max_live = int(live[sampled].max()) if sampled.any() else 0
    rounds = congestion_rounds(per_iter_words, DEFAULT_CAPACITY_WORDS)
    if cells:
        source, vertex, value, via = map(_np.concatenate, zip(*cells))
    else:
        source = vertex = via = _np.empty(0, dtype=_np.int64)
        value = _np.empty(0)
    return ExplorationResult(num_vertices=n, source=source, vertex=vertex,
                             value=value, via=via,
                             iterations=len(relayed), rounds=rounds,
                             max_estimates_per_node=max_live)


def _explore_block(view, weights, rows, iterations: int, thr, dist, par):
    """Advance the explorations rooted at ``rows`` (ascending,
    distinct): every live ``(row, vertex)`` estimate moves in one flat
    scatter-min per hop, the join fused in as a masked vector compare.

    ``dist`` / ``par`` are the caller's ``rows × n`` float64 / int64
    matrices, filled with ``INF`` / ``-1``.  The kernel seeds each
    row's source at distance 0 and writes every hop's winners in
    place: the distance, and as parent the frontier vertex the winning
    estimate came from, so a cell's parent is that of its last
    improvement (``-1`` stays at a seeded source).  Returns, per
    executed iteration, the vertices of the estimates it relayed (one
    entry per estimate): the seeds, then each hop's winners.

    The frontier is three parallel arrays — row, vertex, distance —
    sorted by (row, vertex).  A hop gathers the out-edges of each
    frontier pair (``repeat`` over the CSR slices), keeps the
    candidates the rule accepts (``cand < thr[target]``) that strictly
    improve the matrix, and reduces them to one winner per ``(row,
    target)`` key with a single ``lexsort``.  Work per hop is
    proportional to the *live* edges — the cells the oracle's dict
    loops touch — not to ``rows × |frontier|``.

    Bit-identity with the oracles' per-winner evaluation:

    * Candidates are ordered by (frontier position, CSR edge index), so
      the ``lexsort`` picking the earliest among equal minima
      reproduces the first-strict-minimum tie-break, and its winners
      come out sorted by (row, vertex) for the next hop.
    * Filtering *candidates* by the threshold before the group minimum
      equals filtering winners afterwards: rules are antitone in the
      distance, so if the group minimum fails the compare every other
      candidate in the group fails it too.
    * A rejected pair keeps its ``INF`` entry and every later (heavier)
      candidate re-fails the same fused compare, exactly as the
      oracle's repeated predicate calls would.
    """
    n = view.num_vertices
    indptr = view.indptr
    fr_r = _np.arange(rows.size, dtype=_np.int64)
    fr_v = rows
    fr_d = _np.zeros(rows.size)
    dist[fr_r, fr_v] = 0.0
    relayed = []
    for _ in range(iterations):
        relayed.append(fr_v)
        starts = indptr[fr_v]
        counts = indptr[fr_v + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break      # charged, but relayed to no one
        eidx = _gather_edge_indices(starts, counts, total)
        c_t = view.indices[eidx]
        c_r = fr_r.repeat(counts)
        c_d = fr_d.repeat(counts) + weights[eidx]
        keep = c_d < thr[c_t]
        keep &= c_d < dist[c_r, c_t]
        keep = _np.nonzero(keep)[0]
        if keep.size == 0:
            break
        c_r = c_r[keep]
        c_t = c_t[keep]
        c_d = c_d[keep]
        key = c_r * n + c_t
        order = _np.lexsort((keep, c_d, key))
        win = order[_run_starts(key[order])]
        via = fr_v.repeat(counts)[keep[win]]
        fr_r = c_r[win]
        fr_v = c_t[win]
        fr_d = c_d[win]
        dist[fr_r, fr_v] = fr_d
        par[fr_r, fr_v] = via
    return relayed


def virtual_exploration(weights, rows, iterations: int, threshold,
                        height: int):
    """Bellman–Ford over a *virtual* graph, Phase-1 style (Section 3.3.2).

    ``weights`` is ``G''``'s ``V' × V'`` matrix, ``rows`` the sources'
    indices in ``V'`` (ascending, distinct) and ``threshold`` rule
    (14)'s per-``V'`` budgets: :func:`_explore_block` runs over the
    matrix's CSR view (neighbors ascending), in row blocks under
    :data:`_DENSE_CELL_LIMIT` like its other callers, and fills ``rows
    × |V'|`` matrices, the parents as ``V'`` indices.  Virtual edges
    are not physical links, so every iteration is a global exchange
    (Lemma 1): the fresh estimates, 3 words each, are convergecast to
    the BFS-tree root and broadcast back, ``2 * (ceil(M / capacity) +
    height)`` rounds for ``M`` words.  Returns ``(dist, par, rounds)``.
    """
    view = matrix_view(weights)
    dist = _np.full((len(rows), view.num_vertices), INF)
    par = _np.full(dist.shape, -1, dtype=_np.int64)
    relayed: List[int] = []       # per iteration: estimates relayed
    block = max(1, _DENSE_CELL_LIMIT // max(view.num_vertices, 1))
    for lo in range(0, len(rows), block):
        fronts = _explore_block(view, view.weights, rows[lo:lo + block],
                                iterations, threshold, dist[lo:lo + block],
                                par[lo:lo + block])
        relayed.extend([0] * (len(fronts) - len(relayed)))
        for i, front in enumerate(fronts):
            relayed[i] += len(front)
    rounds = sum(2 * pipelined_rounds(3 * words, DEFAULT_CAPACITY_WORDS,
                                      height) for words in relayed)
    return dist, par, rounds

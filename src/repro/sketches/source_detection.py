"""Multi-source hop-bounded approximate distances ([Nan14], Theorem 1).

Given sources ``V' ⊆ V``, a hop bound ``B`` and ``0 < eps < 1``, every
vertex ``u`` learns values ``d_{uv}`` for all ``v ∈ V'`` with

    d^(B)_G(u, v) <= d_uv <= (1 + eps) * d^(B)_G(u, v),          (paper (2))

in ``Õ(|V'| + B + D)/eps`` rounds, plus (Remark 1) a *parent* neighbor
``p = p_v(u)`` with ``d_uv >= w(u, p) + d_pv``                    (paper (3)).

The estimates are ``B``-hop Bellman–Ford distances under edge weights
rounded up to multiples of ``unit_0 = eps / (2B)``.  Every weight is an
integer ``>= 1`` and grows by less than ``unit_0``, so a ``B``-hop path
grows by less than ``eps/2`` — inside (2) with room to spare, one-sided
like the real algorithm's error.  This is the only execution: the
construction is the paper's one CONGEST algorithm, at the fixed link
bandwidth :data:`repro.congest.messages.DEFAULT_CAPACITY_WORDS`.

Fidelity note.  The distributed algorithm of [Nan14] — like Lenzen–
Patt-Shamir's (S, h, σ)-detection — sweeps ``ceil(log2(B * W_max))``
distance scales ``Δ = 2^i`` with rounding unit ``unit_i = eps * Δ /
(2B)``, *bounds scale i's exploration by distance* ``O(Δ)`` (that is
what makes a scale cost ``O(B/eps)`` rounds), and takes the minimum over
scales.  The sweep as implemented by the oracle
(:func:`repro.reference.detect_sources_reference`) has no distance
cut-off: every scale runs its full ``B`` hops.  Without the cut-off the
minimum over scales is decided before it is taken:

**Lemma (the finest scale dominates).**  Let ``unit_0`` be a normal
float.  Then for every scale ``i``, after any number of synchronous
Bellman–Ford hops, scale ``i``'s distance matrix is cell-wise ``>=``
scale 0's *as floats*; so a first-strict-``<`` merge that visits scale 0
first keeps scale 0's values **and parents** in every cell.

*Proof.*  ``unit_i = fl(eps/2 * 2^i / B)`` is ``2^i * unit_0`` exactly:
scaling by a power of two commutes with rounding while results stay
normal.  Likewise ``q_i = fl(w / unit_i) = q_0 / 2^i`` exactly, so
``ceil(q_i) * 2^i`` is an integer ``>= q_0``, hence ``>= ceil(q_0)``.
Scale ``i``'s rounded weight ``fl(ceil(q_i) * unit_i) = fl((ceil(q_i) *
2^i) * unit_0)`` is therefore ``>= fl(ceil(q_0) * unit_0)``, scale 0's,
because rounding a product is monotone.  A synchronous hop maps
``dist[v]`` to ``min(dist[v], min_u fl(dist[u] + w(u, v)))``, monotone
in every weight and every distance under float ``+`` and ``min``.  The
kernel relaxes only each row's own frontier — the cells it improved in
the previous hop — and that equals the full recursion: if ``u`` last
improved at hop ``t' < t``, hop ``t' + 1`` already offered every
neighbor ``v`` the same float ``fl(dist[u] + w(u, v))``, and ``dist[v]``
has only fallen since, so at hop ``t`` that candidate cannot be strictly
smaller.  A row whose frontier empties is therefore a fixed point.
Induction over hops from the common start gives ``dist_i >= dist_0``;
the merge's ``dist_i < best`` then never fires for ``i >= 1``.  A join
rule that prunes the propagation (``v`` takes a candidate only if it is
``< thr[v]``) keeps the hop monotone: a candidate a coarse scale
accepts is no smaller than scale 0's, which is then accepted too; and
one rejected once is rejected at every later hop.  ∎

So :func:`detect_sources` runs scale 0 only; the precondition is checked
(``eps / (2B)`` underflowing to a subnormal raises
:class:`~repro.exceptions.ParameterError`).  The all-scales sweep lives
on, untouched, in :mod:`repro.reference.detection`, which production
never imports — the semantic oracle, and the executable proof of the
lemma on every differential grid
(``tests/sketches/test_detection_equivalence.py``,
``tests/sketches/test_finest_scale_lemma.py``).

Round accounting (kernel and oracle alike) still charges the
*paper's* schedule, not our loop: per scale, a ``B``-iteration
exploration whose rounded weights are at most ``O(B/eps)`` — pipelined
over the sources — costs ``ceil(B/eps') + |V'| + 2*height`` rounds,
summed over ``ceil(log2(B * W_max))`` scales.  This is
``Õ(|V'| + B + D)/eps``.

The kernel is the cluster-growing exploration's, a **batched**
multi-source hop-bounded Bellman–Ford: ``_explore_block`` in
:mod:`repro.congest.bellman_ford` writes each hop's winners straight
into the ``|V'| × n`` matrices ``dist`` and ``par``, with the join
rule's thresholds fused into the relaxation (all ``INF`` when there is
no rule: no cell is refused) and the rounding applied as one
precomputed rounded-weight array over the graph's cached CSR view
(:mod:`repro.graphs.csr`).  Each row advances its own sparse
frontier, so a hop costs the out-edges of the cells that just improved.
One deliberate semantic pin, applied to kernel and oracle alike:
frontiers are processed in sorted vertex order (the original iterated a
``set``), and among equal candidates the first in (frontier, CSR edge)
order wins, so parent ties resolve deterministically and identically
across the pair.  Estimates, parents and round charges are
bit-identical.  Rows are independent, so the matrices advance in blocks
of ``max(1, _DENSE_CELL_LIMIT // n)`` source rows, the exploration's own
rule — a size-based choice that changes no bit of the result.  numpy is
required: the kernel has one body.  The one remaining kernel choice is
the parent walk for batches below ``_VECTOR_MIN_PAIRS``
(:mod:`repro.core.dense`).

Fidelity note (hop bound).  The kernel stops at the first hop that
improves no cell, so its relays show how many of the ``B`` hops do
work.  On the build's own detection call (``SchemePipeline`` with
``k = 2``, seed 1) the last improving hop is hop 22 on random n = 4 096,
hop 130 on grid n = 4 096 and hop 182 on grid n = 8 100, against
``B`` = 2 130, 2 130 and 3 240.  Every row reaches its fixed point long
before the bound, so ``d^(B)`` is the plain shortest-path distance
under the rounded weights: on the workload families, Theorem 1's
detection is exact Bellman–Ford.  ``B`` cuts paths only below the hop
diameter: ``path(n)`` from n ≈ 700 at k = 2 and 4 (``B`` = 694) and the
chordless ring ``weighted_small_world(6000, chords=0)`` (``B`` = 2 696),
where β = 2 (``tests/core/test_cut_regime.py``).  ``rounds`` still
charges the paper's ``B``-hop schedule.

The result *is* the kernel's two matrices, ``dist`` and ``par``, and
no per-cell dict is built.  The odd-k middle level's join rule, ``b <
d(v, A_{(k+1)/2})``, prunes the propagation: a CONGEST node stores and
relays only what it keeps.  That threshold is an exact distance (Claim
3's budget, w.h.p.), so 1-Lipschitz, and rounded weights are no lighter
than true ones: a rejected cell offers only rejected candidates, and
the result is the unfiltered detection's with the rejected cells
masked, bit for bit (``TestMiddleLevelJoin``).  Every construction
step reads the matrices: ``G'`` is the upper triangle of the ``V' ×
V'`` columns, the middle-level clusters are the rows, and the two
Lemma-1 extensions over ``V'`` — Phase 2 of the large cluster levels
and step 5 of the approximate SPT — are :func:`extend_over_sources`,
one sweep over the rows.  The per-vertex
dicts ``estimate`` / ``parent`` remain as lazy views for tests and
callers that want them.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..congest import bellman_ford
from ..congest.bellman_ford import JoinRule
from ..congest.bfs import BFSTree
from ..dataclass import dataclass
from ..exceptions import ParameterError
from ..graphs.csr import csr_view
from ..graphs.shortest_paths import INF
from ..graphs.weighted_graph import WeightedGraph

@dataclass(eq=False)
class SourceDetectionResult:
    """Outcome of a source-detection run: the kernel's matrices.

    Attributes
    ----------
    sources:
        The source set ``V'`` (sorted); row ``r`` of both matrices is
        source ``sources[r]``.
    dist:
        ``|V'| × n`` float64.  ``dist[r, u]`` is ``d_uv`` for ``v =
        sources[r]``: INF where ``v`` is not within ``B`` hops of ``u``
        or the join rule rejected the cell.
    par:
        ``|V'| × n`` int64.  ``par[r, u]`` is the Remark-1 neighbor of
        ``u`` toward ``v``, −1 for none (at ``v`` itself and in every
        INF cell).
    rounds:
        Charged CONGEST rounds for the whole computation.
    hop_bound, eps:
        Echo of the parameters.

    :attr:`estimate` and :attr:`parent` are per-vertex dict views of
    the same cells, built on first access only; the construction reads
    the matrices.
    """

    sources: List[int]
    dist: _np.ndarray
    par: _np.ndarray
    rounds: int
    hop_bound: int
    eps: float

    @cached_property
    def row_of(self) -> Dict[int, int]:
        """The matrix row of every source."""
        return {s: r for r, s in enumerate(self.sources)}

    def _row_cells(self, r: int) -> Tuple[List[int], List[float],
                                         List[Optional[int]]]:
        """Row ``r``'s finite cells: ascending vertices, their values
        and their parents, as the dict views hold them.

        The source's own value is the int 0 (it is seeded, never
        relaxed), and a parent of −1 is ``None``.
        """
        row = self.dist[r]
        cols = _np.nonzero(row < INF)[0]
        values = row[cols].tolist()
        values[int(_np.searchsorted(cols, self.sources[r]))] = 0
        parents = [None if p < 0 else p
                   for p in self.par[r, cols].tolist()]
        return cols.tolist(), values, parents

    @cached_property
    def estimate(self) -> List[Dict[int, float]]:
        """``estimate[u][v]`` is ``d_uv`` for every source ``v`` that is
        within ``B`` hops of ``u`` (absent keys mean ``d^(B) = INF``)."""
        estimate: List[Dict[int, float]] = [
            dict() for _ in range(self.dist.shape[1])]
        for r, s in enumerate(self.sources):
            for u, value, _ in zip(*self._row_cells(r)):
                estimate[u][s] = value
        return estimate

    @cached_property
    def parent(self) -> List[Dict[int, Optional[int]]]:
        """``parent[u][v]`` is the Remark-1 neighbor of ``u`` toward
        source ``v`` (``None`` at ``v`` itself), on the cells of
        :attr:`estimate`."""
        parent: List[Dict[int, Optional[int]]] = [
            dict() for _ in range(self.dist.shape[1])]
        for r, s in enumerate(self.sources):
            for u, _, p in zip(*self._row_cells(r)):
                parent[u][s] = p
        return parent

    def get(self, u: int, v: int) -> float:
        """``d_uv``, or INF when ``v`` is not within ``B`` hops of ``u``."""
        r = self.row_of.get(v)
        value = INF if r is None else float(self.dist[r, u])
        if value == INF or u != v:
            return value
        return 0


def extend_over_sources(dist: _np.ndarray, values: _np.ndarray):
    """The Lemma-1 extension ``b(y, c) = min_v dist[v, y] + values[v, c]``.

    ``dist`` is a detection's ``|V'| × n`` matrix and ``values`` a
    ``|V'| × c`` matrix of broadcast values (INF where a row announces
    nothing in that column).  One sweep over the rows that announce a
    value, in ascending ``V'`` order, each a strict ``<`` against the
    running minimum, so the winning row is the *first* strict minimum —
    the one a per-vertex loop over ``estimate[y]`` in key order keeps.

    Returns ``(best, row)``, both ``n × c``: the minimum (INF where no
    row reaches) and the row that attains it (−1 there).
    """
    n = dist.shape[1]
    width = values.shape[1]
    # one column's running state is a contiguous row of these
    best = _np.full((width, n), INF)
    arg = _np.full((width, n), -1, dtype=_np.int64)
    for r in _np.nonzero((values < INF).any(axis=1))[0]:
        # a column row r announces nothing in stays INF: never better
        cand = _np.add.outer(values[r], dist[r])
        better = cand < best
        _np.copyto(best, cand, where=better)
        arg[better] = r
    return best.T, arg.T


def _charged_rounds(num_sources: int, hop_bound: int, eps: float,
                    height: int, num_scales: int) -> int:
    """The documented round schedule (see module docstring).

    Rounded weights fit in ``O(B/eps)`` units, so one scale's weighted BFS
    pipelines to ``B * ceil(1/eps)`` unit-steps, staggered over the sources
    and shipped across the BFS tree.
    """
    per_scale = hop_bound * max(1, math.ceil(1.0 / eps))
    per_scale += num_sources + 2 * height
    return num_scales * per_scale


def _validate(graph: WeightedGraph, sources: Sequence[int],
              hop_bound: int, eps: float) -> List[int]:
    if hop_bound < 0:
        raise ParameterError(f"hop_bound must be >= 0, got {hop_bound}")
    if not 0 < eps < 1:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    source_list = sorted(set(sources))
    n = graph.num_vertices
    for s in source_list:
        if not 0 <= s < n:
            raise ParameterError(f"source {s} out of range")
    return source_list


def _scale_parameters(graph: WeightedGraph, hop_bound: int
                      ) -> int:
    max_weight = max(graph.max_weight(), 1)
    max_dist = max_weight * max(hop_bound, 1)
    return max(1, math.ceil(math.log2(max_dist + 1)))


# ----------------------------------------------------------------------
# Batched path
# ----------------------------------------------------------------------
def _finest_unit(eps: float, hop_bound: int) -> float:
    """Scale 0's rounding unit ``eps / (2B)`` — the only scale the
    batched path runs (module docstring, the lemma), checked against the
    lemma's precondition."""
    # eps/2 internally: rounding up by < unit on each of <= B hops adds
    # < eps/2 to a path of weight >= 1
    unit = (eps / 2.0) / max(hop_bound, 1)
    if unit < sys.float_info.min:
        raise ParameterError(
            f"eps / (2 * hop_bound) = {unit!r} is not a normal float: "
            f"the rounding scales are no longer exact multiples of it")
    return unit


def detect_sources(graph: WeightedGraph, sources: Sequence[int],
                   hop_bound: int, eps: float,
                   bfs_tree: Optional[BFSTree] = None,
                   join_rule: Optional[JoinRule] = None
                   ) -> SourceDetectionResult:
    """Run [Nan14] Theorem-1 source detection (batched implementation).

    Parameters
    ----------
    graph:
        The network graph ``G``.
    sources:
        The source set ``V'``.
    hop_bound:
        ``B`` — paths of more than ``B`` edges are ignored.
    eps:
        Approximation slack; estimates are the one-sided rounded
        values, within ``(1 + eps)``.
    bfs_tree:
        BFS tree used only for the round charge's ``D`` term (height 0 is
        assumed when omitted).
    join_rule:
        Optional join plan (the middle-scale cluster rule): ``u``
        records, and relays, an improved estimate for source ``s``
        only if the rule accepts it; a rejected cell stays INF, parent
        −1, and a source's own seeded cell is always kept.  The round
        charge is the formula's, which the rule does not change.

    Bit-identical to :func:`repro.reference.detect_sources_reference`
    although it runs one rounding scale where the oracle sweeps all of
    them; see the module docstring for the lemma and the batching
    scheme.
    """
    source_list = _validate(graph, sources, hop_bound, eps)
    unit = _finest_unit(eps, hop_bound)
    n = graph.num_vertices
    height = bfs_tree.height if bfs_tree is not None else 0
    num_scales = _scale_parameters(graph, hop_bound)
    num_sources = len(source_list)

    dist = _np.full((num_sources, n), INF)
    par = _np.full((num_sources, n), -1, dtype=_np.int64)
    rounds = _charged_rounds(num_sources, hop_bound, eps, height,
                             num_scales)
    result = SourceDetectionResult(sources=source_list, dist=dist,
                                   par=par, rounds=rounds,
                                   hop_bound=hop_bound, eps=eps)
    if not source_list or n == 0:
        return result

    view = csr_view(graph)
    weights = _np.ceil(view.weights_f64() / unit) * unit
    rows = _np.asarray(source_list, dtype=_np.int64)
    thr = (_np.full(n, INF) if join_rule is None
           else _np.asarray(join_rule.threshold, dtype=_np.float64))
    # rows are independent: each block is the whole matrix's advance
    # restricted to its rows, bit for bit
    block = max(1, bellman_ford._DENSE_CELL_LIMIT // n)
    for lo in range(0, num_sources, block):
        bellman_ford._explore_block(
            view, weights, rows[lo:lo + block], hop_bound, thr,
            dist[lo:lo + block], par[lo:lo + block])
    return result


def build_virtual_graph_from_detection(result: SourceDetectionResult
                                       ) -> _np.ndarray:
    """The paper's ``G'`` (Section 3.3.1) as its ``V' × V'`` weight
    matrix: for ``i < j`` the edge between ``u = sources[i]`` and
    ``sources[j]`` weighs ``d_uv``, the cell ``dist[j, u]``, mirrored to
    ``(j, i)``; ``INF`` marks no edge, the diagonal included."""
    between = result.dist[:, result.sources].T
    upper = _np.where(_np.triu(_np.ones(between.shape, dtype=bool), k=1),
                      between, INF)
    return _np.minimum(upper, upper.T)

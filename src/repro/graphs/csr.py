"""Cached CSR adjacency view + frontier relaxation.

The construction hot paths (Theorem-1 source detection, the Bellman–Ford
explorations) all walk adjacency lists edge by edge.  This module gives
them a shared flat substrate:

* :class:`CSRView` — the classic compressed-sparse-row triplet
  ``indptr`` / ``indices`` / ``weights`` over the *directed* edge set
  (each undirected edge appears once per endpoint), in exactly the
  neighbor order :meth:`WeightedGraph.neighbor_weights` yields.  That
  order pin matters: every tie-break in the reference implementations is
  "first neighbor scanned wins", and the CSR walk must agree with it.
* :func:`csr_view` — a cached accessor.  The view is stored on the graph
  and stamped with the graph's mutation version; ``add_edge`` /
  ``remove_edge`` bump the version, so a stale view is never returned
  (see ``graphs/README.md`` for the contract).
* :func:`relax_frontier` — one hop of Bellman–Ford from a frontier over
  list rows: the first-strict-minimum scan the reference loops use.  It
  serves source detection's list-row advance (no numpy, or a matrix
  past its cell limit); the vectorized kernels gather the frontier's
  out-edges themselves (:func:`_gather_edge_indices`,
  :meth:`CSRView.transpose_order`).

Arrays are numpy ``int64``/``float64`` when numpy is importable and
plain lists otherwise; :data:`HAVE_NUMPY` tells callers which world they
are in.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .weighted_graph import WeightedGraph

try:  # vectorized kernel when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

INF = float("inf")


class CSRView:
    """Flat CSR adjacency of a :class:`WeightedGraph` snapshot.

    ``indices[indptr[u]:indptr[u + 1]]`` are ``u``'s neighbors in the
    graph's own neighbor order, ``weights`` the matching edge weights.
    ``vectorized`` records whether the arrays are numpy (kernels branch
    on it, so a view built without numpy keeps working if numpy appears
    later in the process, and vice versa).
    """

    __slots__ = ("num_vertices", "indptr", "indices", "weights",
                 "vectorized", "_transpose")

    def __init__(self, graph: WeightedGraph) -> None:
        n = graph.num_vertices
        self.num_vertices = n
        indptr: List[int] = [0] * (n + 1)
        indices: List[int] = []
        weights: List[int] = []
        for u in range(n):
            for v, w in graph.neighbor_weights(u):
                indices.append(v)
                weights.append(w)
            indptr[u + 1] = len(indices)
        self.vectorized = HAVE_NUMPY
        self._transpose = None
        if HAVE_NUMPY:
            self.indptr = _np.asarray(indptr, dtype=_np.int64)
            self.indices = _np.asarray(indices, dtype=_np.int64)
            self.weights = _np.asarray(weights, dtype=_np.int64)
        else:
            self.indptr = indptr
            self.indices = indices
            self.weights = weights

    def transpose_order(self):
        """``(perm, src, dst)``: the directed edges stably sorted by
        target (numpy only; cached).

        ``perm`` permutes any edge-parallel array into that order;
        within one target the edges keep CSR order (ascending source,
        then neighbor order), so group-wise "first edge wins" scans
        reproduce the reference tie-breaks.  Restricting to a frontier
        is then a boolean mask over ``src`` instead of a per-hop sort.
        """
        cached = self._transpose
        if cached is None:
            perm = _np.argsort(self.indices, kind="stable")
            src = _np.repeat(
                _np.arange(self.num_vertices, dtype=_np.int64),
                _np.diff(self.indptr))[perm]
            cached = (perm, src, self.indices[perm])
            self._transpose = cached
        return cached

    @property
    def num_directed_edges(self) -> int:
        return len(self.indices)

    def weights_f64(self):
        """The weight array as float64 (numpy only)."""
        return self.weights.astype(_np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CSRView(n={self.num_vertices}, "
                f"m2={self.num_directed_edges}, "
                f"vectorized={self.vectorized})")


def csr_view(graph: WeightedGraph) -> CSRView:
    """The graph's CSR view, rebuilt only after mutations.

    The cache lives on the graph (``_csr_cache``) keyed by the graph's
    mutation ``version`` and the numpy availability the view was built
    under; any ``add_edge``/``remove_edge`` invalidates it implicitly by
    bumping the version.
    """
    cache = graph._csr_cache
    version = graph.version
    if cache is not None and cache[0] == version \
            and cache[1] == HAVE_NUMPY:
        return cache[2]
    view = CSRView(graph)
    graph._csr_cache = (version, HAVE_NUMPY, view)
    return view


# ----------------------------------------------------------------------
# Frontier relaxation
# ----------------------------------------------------------------------
def relax_frontier(view: CSRView, dist_row, frontier: Sequence[int],
                   weights=None
                   ) -> Tuple[Sequence[int], Sequence[float],
                              Sequence[int]]:
    """One Bellman–Ford hop from ``frontier`` over ``view``.

    Returns ``(targets, dists, vias)`` — the strictly improving
    relaxations against ``dist_row`` (which is *not* mutated):
    ``targets`` ascending, ``dists[i]`` the minimum candidate for
    ``targets[i]``, and ``vias[i]`` the frontier vertex that attained
    it, ties broken toward the earliest edge in CSR order.  Because the
    CSR order is the graph's neighbor order and ``frontier`` must be
    ascending, this is exactly the winner the reference loops pick
    (first strict minimum over a sorted frontier scan).

    ``weights`` substitutes a parallel weight array (e.g. the rounded
    weights of source detection).
    """
    if weights is None:
        weights = view.weights
    indptr = view.indptr
    indices = view.indices
    cand = {}
    for u in frontier:
        du = dist_row[u]
        if du == INF:
            continue
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            nd = du + weights[j]
            if nd < dist_row[v]:
                best = cand.get(v)
                if best is None or nd < best[0]:
                    cand[v] = (nd, u)
    if not cand:
        return (), (), ()
    targets = sorted(cand)
    return (targets, [cand[t][0] for t in targets],
            [cand[t][1] for t in targets])


def _gather_edge_indices(starts, counts, total):
    """Edge ids of the concatenated CSR slices ``[starts, starts+counts)``
    (the out-edges of a frontier, in CSR order)."""
    within = _np.arange(total, dtype=_np.int64)
    within -= _np.repeat(_np.cumsum(counts) - counts, counts)
    return _np.repeat(starts, counts) + within


def frontier_neighbors(view: CSRView, frontier: Sequence[int]):
    """The union of the frontier's out-neighborhoods, ascending.

    Used by the exploration loops for congestion/overlap sampling: the
    vertices that receive at least one candidate this hop.
    """
    if view.vectorized:
        f = _np.asarray(frontier, dtype=_np.int64)
        starts = view.indptr[f]
        counts = view.indptr[f + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return ()
        eidx = _gather_edge_indices(starts, counts, total)
        return _np.unique(view.indices[eidx])
    indptr = view.indptr
    indices = view.indices
    seen = set()
    for u in frontier:
        seen.update(indices[indptr[u]:indptr[u + 1]])
    return sorted(seen)

"""Cached CSR adjacency view + frontier gathering.

The construction hot paths (Theorem-1 source detection, the Bellman–Ford
explorations) all walk adjacency lists edge by edge.  This module gives
them a shared flat substrate:

* :class:`CSRView` — the classic compressed-sparse-row triplet
  ``indptr`` / ``indices`` / ``weights`` over the *directed* edge set
  (each undirected edge appears once per endpoint), in exactly the
  neighbor order :meth:`WeightedGraph.neighbor_weights` yields, as
  numpy ``int64`` arrays.  That order pin matters: every tie-break in
  the reference implementations is "first neighbor scanned wins", and
  the CSR walk must agree with it.
* :func:`csr_view` — a cached accessor.  The view is stored on the graph
  and stamped with the graph's mutation version; ``add_edge`` /
  ``remove_edge`` bump the version, so a stale view is never returned
  (see ``graphs/README.md`` for the contract).  The arrays are filled
  by ``numpy.fromiter`` straight from the adjacency dicts.
* :func:`matrix_view` — the same type over a virtual graph's ``V' ×
  V'`` weight matrix (``G''`` for Phase 1), neighbors ascending.
* :func:`_gather_edge_indices` — the frontier's out-edges, gathered
  from the CSR slices (the Bellman–Ford kernels).

numpy is required: every kernel has one body.  The multi-source
kernel (``_explore_block`` in :mod:`repro.congest.bellman_ford`) has
three callers, source detection, the multi-source exploration and
Phase 1 over ``G''``; all advance their source rows in blocks under one
cell limit, bit-identically for every block size.  The one remaining kernel choice
is the parent walk for batches below ``_VECTOR_MIN_PAIRS``
(:mod:`repro.core.dense`).
"""

from __future__ import annotations

from itertools import chain

import numpy as _np

from .weighted_graph import WeightedGraph


class CSRView:
    """Flat CSR adjacency: ``indices[indptr[u]:indptr[u + 1]]`` are
    ``u``'s neighbors, ``weights`` the matching edge weights.
    :func:`csr_view` fills it from a :class:`WeightedGraph` (the graph's
    own neighbor order, int64 weights), :func:`matrix_view` from a
    virtual graph's weight matrix (neighbors ascending, float64)."""

    __slots__ = ("num_vertices", "indptr", "indices", "weights")

    def __init__(self, indptr, indices, weights) -> None:
        self.num_vertices = len(indptr) - 1
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    @property
    def num_directed_edges(self) -> int:
        return len(self.indices)

    def weights_f64(self):
        """The weight array as float64."""
        return self.weights.astype(_np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CSRView(n={self.num_vertices}, "
                f"m2={self.num_directed_edges})")


def _indptr(degrees):
    indptr = _np.zeros(len(degrees) + 1, dtype=_np.int64)
    _np.cumsum(degrees, out=indptr[1:])
    return indptr


def csr_view(graph: WeightedGraph) -> CSRView:
    """The graph's CSR view, rebuilt only after mutations.

    The cache lives on the graph (``_csr_cache``) keyed by the graph's
    mutation ``version``; any ``add_edge``/``remove_edge`` invalidates
    it implicitly by bumping the version.
    """
    cache = graph._csr_cache
    version = graph.version
    if cache is not None and cache[0] == version:
        return cache[1]
    adj = graph._adj
    indptr = _indptr(_np.fromiter(map(len, adj), _np.int64, len(adj)))
    size = int(indptr[-1])
    view = CSRView(
        indptr, _np.fromiter(chain.from_iterable(adj), _np.int64, size),
        _np.fromiter(chain.from_iterable(map(dict.values, adj)),
                     _np.int64, size))
    graph._csr_cache = (version, view)
    return view


def matrix_view(weights) -> CSRView:
    """The CSR of a dense weight matrix, ``INF`` = no edge: row ``u``'s
    finite cells, ascending."""
    rows, cols = _np.nonzero(_np.isfinite(weights))
    return CSRView(_indptr(_np.bincount(rows, minlength=len(weights))),
                   cols, weights[rows, cols])


def _gather_edge_indices(starts, counts, total):
    """Edge ids of the concatenated CSR slices ``[starts, starts+counts)``
    (the out-edges of a frontier, in CSR order)."""
    within = _np.arange(total, dtype=_np.int64)
    within -= (counts.cumsum() - counts).repeat(counts)
    return starts.repeat(counts) + within


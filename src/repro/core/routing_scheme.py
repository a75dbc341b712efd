"""The compact routing scheme (paper, Section 4 / Theorem 5).

Assembles the approximate clusters of Section 3 and the distributed tree
routing of Section 6 into the full scheme:

* the **routing table** of ``v`` holds the tree table of ``v`` for every
  cluster tree ``C̃(u)`` containing it, plus — when ``v ∈ A_0 \\ A_1`` —
  the labels of every member of its own cluster (the [TZ01] trick that
  improves the stretch from ``4k-3+o(1)`` to ``4k-5+o(1)``);
* the **label** of ``v`` holds, for ``i = 0..k-1``, its approximate
  ``i``-pivot ``ẑ_i(v)`` and (when ``v`` belongs to that pivot's tree)
  ``v``'s tree label in ``C̃(ẑ_i(v))``;
* **Algorithm 1 (find-tree)** scans ``i = 0, 1, ...`` until a tree
  containing *both* endpoints appears; level ``k-1`` always succeeds
  because ``C̃(x) = V`` for ``x ∈ A_{k-1}``;
* the routing protocol then routes exactly inside the chosen tree.

The scheme here is those tables and labels as columns; packets are
routed by the compiled artifacts.  The per-vertex objects, and a router
that walks them hop by hop, are the oracle in :mod:`repro.reference`.

Every quantity a benchmark reports — table words, label words, stretch,
construction rounds — is measured, not assumed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..congest.metrics import CostLedger
from ..graphs.weighted_graph import WeightedGraph
from .approx_clusters import ApproxClusterSystem
from .params import SchemeParams
from .tree_routing import ForestRoutingReport


class RoutingScheme:
    """The assembled compact routing scheme (Theorem 5).

    Assembly is array arithmetic over the forest's columns: the
    find-tree rows ``lbl_pivot`` / ``lbl_slot`` (``k`` per vertex: the
    pivot ``ẑ_i(v)`` and ``v``'s slot in that pivot's tree, ``-1`` =
    absent; a binary search over the sorted ``(tree, vertex)`` keys),
    the 4k-5 trick's member rows ``ml_owner`` / ``ml_member`` (every
    level-0 center and each of its other members, sorted; empty
    without the trick) and the per-vertex int64
    ``table_words`` / ``label_words`` — sums of the fixed-width fields
    a vertex's table and label hold (a gather for the labels, a
    ``bincount`` over the slots' vertices for the tables).  No
    per-vertex object is built; :meth:`compile` flattens the scheme
    into the artifact that routes.
    """

    def __init__(self, graph: WeightedGraph, params: SchemeParams,
                 clusters: ApproxClusterSystem,
                 forest: ForestRoutingReport,
                 ledger: CostLedger, use_tz_trick: bool = True) -> None:
        self.graph = graph
        self.params = params
        self.clusters = clusters
        self.forest = forest
        self.ledger = ledger
        self._compiled = None  # lazy CompiledScheme for the batch path

        n = graph.num_vertices
        k = params.k
        columns = forest.columns

        # find-tree rows: the pivot of every (v, i), and v's slot in its
        # tree, by one binary search over the sorted (tree, vertex) keys
        pivots = np.full((n, k), -1, dtype=np.int64)
        for i, level in enumerate(clusters.pivots[:k]):
            pivots[:, i] = [-1 if p is None else p for p in level.pivot]
        self.lbl_pivot = pivots.ravel()
        self.lbl_slot = columns.slots(
            self.lbl_pivot, np.repeat(np.arange(n, dtype=np.int64), k))
        held = np.append(columns.slot_label_words, 0)[self.lbl_slot]
        # own name + k pivot names + the tree labels held
        label_words = 1 + k + held.reshape(n, k).sum(axis=1)

        # the k pivot names, plus per tree slot its center name + table
        table_words = k + np.bincount(
            columns.slot_vertex, weights=1 + columns.slot_table_words,
            minlength=n).astype(np.int64)
        self.use_tz_trick = use_tz_trick
        self.ml_owner = self.ml_member = np.empty(0, dtype=np.int64)
        if use_tz_trick:
            # level-0 centers store the labels of their members
            owner = clusters.cell_centers()
            mine = ((np.repeat(clusters.level, np.diff(clusters.c_start))
                     == 0) & (clusters.member != owner))
            self.ml_owner = owner[mine]
            self.ml_member = clusters.member[mine]
            words = 1 + columns.slot_label_words[
                columns.slots(self.ml_owner, self.ml_member)]
            table_words += np.bincount(self.ml_owner, weights=words,
                                       minlength=n).astype(np.int64)
        self.table_words = table_words
        self.label_words = label_words

    # ------------------------------------------------------------------
    @property
    def construction_rounds(self) -> int:
        return self.ledger.total_rounds

    def max_table_words(self) -> int:
        return int(self.table_words.max())

    def average_table_words(self) -> float:
        return int(self.table_words.sum()) / len(self.table_words)

    def max_label_words(self) -> int:
        return int(self.label_words.max())

    def average_label_words(self) -> float:
        return int(self.label_words.sum()) / len(self.label_words)

    # ------------------------------------------------------------------
    def compile(self):
        """Flatten into the :class:`CompiledScheme` construction
        artifact.

        The artifact is graph-detached and serializable via
        ``save``/``load``; its hop-by-hop replay of the Section-6
        protocol is held to the eager reference router
        (:mod:`repro.reference`, ``tests/core/test_compiled.py``), and
        the served :class:`~repro.core.DenseRoutingPlane` is compiled
        from it.
        """
        from .compiled import CompiledScheme
        return CompiledScheme.from_scheme(self)

    def route_many(self, pairs, max_hops: Optional[int] = None):
        """Route ``(source, target)`` pairs on the compiled replay.

        Compiles once (cached) and delegates to
        :meth:`CompiledScheme.route_many`; results carry ``path``,
        ``weight``, ``tree_center`` and ``found_level``.  Exact
        distances, for a stretch, are the caller's to compute.
        """
        if self._compiled is None:
            self._compiled = self.compile()
        return self._compiled.route_many(pairs, max_hops=max_hops)

    def __repr__(self) -> str:
        return (f"RoutingScheme(n={self.graph.num_vertices}, "
                f"k={self.params.k}, rounds={self.construction_rounds})")

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

from array import array
from typing import Dict, List, Optional

from ..congest.metrics import CostLedger
from ..graphs.weighted_graph import WeightedGraph
from .approx_clusters import ApproxClusterSystem
from .params import SchemeParams
from .tree_routing import ForestRoutingReport


class RoutingScheme:
    """The assembled compact routing scheme (Theorem 5).

    Assembly is arithmetic over the forest's columns: the find-tree
    rows ``lbl_pivot`` / ``lbl_slot`` (``k`` per vertex: the pivot
    ``ẑ_i(v)`` and ``v``'s slot in that pivot's tree, ``-1`` = absent),
    the 4k-5 trick's ``members`` (level-0 center -> its members,
    sorted; empty without the trick) and the per-vertex ``table_words``
    / ``label_words`` — sums of the fixed-width fields a vertex's table
    and label hold.  No per-vertex object is built; :meth:`compile`
    flattens the scheme into the artifact that routes.
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
        tid_of = columns.tid_of
        slot_of = columns.slot_of
        tree_table_words = columns.slot_table_words
        tree_label_words = columns.slot_label_words

        self.lbl_pivot = array("q", [-1]) * (n * k)
        self.lbl_slot = array("q", [-1]) * (n * k)
        label_words = [1 + k] * n       # own name + k pivot names
        for v in range(n):
            for i in range(k):
                pivot = clusters.pivot_of(v, i)
                if pivot is None:
                    continue
                self.lbl_pivot[v * k + i] = pivot
                tid = tid_of.get(pivot)
                if tid is not None and v in slot_of[tid]:
                    s = slot_of[tid][v]
                    self.lbl_slot[v * k + i] = s
                    label_words[v] += tree_label_words[s]

        table_words = [k] * n           # the k pivot names
        for v, words in zip(columns.slot_vertex, tree_table_words):
            table_words[v] += 1 + words           # center name + table
        self.members: Dict[int, List[int]] = {}
        if use_tz_trick:
            # level-0 centers store the labels of their members
            for center, cluster in clusters.clusters.items():
                if cluster.level != 0 or center not in tid_of:
                    continue
                slots = slot_of[tid_of[center]]
                mine = sorted(m for m in cluster.members() if m != center)
                self.members[center] = mine
                table_words[center] += sum(
                    1 + tree_label_words[slots[m]] for m in mine)
        self.table_words = array("q", table_words)
        self.label_words = array("q", label_words)

    # ------------------------------------------------------------------
    @property
    def construction_rounds(self) -> int:
        return self.ledger.total_rounds

    def max_table_words(self) -> int:
        return max(self.table_words)

    def average_table_words(self) -> float:
        return sum(self.table_words) / len(self.table_words)

    def max_label_words(self) -> int:
        return max(self.label_words)

    def average_label_words(self) -> float:
        return sum(self.label_words) / len(self.label_words)

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

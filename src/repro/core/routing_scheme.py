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

Every quantity a benchmark reports — table words, label words, stretch,
construction rounds — is measured, not assumed.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..congest.metrics import CostLedger
from ..exceptions import ParameterError, SchemeError
from ..graphs.shortest_paths import dijkstra_distances
from ..graphs.weighted_graph import WeightedGraph
from .approx_clusters import ApproxClusterSystem
from .params import SchemeParams
from .tree_routing import DistTreeLabel, ForestRoutingReport, LazyMap


@dataclass
class VertexTable:
    """Routing table of one vertex (all sizes in words)."""

    vertex: int
    tree_entries: Dict[int, object]      # center -> DistTreeTable
    member_labels: Dict[int, DistTreeLabel]  # 4k-5 trick (level-0 centers)
    pivot_names: List[Optional[int]]     # ẑ_i(v), i = 0..k-1

    @property
    def words(self) -> int:
        total = len(self.pivot_names)
        for table in self.tree_entries.values():
            total += 1 + table.words          # center name + tree table
        for label in self.member_labels.values():
            total += 1 + label.words
        return total


@dataclass
class VertexLabel:
    """Label of one vertex: ``O(k log^2 n)`` words."""

    vertex: int
    entries: List[Tuple[Optional[int], Optional[DistTreeLabel]]]
    #: entries[i] = (ẑ_i(v), tree label in C̃(ẑ_i(v)) or None if absent)

    @property
    def words(self) -> int:
        total = 1
        for pivot, label in self.entries:
            total += 1                         # pivot name (or ⊥ marker)
            if label is not None:
                total += label.words
        return total

    def pivot(self, i: int) -> Optional[int]:
        return self.entries[i][0]

    def tree_label(self, i: int) -> Optional[DistTreeLabel]:
        return self.entries[i][1]

    def member_of(self, center: int) -> Optional[DistTreeLabel]:
        """The tree label for ``center``'s tree, if this vertex is in it."""
        for pivot, label in self.entries:
            if pivot == center and label is not None:
                return label
        return None


@dataclass
class RouteResult:
    """One routed packet, with its measured quality."""

    source: int
    target: int
    path: List[int]
    weight: float
    tree_center: Optional[int]
    found_level: int
    exact_distance: float

    @property
    def stretch(self) -> float:
        if self.source == self.target:
            return 1.0
        if self.exact_distance == 0:
            return 1.0
        return self.weight / self.exact_distance

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class RoutingScheme:
    """The assembled compact routing scheme (Theorem 5).

    Assembly is arithmetic over the forest's columns: the find-tree
    rows ``lbl_pivot`` / ``lbl_slot`` (``k`` per vertex: the pivot
    ``ẑ_i(v)`` and ``v``'s slot in that pivot's tree, ``-1`` = absent),
    the 4k-5 trick's ``members`` (level-0 center -> its members,
    sorted; empty without the trick) and the per-vertex ``table_words``
    / ``label_words`` — sums of the fixed-width fields a
    :class:`VertexTable` / :class:`VertexLabel` would hold.  Those
    objects themselves are ``tables[v]`` / ``labels[v]``, built on
    first access for the live :meth:`route`.
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
        self._distance_cache: Dict[int, List[float]] = {}
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

    # The views hold bound methods — a reference cycle through the
    # scheme.  Made on first use, a scheme nobody routes on live has
    # none and is freed the moment it is dropped.
    @cached_property
    def tables(self) -> Mapping[int, VertexTable]:
        return LazyMap(range(self.graph.num_vertices), self._table_of)

    @cached_property
    def labels(self) -> Mapping[int, VertexLabel]:
        return LazyMap(range(self.graph.num_vertices), self._label_of)

    def _table_of(self, v: int) -> VertexTable:
        k = self.params.k
        schemes = self.forest.schemes
        columns = self.forest.columns
        return VertexTable(
            vertex=v,
            tree_entries={center: schemes[center].tables[v]
                          for center, slots in zip(columns.tree_center,
                                                   columns.slot_of)
                          if v in slots},
            member_labels={m: schemes[v].labels[m]
                           for m in self.members.get(v, ())},
            pivot_names=[self.clusters.pivot_of(v, i) for i in range(k)])

    def _label_of(self, v: int) -> VertexLabel:
        k = self.params.k
        entries: List[Tuple[Optional[int], Optional[DistTreeLabel]]] = []
        for at in range(v * k, v * k + k):
            pivot = self.lbl_pivot[at]
            entries.append((
                None if pivot < 0 else pivot,
                None if self.lbl_slot[at] < 0
                else self.forest.schemes[pivot].labels[v]))
        return VertexLabel(vertex=v, entries=entries)

    # ------------------------------------------------------------------
    @property
    def construction_rounds(self) -> int:
        return self.ledger.total_rounds

    def table_of(self, v: int) -> VertexTable:
        return self.tables[v]

    def label_of(self, v: int) -> VertexLabel:
        return self.labels[v]

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

        The artifact is graph-detached, serializable via
        ``save``/``load``, and its routing decisions are bit-identical
        to this live scheme (see :mod:`repro.core.compiled`); the
        served :class:`~repro.core.DenseRoutingPlane` is compiled from
        it.
        """
        from .compiled import CompiledScheme
        return CompiledScheme.from_scheme(self)

    def route_many(self, pairs, max_hops: Optional[int] = None):
        """Batch-serve ``(source, target)`` pairs via the compiled path.

        Compiles once (cached) and delegates to
        :meth:`CompiledScheme.route_many`; results carry ``path``,
        ``weight``, ``tree_center`` and ``found_level`` but no exact
        distance (use :meth:`route` for single measured packets).
        """
        if self._compiled is None:
            self._compiled = self.compile()
        return self._compiled.route_many(pairs, max_hops=max_hops)

    def find_tree(self, source: int, target_label: VertexLabel
                  ) -> Tuple[int, int]:
        """Algorithm 1: the first level whose pivot tree holds both ends.

        Returns ``(tree center w, level i)``.  Uses only the source's
        table and the target's label, as the model requires.
        """
        table = self.tables[source]
        # 4k-5 trick: the source may already store the target's label
        if target_label.vertex in table.member_labels:
            return source, -1
        for i, (pivot, tree_label) in enumerate(target_label.entries):
            if pivot is None or tree_label is None:
                continue
            if pivot in table.tree_entries or pivot == source:
                return pivot, i
        raise SchemeError(
            f"find-tree failed for {source} -> {target_label.vertex}; "
            "A_{k-1} cluster should contain every vertex")

    def route(self, source: int, target: int,
              max_hops: Optional[int] = None) -> RouteResult:
        """Route one packet and measure the path it took."""
        n = self.graph.num_vertices
        if not 0 <= source < n or not 0 <= target < n:
            raise ParameterError(
                f"route endpoints ({source}, {target}) out of range")
        exact = self._exact_distance(source, target)
        if source == target:
            return RouteResult(source=source, target=target, path=[source],
                               weight=0.0, tree_center=None, found_level=-1,
                               exact_distance=0.0)
        target_label = self.labels[target]
        center, level = self.find_tree(source, target_label)
        if level == -1:
            tree_label = self.tables[source].member_labels[target]
        else:
            tree_label = target_label.tree_label(level)
        scheme = self.forest.schemes[center]
        if max_hops is None:
            max_hops = 4 * n + 4
        path = [source]
        current = source
        for _ in range(max_hops):
            nxt = scheme.next_hop(current, tree_label)
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        if current != target:
            raise SchemeError(
                f"routing {source} -> {target} stopped at {current}")
        weight = 0.0
        for a, b in zip(path, path[1:]):
            weight += self.graph.weight(a, b)
        return RouteResult(source=source, target=target, path=path,
                           weight=weight, tree_center=center,
                           found_level=level, exact_distance=exact)

    def _exact_distance(self, source: int, target: int) -> float:
        if source not in self._distance_cache:
            if len(self._distance_cache) > 256:
                self._distance_cache.clear()
            self._distance_cache[source] = dijkstra_distances(
                self.graph, source)
        return self._distance_cache[source][target]

    def __repr__(self) -> str:
        return (f"RoutingScheme(n={self.graph.num_vertices}, "
                f"k={self.params.k}, rounds={self.construction_rounds})")

"""The per-subtree oracle of the Section-6 tree scheme (Theorem 7).

What a vertex of one tree would hold — a :class:`DistTreeTable` and a
:class:`DistTreeLabel` with its :class:`GlobalEdgeEntry` rows — built
eagerly, tree by tree, by :func:`build_distributed_tree_routing_reference`,
and the hop-by-hop forwarding protocol over them
(:class:`DistributedTreeRouting`).  Production builds none of these: its
forest is :class:`~repro.core.tree_routing.ForestColumns`, and the tests
hold those columns to these objects field by field.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..congest.bfs import BFSTree
from ..congest.metrics import CostLedger
from ..core.tree_routing import _remark3_ledger, _rooted_maps, _shared_sample
from ..exceptions import RoutingLoopError, SchemeError
from ..trees.interval_routing import (
    PortFunction,
    TreeLabel,
    TreeTable,
    build_tree_routing,
    interval_next_hop,
)
from ..trees.rooted import RootedTree


def _default_port(u: int, v: int) -> int:
    """Ports numbered by neighbor name ("port numbers may be assigned
    by the routing process")."""
    return v


@dataclass(frozen=True)
class GlobalEdgeEntry:
    """One non-heavy ``T'`` edge on the root→v path, with its portal.

    Crossing from splitter ``parent_splitter`` to child splitter
    ``child_splitter`` means: walk (locally, inside the parent's subtree)
    to ``portal`` using ``portal_label``, then take ``port`` to the child.
    """

    parent_splitter: int
    child_splitter: int
    portal: int
    portal_label: TreeLabel
    port: int

    @property
    def words(self) -> int:
        return 4 + self.portal_label.words


@dataclass(frozen=True)
class DistTreeTable:
    """Per-vertex table of the two-level scheme (``O(log n)`` words)."""

    vertex: int
    tree_parent: Optional[int]        # parent in T (None only at z)
    tree_parent_port: Optional[int]
    local: TreeTable                  # interval table inside T_w
    splitter: int                     # w = root of this vertex's subtree
    global_entry: int                 # a'_w
    global_exit: int                  # b'_w
    heavy_splitter: Optional[int]     # h'(w) in T'
    heavy_portal: Optional[int]       # y' = parent of h'(w) in T
    heavy_portal_label: Optional[TreeLabel]
    heavy_portal_port: Optional[int]

    @property
    def words(self) -> int:
        total = 2 + self.local.words + 3  # names/ports + local + intervals
        if self.heavy_splitter is not None:
            total += 3 + (self.heavy_portal_label.words
                          if self.heavy_portal_label else 0)
        return total


@dataclass(frozen=True)
class DistTreeLabel:
    """Per-vertex label (``O(log^2 n)`` words)."""

    vertex: int
    local: TreeLabel                  # ℓ(v) inside T_w
    global_entry: int                 # a'_{root(v)}
    global_edges: Tuple[GlobalEdgeEntry, ...]

    @property
    def words(self) -> int:
        return 2 + self.local.words + \
            sum(entry.words for entry in self.global_edges)

    def entry_from(self, splitter: int) -> Optional[GlobalEdgeEntry]:
        """The ``T'`` edge leaving ``splitter`` on the root→v path."""
        for entry in self.global_edges:
            if entry.parent_splitter == splitter:
                return entry
        return None


class DistributedTreeRouting:
    """Tables + labels for one tree under the Section-6 scheme."""

    def __init__(self, tree: RootedTree,
                 tables: Dict[int, DistTreeTable],
                 labels: Dict[int, DistTreeLabel],
                 splitters: List[int],
                 max_subtree_depth: int) -> None:
        self.tree = tree
        self.tables = tables
        self.labels = labels
        self.splitters = splitters
        self.max_subtree_depth = max_subtree_depth

    def table_of(self, v: int) -> DistTreeTable:
        return self.tables[v]

    def label_of(self, v: int) -> DistTreeLabel:
        return self.labels[v]

    # ------------------------------------------------------------------
    def next_hop(self, x: int, label: DistTreeLabel) -> Optional[int]:
        """One forwarding decision (protocol of Section 6)."""
        table = self.tables[x]
        if label.vertex == x:
            return None
        if label.global_entry == table.global_entry:
            # same T' subtree: plain local interval routing
            return interval_next_hop(table.local, label.local)
        if not table.global_entry <= label.global_entry <= \
                table.global_exit:
            # target lies outside w's T' subtree: climb toward the root
            if table.tree_parent is None:
                raise SchemeError(
                    f"label {label.vertex} escapes tree at root {x}")
            return table.tree_parent
        # target is under some child of w in T'
        entry = label.entry_from(table.splitter)
        if entry is not None:
            if x == entry.portal:
                return entry.child_splitter
            return interval_next_hop(table.local, entry.portal_label)
        # heavy T' child: portal information lives in the table
        if table.heavy_splitter is None:
            raise SchemeError(
                f"vertex {x} lacks heavy-splitter info for label "
                f"{label.vertex}")
        if x == table.heavy_portal:
            return table.heavy_splitter
        return interval_next_hop(table.local, table.heavy_portal_label)

    def route(self, source: int, target: int,
              max_hops: Optional[int] = None) -> List[int]:
        """Full routed path (vertex list, inclusive).  Stretch 1."""
        label = self.labels[target]
        if max_hops is None:
            max_hops = 4 * self.tree.size + 4
        path = [source]
        current = source
        for _ in range(max_hops):
            nxt = self.next_hop(current, label)
            if nxt is None:
                return path
            path.append(nxt)
            current = nxt
        raise RoutingLoopError(
            f"no arrival after {max_hops} hops ({source} -> {target})")

    def max_table_words(self) -> int:
        return max(t.words for t in self.tables.values())

    def max_label_words(self) -> int:
        return max(l.words for l in self.labels.values())


def build_distributed_tree_routing_reference(
        tree: RootedTree, splitters: Set[int],
        port_of: Optional[PortFunction] = None) -> DistributedTreeRouting:
    """Per-subtree oracle for the forest kernel.

    The original construction, kept verbatim as the semantic reference:
    it materializes a parent dict and a :class:`RootedTree` per splitter
    subtree, runs :func:`build_tree_routing` on each, and assembles each
    splitter's global label by walking ``T'`` root paths (quadratic in
    ``|U|``).  The differential harness
    (``tests/core/test_tree_routing_equivalence.py``) pins the columns
    and word counts of :class:`~repro.core.tree_routing.ForestColumns`
    to this one's objects, slot by slot.

    ``splitters`` is the global sample ``U``; the tree root is always
    added (``U(T) = (U ∩ V(T)) ∪ {z}``).
    """
    port_of = port_of or _default_port
    z = tree.root
    chosen = sorted((set(splitters) & set(tree.vertices())) | {z})

    # --- decompose into subtrees T_w (top-down pass)
    root_of: Dict[int, int] = {}
    order = tree.dfs_order()  # deterministic DFS pre-order
    chosen_set = set(chosen)
    for v in order:
        if v in chosen_set:
            root_of[v] = v
        else:
            root_of[v] = root_of[tree.parent(v)]  # type: ignore[index]

    local_parent: Dict[int, Dict[int, Optional[int]]] = {
        w: {} for w in chosen}
    for v in order:
        w = root_of[v]
        p = tree.parent(v)
        local_parent[w][v] = p if (v != w) else None

    local_schemes = {
        w: build_tree_routing(RootedTree(w, parents), port_of=port_of)
        for w, parents in local_parent.items()}
    max_depth = max((local_schemes[w].tree.height() for w in chosen),
                    default=0)

    # --- virtual tree T' on the splitters
    virtual_parent: Dict[int, Optional[int]] = {}
    for w in chosen:
        if w == z:
            virtual_parent[w] = None
        else:
            virtual_parent[w] = root_of[tree.parent(w)]  # type: ignore
    virtual_tree = RootedTree(z, virtual_parent)
    v_entry, v_exit = virtual_tree.dfs_intervals()
    v_heavy = virtual_tree.heavy_children()

    # --- portals: for each splitter u with heavy T' child h, the real
    # parent y of h (y ∈ T_u) plus y's local label and the crossing port
    heavy_portal: Dict[int, Tuple[int, TreeLabel, int]] = {}
    for u in chosen:
        h = v_heavy[u]
        if h is None:
            continue
        y = tree.parent(h)
        assert y is not None and root_of[y] == u
        heavy_portal[u] = (y, local_schemes[u].label_of(y),
                           port_of(y, h))

    # --- tables
    tables: Dict[int, DistTreeTable] = {}
    for v in tree.vertices():
        w = root_of[v]
        p = tree.parent(v)
        portal = heavy_portal.get(w)
        tables[v] = DistTreeTable(
            vertex=v,
            tree_parent=p,
            tree_parent_port=None if p is None else port_of(v, p),
            local=local_schemes[w].table_of(v),
            splitter=w,
            global_entry=v_entry[w],
            global_exit=v_exit[w],
            heavy_splitter=v_heavy[w],
            heavy_portal=None if portal is None else portal[0],
            heavy_portal_label=None if portal is None else portal[1],
            heavy_portal_port=None if portal is None else portal[2],
        )

    # --- global labels per splitter, then propagated to subtrees
    global_edges_of: Dict[int, Tuple[GlobalEdgeEntry, ...]] = {}
    for u in chosen:
        path = virtual_tree.path_to_root(u)[::-1]  # z ... u
        entries: List[GlobalEdgeEntry] = []
        for vi, wi in zip(path, path[1:]):
            if v_heavy[vi] == wi:
                continue
            xi = tree.parent(wi)
            assert xi is not None and root_of[xi] == vi
            entries.append(GlobalEdgeEntry(
                parent_splitter=vi, child_splitter=wi, portal=xi,
                portal_label=local_schemes[vi].label_of(xi),
                port=port_of(xi, wi)))
        global_edges_of[u] = tuple(entries)

    labels: Dict[int, DistTreeLabel] = {}
    for v in tree.vertices():
        w = root_of[v]
        labels[v] = DistTreeLabel(
            vertex=v,
            local=local_schemes[w].label_of(v),
            global_entry=v_entry[w],
            global_edges=global_edges_of[w],
        )

    return DistributedTreeRouting(tree=tree, tables=tables, labels=labels,
                                  splitters=chosen,
                                  max_subtree_depth=max_depth)


@dataclass
class ReferenceForestReport:
    """:func:`build_forest_routing_reference`'s eager schemes (tree id ->
    :class:`DistributedTreeRouting`) plus the Remark-3 round charge."""

    schemes: Dict[int, DistributedTreeRouting]
    rounds: int
    ledger: CostLedger
    splitter_count: int
    max_subtree_depth: int
    max_overlap: int


def build_forest_routing_reference(trees: Dict[int, RootedTree],
                                   num_graph_vertices: int,
                                   rng: random.Random,
                                   bfs_tree: Optional[BFSTree] = None,
                                   port_of: Optional[PortFunction] = None,
                                   capacity_words: int = 2,
                                   gamma: Optional[float] = None
                                   ) -> ReferenceForestReport:
    """:func:`~repro.core.tree_routing.build_forest_routing` over the
    per-subtree oracle builder.

    Identical sampling and Remark-3 accounting, but one eager
    :func:`build_distributed_tree_routing_reference` per tree and the
    charges summed off its objects — what the differential harness
    compares the columns and their arithmetic against.
    """
    splitters, s = _shared_sample(_rooted_maps(trees), num_graph_vertices,
                                  rng, gamma)
    started = time.perf_counter()
    schemes = {
        tree_id: build_distributed_tree_routing_reference(
            tree, splitters, port_of=port_of)
        for tree_id, tree in trees.items()}
    built_seconds = time.perf_counter() - started
    max_depth = max((sch.max_subtree_depth for sch in schemes.values()),
                    default=0)
    splitter_words = sum(
        sch.tables[w].words + sch.labels[w].words
        for sch in schemes.values() for w in sch.splitters)
    ledger = _remark3_ledger(num_graph_vertices, s, max_depth,
                             splitter_words, built_seconds, bfs_tree,
                             capacity_words)
    return ReferenceForestReport(schemes=schemes,
                                 rounds=ledger.total_rounds, ledger=ledger,
                                 splitter_count=len(splitters),
                                 max_subtree_depth=max_depth, max_overlap=s)

"""Distributed tree routing (paper, Section 6 / Theorem 7 / Remark 3).

The Thorup–Zwick tree scheme needs a DFS of the whole tree — linear
rounds in the worst case.  Section 6 replaces it with a *two-level*
scheme that a CONGEST network computes in ``Õ(sqrt(n) + D)`` rounds
(``Õ(sqrt(n s) + D)`` for ``n`` trees with overlap ``s``):

1. Sample splitters ``U`` (probability ``γ/n`` each; one global sample
   shared by all trees, per Remark 3).  ``U(T) = (U ∩ V(T)) ∪ {z}``
   partitions ``T`` into subtrees ``T_w`` of depth ``<= B = 4(n/γ) ln n``
   w.h.p. (Claim 8).
2. **Local level** — the classic interval scheme inside each ``T_w``
   (parallel subtree-size convergecast + parallel DFS, ``O(B)`` rounds).
3. **Global level** — the virtual tree ``T'`` on ``U(T)`` (``w`` is the
   parent of ``u`` iff ``p(u) ∈ T_w``) is shipped to the BFS root which
   computes interval routing *on T'*; because a ``T'`` edge is not a real
   link, every ``T'``-edge decision carries the *local* label of the
   portal vertex (the real parent of the child splitter) so the packet
   can be walked across ``T_w`` to the right cut edge.

Routing is exact (stretch 1): tables are ``O(log n)`` words, labels
``O(log^2 n)`` words.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..congest.bfs import BFSTree
from ..congest.metrics import CostLedger, pipelined_rounds
from ..exceptions import RoutingLoopError, SchemeError
from ..trees.interval_routing import (
    TreeLabel,
    TreeTable,
    build_tree_routing,
    interval_next_hop,
)
from ..trees.rooted import RootedTree

PortFunction = Callable[[int, int], int]


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
        """The ``T'`` edge leaving ``splitter`` on the root→v path.

        Backed by a lazily built ``parent_splitter → entry`` map, so a
        forwarding decision costs one dict probe instead of a linear
        scan of ``global_edges``.  The map is not a dataclass field
        (equality and ``replace`` see only the declared fields) and is
        attached with ``object.__setattr__`` because the class is
        frozen.
        """
        by_parent = getattr(self, "_by_parent", None)
        if by_parent is None:
            by_parent = {}
            for entry in self.global_edges:
                by_parent.setdefault(entry.parent_splitter, entry)
            object.__setattr__(self, "_by_parent", by_parent)
        return by_parent.get(splitter)


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


def default_splitter_probability(n: int) -> float:
    """``γ/n`` with ``γ = sqrt(n)`` (single-tree setting of Theorem 7)."""
    return 1.0 / math.sqrt(max(n, 2))


def sample_splitters(num_vertices: int, probability: float,
                     rng: random.Random) -> Set[int]:
    """The global splitter sample ``U`` shared by all trees (Remark 3)."""
    return {v for v in range(num_vertices) if rng.random() < probability}


def build_distributed_tree_routing_reference(
        tree: RootedTree, splitters: Set[int],
        port_of: Optional[PortFunction] = None) -> DistributedTreeRouting:
    """Per-subtree oracle for :func:`build_distributed_tree_routing`.

    The original construction, kept verbatim as the semantic reference:
    it materializes a parent dict and a :class:`RootedTree` per splitter
    subtree, runs :func:`build_tree_routing` on each, and assembles each
    splitter's global label by walking ``T'`` root paths (quadratic in
    ``|U|``).  The differential harness
    (``tests/core/test_tree_routing_equivalence.py``) pins the flat
    builder's tables/labels/words to this one's, bit for bit.

    ``splitters`` is the global sample ``U``; the tree root is always
    added (``U(T) = (U ∩ V(T)) ∪ {z}``).
    """
    if port_of is None:
        def port_of(u: int, v: int) -> int:  # noqa: ANN001
            return v

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


def build_distributed_tree_routing(tree: RootedTree,
                                   splitters: Set[int],
                                   port_of: Optional[PortFunction] = None
                                   ) -> DistributedTreeRouting:
    """Construct the two-level scheme for one tree (flat construction).

    ``splitters`` is the global sample ``U``; the tree root is always
    added (``U(T) = (U ∩ V(T)) ∪ {z}``).

    Bit-identical to :func:`build_distributed_tree_routing_reference`,
    but linear-time: every per-subtree quantity (local DFS intervals,
    subtree sizes, heavy children, labels) is computed in a constant
    number of sweeps over the *whole* tree's pre-order, gated on
    subtree membership — no per-splitter parent-dict materialization,
    no per-splitter :class:`RootedTree` construction.  The key fact is
    that the full tree's pre-order, restricted to one subtree ``T_w``,
    *is* ``T_w``'s own pre-order (children are visited in sorted order
    either way), so local entry times are just per-subtree counters
    along the global order.  Global labels are assembled top-down over
    ``T'`` — a child splitter shares its parent's edge tuple (extended
    only for non-heavy crossings) instead of re-walking its root path,
    removing the reference's quadratic-in-``|U|`` step.
    """
    if port_of is None:
        def port_of(u: int, v: int) -> int:  # noqa: ANN001
            return v

    z = tree.root
    core = tree.flat_core()
    order = core.order
    chosen_set = (set(splitters) & set(order)) | {z}

    # --- subtree decomposition + all local quantities, in flat sweeps
    size_n = len(order)
    root_of_pos: List[int] = [0] * size_n       # position of the subtree root
    l_entry: List[int] = [0] * size_n           # local DFS entry time
    l_depth: List[int] = [0] * size_n           # depth inside the subtree
    counter: Dict[int, int] = {}                # subtree-root pos -> next time
    for i, v in enumerate(order):
        if v in chosen_set:
            w = i
            l_depth[i] = 0
        else:
            p = core.parent[i]
            w = root_of_pos[p]
            l_depth[i] = l_depth[p] + 1
        root_of_pos[i] = w
        t = counter.get(w, 0)
        l_entry[i] = t
        counter[w] = t + 1

    l_exit = list(l_entry)
    l_size = [1] * size_n
    for i in range(size_n - 1, 0, -1):
        p = core.parent[i]
        if root_of_pos[i] == root_of_pos[p]:    # same subtree only
            l_size[p] += l_size[i]
            if l_exit[i] > l_exit[p]:
                l_exit[p] = l_exit[i]

    l_heavy = [-1] * size_n                     # heaviest same-subtree child
    for i in range(size_n - 1, 0, -1):
        p = core.parent[i]
        if root_of_pos[i] != root_of_pos[p]:
            continue
        # reverse pre-order: among equal sizes the earliest (smallest
        # name) child is assigned last and wins, as in the reference.
        if l_heavy[p] == -1 or l_size[i] >= l_size[l_heavy[p]]:
            l_heavy[p] = i

    max_depth = max(l_depth, default=0)

    # --- local tables and labels (labels top-down, tuples shared along
    # heavy paths)
    l_tables: List[TreeTable] = [None] * size_n       # type: ignore
    l_labels: List[TreeLabel] = [None] * size_n       # type: ignore
    l_edges: List[Tuple[Tuple[int, int, int], ...]] = [()] * size_n
    for i, v in enumerate(order):
        h = l_heavy[i]
        heavy_child = None if h == -1 else order[h]
        if root_of_pos[i] == i:
            local_parent = None
            edges: Tuple[Tuple[int, int, int], ...] = ()
        else:
            p = core.parent[i]
            local_parent = order[p]
            edges = l_edges[p]
            if l_heavy[p] != i:
                edges = edges + ((local_parent, v,
                                  port_of(local_parent, v)),)
        l_edges[i] = edges
        l_tables[i] = TreeTable(
            vertex=v,
            parent=local_parent,
            parent_port=None if local_parent is None
            else port_of(v, local_parent),
            heavy_child=heavy_child,
            heavy_child_port=None if heavy_child is None
            else port_of(v, heavy_child),
            entry=l_entry[i],
            exit=l_exit[i],
        )
        l_labels[i] = TreeLabel(vertex=v, entry=l_entry[i],
                                path_edges=edges)

    # --- virtual tree T' on the splitters (|U| is small; the RootedTree
    # helpers are already flat)
    chosen = sorted(chosen_set)
    virtual_parent: Dict[int, Optional[int]] = {}
    for w in chosen:
        if w == z:
            virtual_parent[w] = None
        else:
            pw = core.parent[core.index[w]]
            virtual_parent[w] = order[root_of_pos[pw]]
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
        yi = core.parent[core.index[h]]
        heavy_portal[u] = (order[yi], l_labels[yi], port_of(order[yi], h))

    # --- global labels per splitter, assembled top-down over T'
    global_edges_of: Dict[int, Tuple[GlobalEdgeEntry, ...]] = {}
    for u in virtual_tree.dfs_order():
        vp = virtual_parent[u]
        if vp is None:
            global_edges_of[u] = ()
            continue
        entries = global_edges_of[vp]
        if v_heavy[vp] != u:
            xi = core.parent[core.index[u]]
            entries = entries + (GlobalEdgeEntry(
                parent_splitter=vp, child_splitter=u, portal=order[xi],
                portal_label=l_labels[xi],
                port=port_of(order[xi], u)),)
        global_edges_of[u] = entries

    # --- per-vertex tables and labels
    tables: Dict[int, DistTreeTable] = {}
    labels: Dict[int, DistTreeLabel] = {}
    for i, v in enumerate(order):
        w = order[root_of_pos[i]]
        p = core.parent[i]
        tree_parent = None if p == -1 else order[p]
        portal = heavy_portal.get(w)
        tables[v] = DistTreeTable(
            vertex=v,
            tree_parent=tree_parent,
            tree_parent_port=None if tree_parent is None
            else port_of(v, tree_parent),
            local=l_tables[i],
            splitter=w,
            global_entry=v_entry[w],
            global_exit=v_exit[w],
            heavy_splitter=v_heavy[w],
            heavy_portal=None if portal is None else portal[0],
            heavy_portal_label=None if portal is None else portal[1],
            heavy_portal_port=None if portal is None else portal[2],
        )
        labels[v] = DistTreeLabel(
            vertex=v,
            local=l_labels[i],
            global_entry=v_entry[w],
            global_edges=global_edges_of[w],
        )

    return DistributedTreeRouting(tree=tree, tables=tables, labels=labels,
                                  splitters=chosen,
                                  max_subtree_depth=max_depth)


@dataclass
class ForestRoutingReport:
    """All per-tree schemes plus the Remark-3 round charge."""

    schemes: Dict[int, DistributedTreeRouting]  # tree id -> scheme
    rounds: int
    ledger: CostLedger
    splitter_count: int
    max_subtree_depth: int
    max_overlap: int


def build_forest_routing(trees: Dict[int, RootedTree],
                         num_graph_vertices: int,
                         rng: random.Random,
                         bfs_tree: Optional[BFSTree] = None,
                         port_of: Optional[PortFunction] = None,
                         capacity_words: int = 2,
                         gamma: Optional[float] = None,
                         reuse_lookup=None
                         ) -> ForestRoutingReport:
    """Build the scheme for every tree with one shared splitter sample.

    ``reuse_lookup(tree_id, tree, splitters)`` may return a previously
    built :class:`DistributedTreeRouting` to substitute for building
    that tree, or ``None`` to build normally.  The caller owns the
    proof obligation: a substituted scheme must have been produced
    from *exactly equal inputs* (same tree shape in the same iteration
    order, same splitter sample, same port function) — the builder is
    a deterministic pure function of those, so equal inputs make the
    substitution bit-exact.  Used by the incremental control plane
    (:mod:`repro.dynamic`); the ledger below is recomputed from the
    final scheme set either way, so charges stay identical too.

    Implements Remark 3's accounting: with overlap ``s`` (trees per
    vertex) and ``γ = sqrt(n/s)`` splitters, random start times stagger
    the per-tree convergecasts/DFS so everything finishes in
    ``Õ(sqrt(n s) + D)`` rounds.  The returned charge uses measured
    ``B`` (deepest local subtree), measured overlap and measured word
    totals for the Lemma-1 phases.
    """
    return _forest_routing(trees, num_graph_vertices, rng,
                           build_distributed_tree_routing,
                           bfs_tree=bfs_tree, port_of=port_of,
                           capacity_words=capacity_words, gamma=gamma,
                           reuse_lookup=reuse_lookup)


def build_forest_routing_reference(trees: Dict[int, RootedTree],
                                   num_graph_vertices: int,
                                   rng: random.Random,
                                   bfs_tree: Optional[BFSTree] = None,
                                   port_of: Optional[PortFunction] = None,
                                   capacity_words: int = 2,
                                   gamma: Optional[float] = None
                                   ) -> ForestRoutingReport:
    """:func:`build_forest_routing` over the per-subtree oracle builder.

    Identical sampling, scheme assembly and Remark-3 accounting; only
    the per-tree construction differs.  Retained so the differential
    harness (and the build-throughput benchmark) can compare whole
    forests bit for bit.
    """
    return _forest_routing(trees, num_graph_vertices, rng,
                           build_distributed_tree_routing_reference,
                           bfs_tree=bfs_tree, port_of=port_of,
                           capacity_words=capacity_words, gamma=gamma)


def _forest_routing(trees: Dict[int, RootedTree],
                    num_graph_vertices: int,
                    rng: random.Random,
                    tree_builder,
                    bfs_tree: Optional[BFSTree] = None,
                    port_of: Optional[PortFunction] = None,
                    capacity_words: int = 2,
                    gamma: Optional[float] = None,
                    reuse_lookup=None
                    ) -> ForestRoutingReport:
    n = max(num_graph_vertices, 2)
    overlap = [0] * num_graph_vertices
    for tree in trees.values():
        for v in tree.vertices():
            overlap[v] += 1
    s = max(overlap) if overlap else 1
    s = max(s, 1)
    if gamma is None:
        gamma = max(1.0, math.sqrt(n / s))
    probability = min(1.0, gamma / n)
    splitters = sample_splitters(num_graph_vertices, probability, rng)

    started = time.perf_counter()
    schemes: Dict[int, DistributedTreeRouting] = {}
    for tree_id, tree in trees.items():
        cached = None
        if reuse_lookup is not None:
            cached = reuse_lookup(tree_id, tree, splitters)
        schemes[tree_id] = cached if cached is not None \
            else tree_builder(tree, splitters, port_of=port_of)
    built_seconds = time.perf_counter() - started

    ledger = CostLedger()
    height = bfs_tree.height if bfs_tree is not None else 0
    max_depth = max((sch.max_subtree_depth for sch in schemes.values()),
                    default=0)
    log_n = max(1, math.ceil(math.log2(n)))

    # Phase 0/1 (staggered starts, convergecast sizes, parallel DFS,
    # local labels): stages of alpha=20 rounds over depth-B subtrees plus
    # the sqrt(n s) stagger window (Remark 3).
    stagger = math.ceil(math.sqrt(n * s)) * log_n
    # the per-tree scheme construction is the wall-clock cost of this
    # phase; the remaining entries are round accounting only
    ledger.add("trees/phase1-local", 20 * max(max_depth, 1) + stagger,
               seconds=built_seconds)
    ledger.add("trees/phase1-labels",
               max(max_depth, 1) * log_n + stagger * log_n)

    # Phase 2 (Lemma-1 convergecast + broadcast of splitter tables/labels)
    total_words = 0
    for sch in schemes.values():
        for w in sch.splitters:
            total_words += sch.tables[w].words + sch.labels[w].words
    ledger.add("trees/phase2-global",
               2 * pipelined_rounds(total_words, capacity_words, height))
    # propagation of splitter tables/labels down their subtrees
    ledger.add("trees/phase2-propagate",
               max(max_depth, 1) * log_n + stagger)

    return ForestRoutingReport(schemes=schemes,
                               rounds=ledger.total_rounds,
                               ledger=ledger,
                               splitter_count=len(splitters),
                               max_subtree_depth=max_depth,
                               max_overlap=s)

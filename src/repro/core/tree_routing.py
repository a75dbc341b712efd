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

Both are fixed-width fields, and Remark 3 builds all cluster trees in
one staggered pass.  So the builder here is one forest-wide kernel,
:func:`build_forest_routing`, whose output is :class:`ForestColumns`:
the integer columns a compiled artifact stores, in its slot order, with
every size a sum over them.  The dataclasses below — what a vertex
would hold — are views materialised from the columns on demand, for the
live router, the handshake variant and the tests;
:func:`build_distributed_tree_routing_reference` builds them directly,
tree by tree, and is the oracle the columns are held to.
"""

from __future__ import annotations

import math
import random
import struct
import time
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..congest.bfs import BFSTree
from ..congest.metrics import CostLedger, pipelined_rounds
from ..exceptions import RoutingLoopError, SchemeError
from ..trees.interval_routing import (
    TreeLabel,
    TreeTable,
    build_tree_routing,
    interval_next_hop,
)
from ..trees.rooted import RootedTree, children_and_preorder, flat_core

PortFunction = Callable[[int, int], int]


def _default_port(u: int, v: int) -> int:
    """Ports numbered by neighbor name ("port numbers may be assigned
    by the routing process")."""
    return v


ParentMap = Dict[int, Optional[int]]     # {vertex: parent}, root ↦ None

#: One tree of a forest: a :class:`RootedTree`, or the bare parent map
#: of a tree rooted at its own tree id.
TreeInput = Union[RootedTree, ParentMap]


def _rooted_maps(trees: Dict[int, TreeInput]
                 ) -> Dict[int, Tuple[int, ParentMap]]:
    """Tree id -> ``(root, parent map)`` for either form of a tree."""
    return {tree_id: ((tree.root, tree.parent_map())
                      if isinstance(tree, RootedTree) else (tree_id, tree))
            for tree_id, tree in trees.items()}


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
                 tables: Mapping[int, DistTreeTable],
                 labels: Mapping[int, DistTreeLabel],
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
    """Per-subtree oracle for the forest kernel.

    The original construction, kept verbatim as the semantic reference:
    it materializes a parent dict and a :class:`RootedTree` per splitter
    subtree, runs :func:`build_tree_routing` on each, and assembles each
    splitter's global label by walking ``T'`` root paths (quadratic in
    ``|U|``).  The differential harness
    (``tests/core/test_tree_routing_equivalence.py``) pins the views
    and word counts of :class:`ForestColumns` to this one's, bit for bit.

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


class LazyMap(Mapping):
    """Read-only mapping over a fixed key set whose values are built by
    ``make(key)`` on first access and kept."""

    __slots__ = ("_keys", "_make", "_made")

    def __init__(self, keys, make) -> None:
        self._keys = keys          # any sized, iterable container
        self._make = make
        self._made: Dict[int, object] = {}

    def __getitem__(self, key):
        made = self._made
        if key in made:
            return made[key]
        if key not in self._keys:
            raise KeyError(key)
        value = made[key] = self._make(key)
        return value

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def _packed(values: List[int]) -> array:
    """``array('q', values)``, several times faster: one C call packs
    the whole list."""
    out = array("q")
    out.frombytes(struct.pack(f"{len(values)}q", *values))
    return out


#: The per-slot / global-edge / label-pool columns a forest shares,
#: name for name, with ``CompiledScheme._FIELDS``.
ARTIFACT_COLUMNS = (
    "slot_vertex", "slot_tree", "t_parent",
    "t_loc_entry", "t_loc_exit", "t_loc_parent", "t_loc_heavy",
    "t_splitter", "t_gentry", "t_gexit",
    "t_hsplit", "t_hportal", "t_hlab",
    "l_local", "l_ge_start", "l_ge_end",
    "ge_psplit", "ge_csplit", "ge_portal", "ge_plab",
    "lp_entry", "lp_start", "lp_w", "lp_child",
)


class ForestColumns:
    """Every tree's two-level scheme as integer columns (``array('q')``,
    ``-1`` = absent), in the artifact's slot order.

    Trees are numbered ``tid = 0, 1, ...`` in sorted order of their ids
    (``tree_center``, inverted by ``tid_of``); tree ``tid`` owns slots
    ``tree_start[tid] : tree_start[tid + 1]``, its vertices in sorted
    order, and ``slot_of[tid]`` maps vertex to slot.  The columns named
    in :data:`ARTIFACT_COLUMNS` are the ones ``CompiledScheme`` stores:
    per slot the table row (``t_*``) and the label row (``l_local``,
    ``l_ge_start : l_ge_end`` into the global-edge rows ``ge_*``), every
    local label a row of the deduplicated pool ``lp_*``.
    ``slot_table_words`` / ``slot_label_words`` are the sizes of the
    slot's :class:`DistTreeTable` / :class:`DistTreeLabel`,
    ``tree_depth`` each tree's deepest local subtree, ``splitter_words``
    the table + label words of all splitters (phase 2's payload).

    No column holds a port: the artifact stores none.  ``table_at`` /
    ``label_at`` materialise one slot's dataclasses — equal field for
    field to :func:`build_distributed_tree_routing_reference`'s — and
    ask ``port_of`` then.
    """

    def __init__(self) -> None:
        self.tree_center = array("q")
        self.tid_of: Dict[int, int] = {}
        self.tree_start = array("q", [0])
        self.tree_depth = array("q")
        self.slot_of: List[Dict[int, int]] = []
        for name in ARTIFACT_COLUMNS + ("slot_table_words",
                                        "slot_label_words"):
            setattr(self, name, array("q"))
        self.splitter_words = 0

    def _pool_label(self, vertex: int, index: int,
                    port_of: PortFunction) -> TreeLabel:
        rows = slice(self.lp_start[index], self.lp_start[index + 1])
        return TreeLabel(
            vertex=vertex, entry=self.lp_entry[index],
            path_edges=tuple((w, child, port_of(w, child)) for w, child
                             in zip(self.lp_w[rows], self.lp_child[rows])))

    def table_at(self, s: int, port_of: PortFunction) -> DistTreeTable:
        def port(u, v):              # an absent neighbor has no port
            return None if v is None else port_of(u, v)

        v = self.slot_vertex[s]
        parent, local_parent, local_heavy, heavy, portal = (
            None if x < 0 else x for x in (
                self.t_parent[s], self.t_loc_parent[s],
                self.t_loc_heavy[s], self.t_hsplit[s], self.t_hportal[s]))
        return DistTreeTable(
            vertex=v, tree_parent=parent, tree_parent_port=port(v, parent),
            local=TreeTable(
                vertex=v, parent=local_parent,
                parent_port=port(v, local_parent),
                heavy_child=local_heavy,
                heavy_child_port=port(v, local_heavy),
                entry=self.t_loc_entry[s], exit=self.t_loc_exit[s]),
            splitter=self.t_splitter[s],
            global_entry=self.t_gentry[s], global_exit=self.t_gexit[s],
            heavy_splitter=heavy, heavy_portal=portal,
            heavy_portal_label=None if heavy is None
            else self._pool_label(portal, self.t_hlab[s], port_of),
            heavy_portal_port=port(portal, heavy))

    def label_at(self, s: int, port_of: PortFunction) -> DistTreeLabel:
        v = self.slot_vertex[s]
        return DistTreeLabel(
            vertex=v, local=self._pool_label(v, self.l_local[s], port_of),
            global_entry=self.t_gentry[s],
            global_edges=tuple(
                GlobalEdgeEntry(
                    parent_splitter=self.ge_psplit[j],
                    child_splitter=self.ge_csplit[j],
                    portal=self.ge_portal[j],
                    portal_label=self._pool_label(
                        self.ge_portal[j], self.ge_plab[j], port_of),
                    port=port_of(self.ge_portal[j], self.ge_csplit[j]))
                for j in range(self.l_ge_start[s], self.l_ge_end[s])))

    def scheme_of(self, tid: int, tree: RootedTree,
                  port_of: PortFunction) -> DistributedTreeRouting:
        """Tree ``tid`` as a :class:`DistributedTreeRouting` whose
        tables and labels are built on first access."""
        slot_of = self.slot_of[tid]
        rows = slice(self.tree_start[tid], self.tree_start[tid + 1])
        return DistributedTreeRouting(
            tree=tree,
            tables=LazyMap(
                slot_of, lambda v: self.table_at(slot_of[v], port_of)),
            labels=LazyMap(
                slot_of, lambda v: self.label_at(slot_of[v], port_of)),
            splitters=sorted(set(self.t_splitter[rows])),
            max_subtree_depth=self.tree_depth[tid])


def _forest_columns(trees: Dict[int, Tuple[int, ParentMap]],
                    splitters: Set[int]) -> ForestColumns:
    """The forest kernel: every ``(root, parent map)``'s two-level
    scheme, as columns.

    Every quantity lives in a list indexed by slot and is filled by one
    sweep along ``pre`` — all trees' pre-orders laid end to end, so a
    forward sweep meets parents first and a backward sweep children
    first, whichever tree they are in.  Inside a tree the construction
    is the reference's:

    * ``U(T) = (U ∩ V(T)) ∪ {z}`` cuts ``T`` into subtrees ``T_w``.
      The full pre-order restricted to ``T_w`` *is* ``T_w``'s own
      pre-order (children are visited in sorted order either way), so
      local entry times are per-subtree counters along the global
      order and a local interval ends ``size - 1`` after it starts.
    * The local heavy child is the largest same-subtree child, ties to
      the smallest name (backward sweep, ``>=``: of equal children the
      earliest is assigned last).
    * A local label is the light edges on the path from the subtree
      root; it extends its parent's by at most one edge.
    * The virtual tree ``T'`` on the splitters (children sorted by
      name, heavy child likewise) is small; it goes through
      :func:`~repro.trees.rooted.flat_core` — and is skipped for a tree
      whose only splitter is its root.

    Labels enter the pool by value across trees, in the order a slot
    by slot flattening of the objects would first meet them: a slot's
    heavy-portal label, its local label, then — on the first slot of
    each subtree — the portal labels of the subtree's global edges.
    """
    cols = ForestColumns()
    cols.tree_center.extend(sorted(trees))
    cols.tid_of.update(zip(cols.tree_center, range(len(trees))))
    tree_start = cols.tree_start

    # --- slots (trees by id, vertices by name) and the pre-order
    vertex: List[int] = []       # the slot's vertex
    par: List[int] = []          # the slot of its tree parent, -1: root
    pre: List[int] = []          # every tree's pre-order, end to end
    for tid, center in enumerate(cols.tree_center):
        root, parent = trees[center]
        _children, order = children_and_preorder(root, parent)
        mine = sorted(order)
        slot = dict(zip(mine, range(len(vertex), len(vertex) + len(mine))))
        cols.slot_of.append(slot)
        pre.extend(map(slot.__getitem__, order))
        par.extend(map(slot.get, map(parent.__getitem__, mine),
                       repeat(-1)))
        vertex.extend(mine)
        tree_start.append(len(vertex))
        cols.slot_tree.extend([tid] * len(mine))
    total = len(vertex)

    # --- forward: subtree root, local parent / depth / entry time
    root_of = [0] * total        # the slot of the subtree root w
    lpar = [-1] * total          # the parent's slot if inside T_w
    depth = [0] * total
    entry = [0] * total
    count = [0] * total          # at a subtree root: vertices so far
    roots: List[int] = []        # subtree roots, tree by tree
    for s in pre:
        p = par[s]
        if p < 0 or vertex[s] in splitters:
            w = s
            roots.append(s)
        else:
            w = root_of[p]
            lpar[s] = p
            depth[s] = depth[p] + 1
        root_of[s] = w
        seen = count[w]
        entry[s] = seen
        count[w] = seen + 1

    # --- backward: local subtree extent (proper descendants inside
    # T_w) and heavy child
    extent = [0] * total
    heavy = [-1] * total
    for s in reversed(pre):
        p = lpar[s]
        if p >= 0:
            mine = extent[s]
            extent[p] += mine + 1
            h = heavy[p]
            if h < 0 or mine >= extent[h]:
                heavy[p] = s

    # --- forward: local labels as flat (w, child, w, child, ...) tuples
    edges: List[Tuple[int, ...]] = [()] * total
    for s in pre:
        p = lpar[s]
        if p >= 0:
            edges[s] = edges[p] if heavy[p] == s \
                else edges[p] + (vertex[p], vertex[s])

    # --- T' of every tree that has a splitter besides its root.  At a
    # subtree root: its T' interval, its heavy T' child (a slot), and
    # the chain of light T' edges from the tree root, each named by the
    # slot of its child splitter.
    g_entry = [0] * total
    g_exit = [0] * total
    g_heavy = [-1] * total
    light: Dict[int, Tuple[int, ...]] = {}
    at = 0
    for tid in range(len(cols.tree_center)):
        end = at + 1             # roots[at] is the tree's own root
        while end < len(roots) and roots[end] < tree_start[tid + 1]:
            end += 1
        if end - at > 1:
            mine = roots[at:end]
            vparent: Dict[int, Optional[int]] = {
                vertex[w]: vertex[root_of[par[w]]] for w in mine[1:]}
            vparent[vertex[mine[0]]] = None
            _children, vorder = children_and_preorder(vertex[mine[0]],
                                                      vparent)
            core = flat_core(vorder, vparent)
            vslot = [cols.slot_of[tid][name] for name in vorder]
            for j, w in enumerate(vslot):
                g_entry[w] = j
                g_exit[w] = core.exit[j]
                if core.heavy[j] >= 0:
                    g_heavy[w] = vslot[core.heavy[j]]
            light[vslot[0]] = ()
            for j in range(1, len(vslot)):
                w, up = vslot[j], vslot[core.parent[j]]
                light[w] = light[up] if g_heavy[up] == w \
                    else light[up] + (w,)
        at = end

    # --- slot order: intern the labels, lay down the global-edge rows,
    # and on the first slot of each subtree pack the fields its slots
    # share into one record
    keys = list(zip(vertex, entry, edges))
    pool: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}
    pooled: List[int] = []       # the slot whose label is pool row i

    def pool_row(s: int) -> int:
        row = pool.setdefault(keys[s], len(pooled))
        if row == len(pooled):
            pooled.append(s)
        return row

    def label_words(s: int) -> int:      # TreeLabel.words
        return 2 + 3 * len(edges[s]) // 2

    shared = struct.Struct("10q")
    l_local = [0] * total
    at_root: List[Optional[bytes]] = [None] * total
    ge_rows: List[Tuple[int, int, int, int]] = []
    for s, w in enumerate(root_of):
        first = at_root[w] is None
        if first:
            # DistTreeTable.words: names/ports + local table + intervals
            table_words = 2 + 6 + 3
            h = g_heavy[w]
            if h < 0:
                heavy_portal = (-1, -1, -1)
            else:
                y = par[h]
                heavy_portal = (vertex[h], vertex[y], pool_row(y))
                table_words += 3 + label_words(y)
        l_local[s] = pool_row(s)
        if first:
            start = len(ge_rows)
            ge_words = 0
            for c in light.get(w, ()):
                x = par[c]
                ge_rows.append((vertex[root_of[x]], vertex[c], vertex[x],
                                pool_row(x)))
                ge_words += 4 + label_words(x)       # GlobalEdgeEntry
            at_root[w] = shared.pack(
                vertex[w], g_entry[w], g_exit[w], *heavy_portal,
                start, len(ge_rows), table_words, ge_words)
            # the splitter's own table and label (its local one is empty)
            cols.splitter_words += table_words + 2 + 2 + ge_words
    if ge_rows:
        cols.ge_psplit, cols.ge_csplit, cols.ge_portal, cols.ge_plab = \
            map(_packed, zip(*ge_rows))
    pool_edges = [edges[s] for s in pooled]
    flat_edges = list(chain.from_iterable(pool_edges))
    cols.lp_entry = _packed([entry[s] for s in pooled])
    cols.lp_start = _packed([
        at // 2 for at in accumulate(map(len, pool_edges), initial=0)])
    cols.lp_w = _packed(flat_edges[0::2])
    cols.lp_child = _packed(flat_edges[1::2])

    # --- the rest of the columns: every slot's copy of its subtree's
    # record, de-interleaved by stride; then the per-slot lists
    records = array("q")
    records.frombytes(b"".join([at_root[w] for w in root_of]))
    (cols.t_splitter, cols.t_gentry, cols.t_gexit,
     cols.t_hsplit, cols.t_hportal, cols.t_hlab,
     cols.l_ge_start, cols.l_ge_end, cols.slot_table_words,
     slot_ge_words) = (records[field::10] for field in range(10))
    name = vertex + [-1]         # so that slot -1 (absent) reads -1
    cols.slot_vertex = _packed(vertex)
    cols.t_parent = _packed([name[p] for p in par])
    cols.t_loc_entry = _packed(entry)
    cols.t_loc_exit = _packed(list(map(add, entry, extent)))
    cols.t_loc_parent = _packed([name[p] for p in lpar])
    cols.t_loc_heavy = _packed([name[h] for h in heavy])
    cols.l_local = _packed(l_local)
    # DistTreeLabel.words: vertex + global entry + local + global edges
    cols.slot_label_words = _packed([
        2 + 2 + 3 * len(mine) // 2 + across
        for mine, across in zip(edges, slot_ge_words)])
    cols.tree_depth.extend(
        max(depth[tree_start[tid]:tree_start[tid + 1]])
        for tid in range(len(cols.tree_center)))
    return cols


def build_distributed_tree_routing(tree: RootedTree,
                                   splitters: Set[int],
                                   port_of: Optional[PortFunction] = None
                                   ) -> DistributedTreeRouting:
    """Construct the two-level scheme for one tree: a one-tree forest.

    ``splitters`` is the global sample ``U``; the tree root is always
    added (``U(T) = (U ∩ V(T)) ∪ {z}``).  Tables and labels are equal,
    field for field, to :func:`build_distributed_tree_routing_reference`'s.
    """
    return _forest_columns(_rooted_maps({0: tree}), splitters).scheme_of(
        0, tree, port_of or _default_port)


@dataclass
class ForestRoutingReport:
    """The forest's schemes plus the Remark-3 round charge.

    ``columns`` is what :func:`build_forest_routing` built; ``schemes``
    is then a read-only mapping that materialises a tree's
    :class:`DistributedTreeRouting` view of those columns on first
    access.  The reference builder's report holds plain dicts of eager
    schemes and no columns.
    """

    schemes: Mapping[int, DistributedTreeRouting]  # tree id -> scheme
    rounds: int
    ledger: CostLedger
    splitter_count: int
    max_subtree_depth: int
    max_overlap: int
    columns: Optional[ForestColumns] = None


def _shared_sample(trees: Dict[int, Tuple[int, ParentMap]],
                   num_graph_vertices: int, rng: random.Random,
                   gamma: Optional[float]) -> Tuple[Set[int], int]:
    """The global splitter sample ``U`` (Remark 3: ``γ = sqrt(n/s)``)
    and the measured overlap ``s`` (most trees at one vertex)."""
    overlap = [0] * num_graph_vertices
    for _root, parent in trees.values():
        for v in parent:
            overlap[v] += 1
    s = max(max(overlap, default=1), 1)
    n = max(num_graph_vertices, 2)
    if gamma is None:
        gamma = max(1.0, math.sqrt(n / s))
    probability = min(1.0, gamma / n)
    return sample_splitters(num_graph_vertices, probability, rng), s


def _remark3_ledger(num_graph_vertices: int, s: int, max_depth: int,
                    splitter_words: int, built_seconds: float,
                    bfs_tree: Optional[BFSTree],
                    capacity_words: int) -> CostLedger:
    """Remark 3's accounting: with overlap ``s`` (trees per vertex) and
    ``γ = sqrt(n/s)`` splitters, random start times stagger the
    per-tree convergecasts/DFS so everything finishes in
    ``Õ(sqrt(n s) + D)`` rounds.  The charge uses measured ``B``
    (``max_depth``, the deepest local subtree), measured overlap and
    measured word totals for the Lemma-1 phases."""
    n = max(num_graph_vertices, 2)
    ledger = CostLedger()
    height = bfs_tree.height if bfs_tree is not None else 0
    log_n = max(1, math.ceil(math.log2(n)))

    # Phase 0/1 (staggered starts, convergecast sizes, parallel DFS,
    # local labels): stages of alpha=20 rounds over depth-B subtrees plus
    # the sqrt(n s) stagger window (Remark 3).
    stagger = math.ceil(math.sqrt(n * s)) * log_n
    # building the schemes is the wall-clock cost of this phase; the
    # remaining entries are round accounting only
    ledger.add("trees/phase1-local", 20 * max(max_depth, 1) + stagger,
               seconds=built_seconds)
    ledger.add("trees/phase1-labels",
               max(max_depth, 1) * log_n + stagger * log_n)
    # Phase 2 (Lemma-1 convergecast + broadcast of splitter tables/labels)
    ledger.add("trees/phase2-global",
               2 * pipelined_rounds(splitter_words, capacity_words, height))
    # propagation of splitter tables/labels down their subtrees
    ledger.add("trees/phase2-propagate",
               max(max_depth, 1) * log_n + stagger)
    return ledger


def build_forest_routing(trees: Dict[int, TreeInput],
                         num_graph_vertices: int,
                         rng: random.Random,
                         bfs_tree: Optional[BFSTree] = None,
                         port_of: Optional[PortFunction] = None,
                         capacity_words: int = 2,
                         gamma: Optional[float] = None
                         ) -> ForestRoutingReport:
    """Build the scheme of every tree with one shared splitter sample.

    Each tree is a :class:`RootedTree`, or the bare ``{vertex:
    parent}`` map of a tree rooted at its own id — what a cluster
    system holds, so a construction never builds tree objects.  The
    result is :class:`ForestColumns`; ``report.schemes[tree_id]`` is a
    view of them whose tables and labels are materialised on access
    (and only then is ``port_of`` called).
    """
    rooted = _rooted_maps(trees)
    splitters, s = _shared_sample(rooted, num_graph_vertices, rng, gamma)
    started = time.perf_counter()
    columns = _forest_columns(rooted, splitters)
    built_seconds = time.perf_counter() - started
    port_of = port_of or _default_port

    def view(center: int) -> DistributedTreeRouting:
        tree = trees[center]
        if not isinstance(tree, RootedTree):
            tree = RootedTree(center, tree)
        return columns.scheme_of(columns.tid_of[center], tree, port_of)

    max_depth = max(columns.tree_depth, default=0)
    ledger = _remark3_ledger(num_graph_vertices, s, max_depth,
                             columns.splitter_words, built_seconds,
                             bfs_tree, capacity_words)
    return ForestRoutingReport(schemes=LazyMap(columns.tid_of, view),
                               rounds=ledger.total_rounds, ledger=ledger,
                               splitter_count=len(splitters),
                               max_subtree_depth=max_depth, max_overlap=s,
                               columns=columns)


def build_forest_routing_reference(trees: Dict[int, RootedTree],
                                   num_graph_vertices: int,
                                   rng: random.Random,
                                   bfs_tree: Optional[BFSTree] = None,
                                   port_of: Optional[PortFunction] = None,
                                   capacity_words: int = 2,
                                   gamma: Optional[float] = None
                                   ) -> ForestRoutingReport:
    """:func:`build_forest_routing` over the per-subtree oracle builder.

    Identical sampling and Remark-3 accounting, but one eager
    :func:`build_distributed_tree_routing_reference` per tree and the
    charges summed off its objects — what the differential harness
    compares the columns' views and arithmetic against.
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
    return ForestRoutingReport(schemes=schemes,
                               rounds=ledger.total_rounds, ledger=ledger,
                               splitter_count=len(splitters),
                               max_subtree_depth=max_depth, max_overlap=s)

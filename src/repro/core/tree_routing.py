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
every size a sum over them.  Production holds nothing else.  The
per-vertex table and label objects live in :mod:`repro.reference`,
built tree by tree by the per-subtree oracle
``build_distributed_tree_routing_reference``; the tests hold the
columns to them field by field.
"""

from __future__ import annotations

import math
import random
import struct
import time
from array import array
from itertools import accumulate, chain, repeat
from operator import add
from typing import Dict, List, Optional, Set, Tuple, Union

from ..congest.bfs import BFSTree
from ..congest.metrics import CostLedger, pipelined_rounds
from ..dataclass import dataclass
from ..trees.rooted import RootedTree, children_and_preorder, flat_core

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


def default_splitter_probability(n: int) -> float:
    """``γ/n`` with ``γ = sqrt(n)`` (single-tree setting of Theorem 7)."""
    return 1.0 / math.sqrt(max(n, 2))


def sample_splitters(num_vertices: int, probability: float,
                     rng: random.Random) -> Set[int]:
    """The global splitter sample ``U`` shared by all trees (Remark 3)."""
    return {v for v in range(num_vertices) if rng.random() < probability}


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
    ``slot_table_words`` / ``slot_label_words`` are the sizes, in words,
    of the Section-6 table and label the slot's vertex holds for that
    tree, ``tree_depth`` each tree's deepest local subtree,
    ``splitter_words`` the table + label words of all splitters (phase
    2's payload).

    No column holds a port: the artifact stores none, and a forwarding
    decision names the next-hop vertex.
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


@dataclass
class ForestRoutingReport:
    """The forest's columns plus the Remark-3 round charge."""

    columns: ForestColumns
    rounds: int
    ledger: CostLedger
    splitter_count: int
    max_subtree_depth: int
    max_overlap: int


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
                         capacity_words: int = 2,
                         gamma: Optional[float] = None
                         ) -> ForestRoutingReport:
    """Build the scheme of every tree with one shared splitter sample.

    Each tree is a :class:`RootedTree`, or the bare ``{vertex:
    parent}`` map of a tree rooted at its own id — what a cluster
    system holds, so a construction never builds tree objects.  The
    result is :class:`ForestColumns` and the Remark-3 charge.
    """
    rooted = _rooted_maps(trees)
    splitters, s = _shared_sample(rooted, num_graph_vertices, rng, gamma)
    started = time.perf_counter()
    columns = _forest_columns(rooted, splitters)
    built_seconds = time.perf_counter() - started
    max_depth = max(columns.tree_depth, default=0)
    ledger = _remark3_ledger(num_graph_vertices, s, max_depth,
                             columns.splitter_words, built_seconds,
                             bfs_tree, capacity_words)
    return ForestRoutingReport(columns=columns,
                               rounds=ledger.total_rounds, ledger=ledger,
                               splitter_count=len(splitters),
                               max_subtree_depth=max_depth, max_overlap=s)

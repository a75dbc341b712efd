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
the int64 columns a compiled artifact stores, in its slot order, with
every size a sum over them.  The kernel is numpy sweeps over all trees'
slots at once, one pass per tree level — what a CONGEST round does
everywhere at once:

* top-down, every tree's BFS level in turn: the subtree root, local
  depth and local entry time (the parent's entry + 1 + the sizes of
  earlier siblings), and the light edges on the path from ``w``;
* bottom-up: local subtree sizes;
* once: heavy children (largest subtree, ties to the smallest name).

``T'`` is the same sweep on the forest of splitters.  A local label is
*hash-consed*: its id interns (parent's label id, light edge) in one
table per label length, so equal labels, in any trees, get equal ids.
The label pool numbers each distinct ``(label, vertex, entry)`` by its
first occurrence in the slot-by-slot request order a flattening of the
objects would meet.

Production holds nothing else.  The per-vertex table and label objects
live in :mod:`repro.reference`, built tree by tree by the per-subtree
oracle ``build_distributed_tree_routing_reference``; the tests hold the
columns to them field by field.
"""

from __future__ import annotations

import math
import random
import time
from typing import List, Optional, Set, Tuple

import numpy as np

from ..congest.bellman_ford import _run_starts
from ..congest.bfs import BFSTree
from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import CostLedger, pipelined_rounds
from ..dataclass import dataclass
from ..exceptions import SchemeError
from .compiled import ARTIFACT_COLUMNS  # re-exported


def default_splitter_probability(n: int) -> float:
    """``γ/n`` with ``γ = sqrt(n)`` (single-tree setting of Theorem 7)."""
    return 1.0 / math.sqrt(max(n, 2))


def sample_splitters(num_vertices: int, probability: float,
                     rng: random.Random) -> Set[int]:
    """The global splitter sample ``U`` shared by all trees (Remark 3)."""
    return {v for v in range(num_vertices) if rng.random() < probability}


class ForestColumns:
    """Every tree's two-level scheme as int64 numpy columns (``-1`` =
    absent), in the artifact's slot order.

    Trees are numbered ``tid = 0, 1, ...`` in sorted order of their ids
    (``tree_center``); tree ``tid`` owns slots ``tree_start[tid] :
    tree_start[tid + 1]``, its vertices in sorted order, so the key
    ``(slot_tree, slot_vertex)`` is sorted and :meth:`slots` finds a
    ``(tree, vertex)`` by binary search.  The columns named in
    :data:`ARTIFACT_COLUMNS` are the ones ``CompiledScheme`` stores:
    per slot the table row (``t_*``) and the label row (``l_local``,
    ``l_ge_start : l_ge_end`` into the global-edge rows ``ge_*``), every
    local label a row of the pool ``lp_*`` — deduplicated by value
    across trees and numbered by first occurrence in slot order.
    ``slot_table_words`` / ``slot_label_words`` are the sizes, in words,
    of the Section-6 table and label the slot's vertex holds for that
    tree, ``tree_depth`` each tree's deepest local subtree,
    ``splitter_words`` the table + label words of all splitters (phase
    2's payload).

    No column holds a port: the artifact stores none, and a forwarding
    decision names the next-hop vertex.
    """

    def __init__(self, splitter_words: int, **columns: np.ndarray) -> None:
        self.splitter_words = splitter_words
        self.__dict__.update(columns)

    def slots(self, centers: np.ndarray, vertices: np.ndarray
              ) -> np.ndarray:
        """The slot of ``vertices[i]`` in the tree of ``centers[i]``;
        ``-1`` where ``centers[i]`` has no tree or its tree does not
        hold ``vertices[i]``."""
        trees = len(self.tree_center)
        if not trees or not len(centers):
            return np.full(len(centers), -1, dtype=np.int64)
        tid = np.minimum(np.searchsorted(self.tree_center, centers),
                         trees - 1)
        stride = int(self.slot_vertex.max()) + 1
        keys = self.slot_tree * stride + self.slot_vertex
        wanted = np.where((self.tree_center[tid] == centers)
                          & (vertices >= 0) & (vertices < stride),
                          tid * stride + vertices, -1)
        found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[found] == wanted, found, -1)


@dataclass
class _Forest:
    """A validated forest as slots: trees by id, vertices by name."""

    centers: np.ndarray          # tree ids, sorted
    tree_start: np.ndarray       # tree tid owns tree_start[tid : tid + 2]
    tree: np.ndarray             # the slot's tree (its tid)
    vertex: np.ndarray           # the slot's vertex
    par: np.ndarray              # the slot of its tree parent, -1: root
    levels: List[np.ndarray]     # every tree's BFS levels, level by level


def _levels(par: np.ndarray, roots: np.ndarray) -> List[np.ndarray]:
    """The BFS levels of the forest ``par`` (parent index, ``-1`` for
    none) from ``roots``: level ``d + 1`` holds the children of level
    ``d``'s nodes, parent by parent in level order, each parent's
    children in index order.  What hangs off no root is in no level."""
    kids = np.flatnonzero(par >= 0)
    kids = kids[np.argsort(par[kids], kind="stable")]
    ptr = np.zeros(len(par) + 1, dtype=np.int64)
    np.cumsum(np.bincount(par[kids], minlength=len(par)), out=ptr[1:])
    levels = [roots]
    while True:
        lo, hi = ptr[levels[-1]], ptr[levels[-1] + 1]
        count = hi - lo
        total = int(count.sum())
        if not total:
            return levels
        skip = np.repeat(lo - np.cumsum(count) + count, count)
        levels.append(kids[skip + np.arange(total)])


def parent_cells(tree: np.ndarray, vertex: np.ndarray, up: np.ndarray,
                 n: int) -> np.ndarray:
    """Per cell of a forest sorted by (tree, vertex), the cell of its
    parent ``up`` in the same tree, ``-1`` where the tree has none (a
    name outside ``[0, n)`` would alias another tree's key)."""
    key = tree * n + vertex
    wanted = np.where((up >= 0) & (up < n), tree * n + up, -1)
    at = np.minimum(np.searchsorted(key, wanted), len(key) - 1)
    return np.where(key[at] == wanted, at, -1)


def _forest_slots(centers: np.ndarray, tree_start: np.ndarray,
                  vertex: np.ndarray, up: np.ndarray,
                  num_graph_vertices: int) -> _Forest:
    """The forest's columns as slots, validated: every vertex is a name
    in ``[0, n)``, a tree's vertices ascend, every parent is in the
    tree, and every vertex hangs off the tree's root, its first
    vertex with parent ``-1``."""
    n = num_graph_vertices
    total = len(vertex)
    if np.any(centers[1:] <= centers[:-1]):
        raise SchemeError("tree ids must ascend")
    tree = np.repeat(np.arange(len(centers), dtype=np.int64),
                     np.diff(tree_start))
    outside = np.flatnonzero((vertex < 0) | (vertex >= n))
    if len(outside):
        bad = outside[0]
        raise SchemeError(
            f"vertex {int(vertex[bad])} of tree {int(centers[tree[bad]])} "
            f"is not a vertex name in [0, {n})")
    key = tree * n + vertex
    unsorted = np.flatnonzero(key[1:] <= key[:-1])
    if len(unsorted):
        bad = unsorted[0] + 1
        raise SchemeError(
            f"vertex {int(vertex[bad])} of tree {int(centers[tree[bad]])} "
            f"is repeated or out of order")
    # -1 (a second root) is left to the reachability check
    par = parent_cells(tree, vertex, up, n)
    stray = np.flatnonzero((par < 0) & (up != -1))
    if len(stray):
        bad = stray[0]
        raise SchemeError(f"vertex {int(vertex[bad])} has parent "
                          f"{int(up[bad])} outside the tree")
    roots = np.flatnonzero(up == -1)
    levels = _levels(par, roots[_run_starts(tree[roots])])
    if sum(map(len, levels)) < total:
        seen = np.zeros(total, dtype=bool)
        seen[np.concatenate(levels)] = True
        tid = tree[np.argmin(seen)]
        mine = slice(tree_start[tid], tree_start[tid + 1])
        orphans = vertex[mine][~seen[mine]].tolist()
        raise SchemeError(
            f"vertices {sorted(orphans)[:5]}... unreachable from root")
    return _Forest(centers, tree_start, tree, vertex, par, levels)


@dataclass
class _Intervals:
    """The interval scheme of every subtree of a cut forest, per node."""

    root: np.ndarray             # the root of the node's subtree
    depth: np.ndarray            # depth below it
    entry: np.ndarray            # pre-order time in the subtree
    extent: np.ndarray           # proper descendants in the subtree
    heavy: np.ndarray            # the heavy child, -1 at a leaf
    light: np.ndarray            # the last light node on the path, or -1
    edges: np.ndarray            # light edges on the path from the root


def _intervals(par: np.ndarray, joined: np.ndarray,
               levels: List[np.ndarray]) -> _Intervals:
    """The classic interval scheme of every subtree of the forest
    ``par`` cut above each node not ``joined`` to its parent, as sweeps
    over ``levels`` (:func:`_levels`): children visited in index order,
    the heavy child the largest, ties to the smallest index.  A node is
    *light* when it is joined but not its parent's heavy child."""
    nodes = len(par)
    size = np.ones(nodes, dtype=np.int64)
    for level in reversed(levels[1:]):
        mine = level[joined[level]]
        np.add.at(size, par[mine], size[mine])

    # siblings are contiguous in level order, in index order: in each
    # sibling group the heavy child is the first largest joined one,
    # and a node's offset is the size of its earlier joined siblings
    order = np.concatenate(levels)
    held = np.where(joined[order], size[order], 0)
    group = _run_starts(par[order])
    starts = np.flatnonzero(group)
    spans = np.diff(starts, append=len(order))
    top = np.flatnonzero(
        held == np.repeat(np.maximum.reduceat(held, starts), spans))
    top = top[held[top] > 0]
    first = _run_starts(par[order[top]])
    heavy = np.full(nodes, -1, dtype=np.int64)
    heavy[par[order[top[first]]]] = order[top[first]]
    before = np.cumsum(held) - held
    offset = np.empty(nodes, dtype=np.int64)
    offset[order] = before - np.repeat(before[starts], spans)
    del order, held, group, top, before

    root = np.arange(nodes, dtype=np.int64)
    depth = np.zeros(nodes, dtype=np.int64)
    entry = np.zeros(nodes, dtype=np.int64)
    light = np.full(nodes, -1, dtype=np.int64)
    edges = np.zeros(nodes, dtype=np.int64)
    for level in levels[1:]:
        mine = level[joined[level]]
        up = par[mine]
        root[mine] = root[up]
        depth[mine] = depth[up] + 1
        entry[mine] = entry[up] + 1 + offset[mine]
        inherit = heavy[up] == mine
        light[mine] = np.where(inherit, light[up], mine)
        edges[mine] = edges[up] + ~inherit
    return _Intervals(root, depth, entry, size - 1, heavy, light, edges)


def _chains(last: np.ndarray, length: np.ndarray, par: np.ndarray,
            light: np.ndarray) -> np.ndarray:
    """The light nodes on each path, top-down, laid end to end: path
    ``i`` is ``length[i]`` nodes ending at ``last[i]``, and the one
    above a light node ``c`` is ``light[par[c]]``."""
    nodes = np.empty(int(length.sum()), dtype=np.int64)
    live = length > 0
    at = (np.cumsum(length) - 1)[live]
    left = length[live]
    at_node = last[live]
    while len(at_node):
        nodes[at] = at_node
        more = left > 1
        at, left = at[more] - 1, left[more] - 1
        at_node = light[par[at_node[more]]]
    return nodes


def _label_ids(vertex: np.ndarray, par: np.ndarray, local: _Intervals,
               n: int) -> np.ndarray:
    """Per slot, an id of its local label's value (0: the empty label):
    a light node's label interns (its parent's label id, the parent's
    name, its name) in the table of its label length, and a heavy
    child's label is its parent's, so equal labels get equal ids."""
    ids = np.zeros(len(vertex), dtype=np.int64)
    lights = np.flatnonzero(local.light == np.arange(len(vertex)))
    length = local.edges[lights]
    interned = 0
    for edges in range(1, int(length.max(initial=0)) + 1):
        mine = lights[length == edges]
        up = par[mine]
        above = local.light[up]
        key = np.where(above >= 0, ids[above], 0) * n + vertex[up]
        key = np.unique(key, return_inverse=True)[1]
        distinct, key = np.unique(key * n + vertex[mine],
                                  return_inverse=True)
        ids[mine] = interned + 1 + key
        interned += len(distinct)
    return np.where(local.light >= 0, ids[local.light], 0)


def _forest_columns(forest: _Forest, splitters: Set[int]) -> ForestColumns:
    """The forest kernel: every tree's two-level scheme, as columns.

    Inside a tree the construction is the reference's, as array sweeps
    over every tree's slots at once (:func:`_intervals`):

    * ``U(T) = (U ∩ V(T)) ∪ {z}`` cuts ``T`` into subtrees ``T_w``;
      each gets the interval scheme in pre-order with children by name,
      the heavy child the largest, ties to the smallest name.
    * A local label is the light edges on the path from the subtree
      root (:func:`_label_ids` numbers them by value).
    * The virtual tree ``T'`` on each tree's splitters is the same
      sweep on the forest whose nodes are the subtree roots, each the
      child of the subtree holding its real parent; its light edges
      from the tree root are a label's global-edge rows.

    The pool holds each distinct ``(label, vertex, entry)`` once, rows
    numbered by first occurrence in the order a slot by slot flattening
    of the objects would request them: a slot's heavy-portal label, its
    local label, then — on the first slot of each subtree — the portal
    labels of the subtree's global edges.

    ``forest`` is consumed: each slot column is dropped after its last
    use, so the peak is the output columns plus a few slot columns.
    """
    vertex, par = forest.vertex, forest.par
    columns = dict(tree_center=forest.centers, tree_start=forest.tree_start,
                   slot_vertex=vertex, slot_tree=forest.tree)
    total = len(vertex)
    n = int(vertex.max(initial=-1)) + 1
    named = np.append(vertex, -1)        # so that slot -1 (absent) reads -1
    cut = (par < 0) | np.isin(vertex, list(splitters))
    local = _intervals(par, ~cut, forest.levels)
    forest.par = forest.levels = None
    labels = _label_ids(vertex, par, local, n)

    # --- T': node j is the subtree rooted at slot roots[j]
    roots = np.flatnonzero(cut)
    subtree = np.searchsorted(roots, local.root)      # per slot
    above = np.where(par[roots] >= 0,
                     np.searchsorted(roots, local.root[par[roots]]), -1)
    virtual = _intervals(above, above >= 0,
                         _levels(above, np.flatnonzero(above < 0)))
    heavy_split = np.where(virtual.heavy >= 0, roots[virtual.heavy], -1)
    heavy_portal = np.where(heavy_split >= 0, par[heavy_split], -1)
    has_heavy = heavy_split >= 0
    across = virtual.edges               # global edges of the subtree

    # --- global edges: subtree by subtree in order of first slot, each
    # subtree's light T' edges top-down
    first = np.full(len(roots), total, dtype=np.int64)
    np.minimum.at(first, subtree, np.arange(total))
    by_first = np.argsort(first)
    ge_start = np.empty(len(roots), dtype=np.int64)
    ge_start[by_first] = np.cumsum(across[by_first]) - across[by_first]
    ge_child = roots[_chains(virtual.light[by_first], across[by_first],
                             above, virtual.light)]
    ge_port = par[ge_child]

    # --- the pool: one row per distinct (label, vertex, entry), numbered
    # by first request.  Slot s requests its own label at s·m + 1; the
    # first slot f of a subtree requests its heavy portal's label at
    # f·m and its j-th global edge's portal's at f·m + 2 + j.
    key = np.unique(labels * n + vertex, return_inverse=True)[1]
    key = np.unique(key * n + local.entry, return_inverse=True)[1]
    m = int(across.max(initial=0)) + 2
    seen = np.full(int(key.max(initial=-1)) + 1, total * m)
    np.minimum.at(seen, key, np.arange(total) * m + 1)
    np.minimum.at(seen, key[heavy_portal[has_heavy]], first[has_heavy] * m)
    owner = np.repeat(by_first, across[by_first])
    np.minimum.at(seen, key[ge_port], first[owner] * m + 2
                  + np.arange(len(ge_port)) - ge_start[owner])
    row = np.empty(len(seen), dtype=np.int64)
    row[np.argsort(seen)] = np.arange(len(seen))
    row = row[key]                       # per slot: its label's pool row
    pooled = np.empty(len(seen), dtype=np.int64)
    pooled[row] = np.arange(total)       # a slot holding each row's label
    del labels, key, seen, owner
    pool_edges = local.edges[pooled]
    pool_child = _chains(local.light[pooled], pool_edges, par, local.light)

    # --- word counts (the reference objects' ``.words``)
    label_words = 2 + 3 * local.edges                 # TreeLabel.words
    # DistTreeTable.words: names/ports + local table + intervals (+ the
    # heavy portal and its label)
    table_words = 2 + 6 + 3 + np.where(
        has_heavy, 3 + label_words[heavy_portal], 0)
    # GlobalEdgeEntry.words, summed over each subtree's global edges
    ge_words = np.append(0, np.cumsum(4 + label_words[ge_port]))
    ge_words = ge_words[ge_start + across] - ge_words[ge_start]

    columns.update(
        tree_depth=np.maximum.reduceat(local.depth,
                                       columns["tree_start"][:-1]),
        t_loc_entry=local.entry,
        t_loc_exit=local.entry + local.extent,
        t_loc_heavy=named[local.heavy],
        t_splitter=vertex[local.root],
        l_local=row,
        ge_psplit=vertex[local.root[ge_port]],
        ge_csplit=vertex[ge_child],
        ge_portal=vertex[ge_port],
        ge_plab=row[ge_port],
        lp_entry=local.entry[pooled],
        lp_start=np.append(0, np.cumsum(pool_edges)),
        lp_w=vertex[par[pool_child]],
        lp_child=vertex[pool_child],
    )
    del local, pooled, pool_child
    columns.update(
        t_parent=named[par],
        t_loc_parent=np.where(cut, -1, named[par]),
        t_gentry=virtual.entry[subtree],
        t_gexit=(virtual.entry + virtual.extent)[subtree],
        t_hsplit=named[heavy_split][subtree],
        t_hportal=named[heavy_portal][subtree],
        t_hlab=np.append(row, -1)[heavy_portal][subtree],
        l_ge_start=ge_start[subtree],
        l_ge_end=(ge_start + across)[subtree],
        slot_table_words=table_words[subtree],
        # DistTreeLabel.words: vertex + global entry + local + global
        # edges
        slot_label_words=2 + label_words + ge_words[subtree],
    )
    # the splitters' own tables and labels (local labels empty)
    return ForestColumns(int(table_words.sum() + ge_words.sum())
                         + 4 * len(roots), **columns)


@dataclass
class ForestRoutingReport:
    """The forest's columns plus the Remark-3 round charge."""

    columns: ForestColumns
    rounds: int
    ledger: CostLedger
    splitter_count: int
    max_subtree_depth: int
    max_overlap: int


def _shared_sample(vertices: np.ndarray, num_graph_vertices: int,
                   rng: random.Random,
                   gamma: Optional[float]) -> Tuple[Set[int], int]:
    """The global splitter sample ``U`` (Remark 3: ``γ = sqrt(n/s)``)
    and the measured overlap ``s`` (most trees at one vertex), from
    every tree's vertices laid end to end."""
    s = int(np.bincount(vertices, minlength=num_graph_vertices)
            .max(initial=1))
    n = max(num_graph_vertices, 2)
    if gamma is None:
        gamma = max(1.0, math.sqrt(n / s))
    probability = min(1.0, gamma / n)
    return sample_splitters(num_graph_vertices, probability, rng), s


def _remark3_ledger(num_graph_vertices: int, s: int, max_depth: int,
                    splitter_words: int, built_seconds: float,
                    bfs_tree: Optional[BFSTree]) -> CostLedger:
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
               2 * pipelined_rounds(splitter_words, DEFAULT_CAPACITY_WORDS,
                                    height))
    # propagation of splitter tables/labels down their subtrees
    ledger.add("trees/phase2-propagate",
               max(max_depth, 1) * log_n + stagger)
    return ledger


def build_forest_routing(centers: np.ndarray, tree_start: np.ndarray,
                         vertex: np.ndarray, parent: np.ndarray,
                         num_graph_vertices: int,
                         rng: random.Random,
                         bfs_tree: Optional[BFSTree] = None,
                         gamma: Optional[float] = None
                         ) -> ForestRoutingReport:
    """Build the scheme of every tree with one shared splitter sample.

    The forest is int64 columns, a cluster system's CSR as it stands:
    tree ``t`` (id ``centers[t]``, ascending) owns the cells
    ``tree_start[t] : tree_start[t + 1]`` of ``vertex`` (ascending in
    the tree) and ``parent`` (each vertex's tree parent, ``-1`` at the
    root).  Every vertex must be a name in ``[0, num_graph_vertices)``;
    a malformed tree is a :class:`SchemeError` naming the vertex.
    (:func:`repro.reference.trees_as_columns` makes the columns of
    ``{tree id: tree}`` dicts.)  The result is :class:`ForestColumns`
    and the Remark-3 charge.
    """
    started = time.perf_counter()
    forest = _forest_slots(centers, tree_start, vertex, parent,
                           num_graph_vertices)
    splitters, s = _shared_sample(forest.vertex, num_graph_vertices, rng,
                                  gamma)
    columns = _forest_columns(forest, splitters)
    built_seconds = time.perf_counter() - started
    max_depth = int(columns.tree_depth.max(initial=0))
    ledger = _remark3_ledger(num_graph_vertices, s, max_depth,
                             columns.splitter_words, built_seconds,
                             bfs_tree)
    return ForestRoutingReport(columns=columns,
                               rounds=ledger.total_rounds, ledger=ledger,
                               splitter_count=len(splitters),
                               max_subtree_depth=max_depth, max_overlap=s)

"""Dense routing plane: the one served routing artifact.

Elkin–Neiman's stretch lives entirely in Algorithm 1 — *which* cluster
tree carries the packet.  Section 6's in-tree routing is exact (the
packet follows the unique tree path); its labels, splitters and portals
exist only so a vertex can decide *locally* from O~(n^{1/k}) words,
which a serve process holding the whole artifact never needs.  So a
served route here is **find-tree + the tree path between two slots**,
from eleven columns: the find-tree rows (``f_*``), the member-pair and
(tree, vertex) -> slot indexes (``m_*``, ``sx_*``: sorted composite
keys, direct-addressed when ``n`` affords it), and per slot
``dp_vertex``, ``dp_parent_slot`` (``-1`` at a root), ``dp_parent_w``.

Load validates the parent pointers (an :class:`ArtifactError` names the
offending slot) and derives per-slot depth, distance to the root and,
under ``_DERIVED_BUDGET``, the CSR of root-first ancestor chains.  A
batch is then answered with no per-hop loop: Algorithm 1 as a k-wide
vectorised select, the LCA as the common-prefix length of two padded
chain gathers, both legs of every path from one ragged gather, the
weight as a difference of root distances.  Two size selections pick
the body: a batch below ``_VECTOR_MIN_PAIRS`` pairs, or any batch once
the chains are past the budget, takes the same route from a plain
parent walk (the pairs that are cheaper walked one by one, and the
memory the chains would take); the walk reads lists of the columns
built on its first call, nothing else does.  numpy is required, and
this is the one kernel choice left in the package: the construction's
matrix kernels only block their source rows under a cell limit, which
changes no bit of their results.

The plane is compiled from the :class:`CompiledScheme` construction
artifact, and its results are **bit-identical** to
:meth:`CompiledScheme.route_many`, the protocol-faithful Section-6
replay kept as the oracle (``tests/core/test_dense_equivalence.py``):
find-tree is the same select over the same rows; the protocol's path
*is* the tree path (``tests/core/test_tree_path_invariant.py``); and
edge weights are integers (``WeightedGraph.add_edge`` admits nothing
else; checked at load), so every float64 partial sum is exact and the
root-distance difference equals the replay's hop-order sum.  Same
``RCRA`` container (``kind = "dense-routing"``) and
``export_buffers()`` / ``attach()`` transport as the other artifacts;
see ``core/README.md``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import (
    ArtifactError,
    HopBudgetError,
    ParameterError,
    SchemeError,
)
from .compiled import (
    _FLOAT,
    _INT,
    _KIND_DENSE,
    CompiledRoute,
    CompiledScheme,
    _as_batch,
    _check_range,
    _CompiledArtifact,
    pairs_array,
    validate_pairs,
)

#: Batches this long or longer take the vectorised path.  Placed from a
#: sweep over 1, 2, 4, ..., 512 pairs per call on the harness's four
#: graph/mix combinations (CHANGES.md, PR 17): the parent walk costs
#: ~3.8 us a pair from the first pair, a vectorised pass ~65 us plus
#: ~1 us a pair.  The walk wins at 16 pairs on all four (1.35-1.7x;
#: 14-18x on a single pair), the two tie at 32 (0.97-1.34x), the
#: vectorised pass wins at 64 (1.5-2.05x).
_VECTOR_MIN_PAIRS = 32

#: Elements a table derived at load may hold (the direct-address
#: find-tree mirrors, the ancestor-chain CSR).  Past it find-tree
#: binary-searches and paths come from the parent walk.
_DERIVED_BUDGET = 1 << 24

#: Cells (rows x deepest chain) of one vectorised pass: bounds the
#: padded chain gathers whatever the tree depth, and keeps the lists a
#: pass builds cache-resident while its routes are assembled (bulk
#: calls ran 5-10% faster at 2-4k rows than in one 16k-row pass).
_CHUNK_CELLS = 1 << 16


_new_route = partial(tuple.__new__, CompiledRoute)


def _direct_table(sorted_keys, size: int):
    """Direct-address mirror of a sorted key column: ``table[key]`` is
    the key's row position (one gather replaces the searchsorted; the
    row's other columns come from positional gathers), ``-1`` where no
    row has the key.  ``None`` past the budget."""
    if not len(sorted_keys) or size > _DERIVED_BUDGET:
        return None
    table = np.full(size, -1, dtype=np.int32)
    table[sorted_keys] = np.arange(len(sorted_keys), dtype=np.int32)
    return table


def _lookup(table, sorted_keys, keys):
    """``(hit, pos)`` per key, ``sorted_keys[pos] == key`` wherever
    ``hit``: one gather off the direct table when there is one, a
    binary search of the sorted column otherwise."""
    if table is not None:
        pos = table[keys]
        return pos >= 0, pos
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool), keys
    pos = np.minimum(np.searchsorted(sorted_keys, keys),
                     len(sorted_keys) - 1)
    return sorted_keys[pos] == keys, pos


def _check_increasing(name: str, keys, hi) -> None:
    """An :class:`ArtifactError` naming the first row of the key array
    ``keys`` (column ``name``) not above the row before it (``-1``
    before the first) or not below ``hi``."""
    if not len(keys) or (keys[0] >= 0 and keys[-1] < hi
                         and bool((keys[1:] > keys[:-1]).all())):
        return
    prev = np.r_[-1, keys[:-1]]
    row = int(np.flatnonzero(~((prev < keys) & (keys < hi)))[0])
    raise ArtifactError(
        f"dense plane column {name} row {row}: key {int(keys[row])} "
        f"breaks the strictly increasing order in [0, {hi})")


def _sweep(parent, weight, sx_key, sx_slot, n: int):
    """Depth and root distance of every slot by one top-down level
    sweep from the roots, each child's distance its parent's plus its
    edge weight — a walk's float sums, in a walk's order.

    This is load's check of the parent pointers: each in range, inside
    its slot's tree, over a non-negative integer edge weight, and every
    slot reaching a root at a distance exact in float64.  A violation
    is an :class:`ArtifactError` naming the slot that a walk from each
    slot in turn up to its root meets first (:func:`_defect`)."""
    num_slots = len(parent)
    if not num_slots:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    out = (sx_slot < 0) | (sx_slot >= num_slots)
    if out.any():
        slot = int(sx_slot[out.argmax()])
        raise ArtifactError(
            f"dense plane slot index names slot {slot}, out of range")
    # slot -> tree: -1 for a slot the index omits; a slot it lists
    # twice takes its last row's tree
    tree = np.full(num_slots, -1, dtype=np.int64)
    key_tree = sx_key // n
    if np.bincount(sx_slot, minlength=num_slots).max() > 1:
        last = len(sx_slot) - 1 - np.unique(sx_slot[::-1],
                                            return_index=True)[1]
        sx_slot, key_tree = sx_slot[last], key_tree[last]
    tree[sx_slot] = key_tree
    child = np.flatnonzero((parent >= 0) & (parent < num_slots))
    up = parent[child]
    w = weight[child]
    bad = (parent < -1) | (parent >= num_slots)
    bad[child] = ~((tree[up] == tree[child]) & np.isfinite(w)
                   & (w >= 0) & (np.floor(w) == w))
    sound = ~bad[child]
    child, up = child[sound], up[sound]
    # sound children grouped by parent (CSR), then one gather per level
    by_parent = child[np.argsort(up, kind="stable")]
    count = np.bincount(up, minlength=num_slots)
    first = np.cumsum(count) - count
    depth = np.full(num_slots, -1, dtype=np.int64)
    dist = np.zeros(num_slots)
    level = np.nonzero(parent == -1)[0]
    depth[level] = 0
    d = 0
    while True:
        c = count[level]
        total = int(c.sum())
        if not total:
            break
        d += 1
        level = by_parent[np.repeat(first[level] - (np.cumsum(c) - c), c)
                          + np.arange(total)]
        depth[level] = d
        dist[level] = dist[parent[level]] + weight[level]
    # a slot the sweep never reaches is on a cycle or below a bad one
    fail = (depth < 0) | (dist >= 2.0 ** 52)
    if fail.any():
        start = int(fail.argmax())
        if depth[start] >= 0:
            raise ArtifactError(
                f"dense plane slot {start}: distance to the root is too "
                "large for exact float64 sums")
        raise _defect(start, parent, weight, tree, bad)
    return depth, dist


def _defect(start: int, parent, weight, tree, bad) -> ArtifactError:
    """The error of the first ``bad`` slot on the way from ``start`` to
    its root — parent out of range, in another tree, or over a weight
    that is not a non-negative integer — or, when the way closes a
    cycle first, of ``start``."""
    seen = set()
    x = start
    while not bad[x]:
        if x in seen:
            return ArtifactError(f"dense plane slot {start}: parent "
                                 "pointers run into a cycle")
        seen.add(x)
        x = int(parent[x])
    p = int(parent[x])
    if not -1 <= p < len(parent):
        why = f"parent {p} is out of range"
    elif tree[p] != tree[x]:
        why = (f"parent {p} belongs to tree {int(tree[p])}, not tree "
               f"{int(tree[x])}")
    else:
        why = (f"parent edge weight {float(weight[x])!r} is not a "
               "non-negative integer")
    return ArtifactError(f"dense plane slot {x}: {why}")


def _no_slot(what: str, vertex, tid) -> SchemeError:
    return SchemeError(f"dense compile: {what} names vertex {int(vertex)}, "
                       f"which has no slot in tree {int(tid)}")


def _compile_columns(compiled: CompiledScheme):
    """:meth:`DenseRoutingPlane.from_compiled` as array sweeps over the
    scheme's integer columns and its sorted (tree, vertex) -> slot
    index.  A row naming a slot or tree center that does not exist is
    a :class:`SchemeError` naming it; equal keys resolve to the last
    row, as the scheme's dicts do."""
    n = compiled.num_vertices
    vertex = compiled._slot_vertex
    tree = compiled._slot_tree
    owner = compiled._ml_owner
    member = compiled._ml_member
    sx_key, order, _centers, _tids = compiled._key_index
    slot_of = compiled._slot_rows
    tid_of = compiled._tree_rows
    parent_vertex = compiled._t_parent
    child = np.nonzero(parent_vertex >= 0)[0]
    parent_slot, miss = slot_of(tree[child], parent_vertex[child])
    if miss >= 0:
        raise _no_slot("tree parent", parent_vertex[child[miss]],
                       tree[child[miss]])
    f_pivot = compiled._lbl_pivot
    f_slot = compiled._lbl_slot
    live = np.nonzero((f_pivot >= 0) & (f_slot >= 0))[0]
    f_tids, miss = tid_of(f_pivot[live])
    if miss >= 0:
        raise SchemeError(f"dense compile: find-tree pivot "
                          f"{int(f_pivot[live[miss]])} is not a tree center")
    # load checked that owners are centers and members have slots
    m_tid, _miss = tid_of(owner)
    m_tslot, _miss = slot_of(m_tid, member)
    m_sslot, miss = slot_of(m_tid, owner)
    if miss >= 0:
        raise _no_slot("member-label owner", owner[miss], m_tid[miss])
    dp_parent_slot = np.full(len(vertex), -1, dtype=np.int64)
    dp_parent_slot[child] = parent_slot
    f_tid = np.full(len(f_pivot), -1, dtype=np.int64)
    f_tid[live] = f_tids
    m_key = owner * n + member
    rows = np.lexsort((m_sslot, m_tslot, m_key))
    return {"dp_vertex": vertex, "dp_parent_slot": dp_parent_slot,
            "dp_parent_w": compiled._t_parent_w,
            "sx_key": sx_key, "sx_slot": order,
            "f_pivot": f_pivot, "f_slot": f_slot, "f_tid": f_tid,
            "m_key": m_key[rows], "m_tslot": m_tslot[rows],
            "m_sslot": m_sslot[rows]}


class DenseRoutingPlane(_CompiledArtifact):
    """Find-tree rows plus the cluster trees as parent pointers.

    Construct with :meth:`from_compiled`, persist with ``save``,
    restore with ``load``, ship across processes with
    ``export_buffers``/``attach`` — all inherited from the shared
    artifact machinery.  Serving is :meth:`route`/:meth:`route_many`,
    bit-identical to the :class:`CompiledScheme` it was compiled from.
    """

    kind = _KIND_DENSE

    #: (name, typecode) of every payload array, in serialization order.
    #: ``dp_*`` are per-slot columns; ``sx_*`` the (tree, vertex) ->
    #: slot index; ``f_*`` the n*k find-tree rows;
    #: ``m_key``/``m_tslot``/``m_sslot`` the member pairs.  Sentinel:
    #: ``-1`` = absent (as in :class:`CompiledScheme`).
    _FIELDS = (
        ("dp_vertex", _INT),
        ("dp_parent_slot", _INT), ("dp_parent_w", _FLOAT),
        ("sx_key", _INT), ("sx_slot", _INT),
        ("f_pivot", _INT), ("f_slot", _INT), ("f_tid", _INT),
        ("m_key", _INT), ("m_tslot", _INT), ("m_sslot", _INT),
    )
    #: What the parent walk reads, in the order it unpacks them: every
    #: column but the edge weights, and the depths and root distances
    #: load derives.
    _LISTED = ("dp_vertex", "dp_parent_slot", "sx_key", "sx_slot",
               "f_pivot", "f_slot", "f_tid", "m_key", "m_tslot",
               "m_sslot", "depth", "dist")

    def _post_init(self) -> None:
        if len(self._f_pivot) != self._n * self._k:
            raise ArtifactError(
                f"dense plane holds {len(self._f_pivot)} find-tree "
                f"rows; n*k = {self._n * self._k}")
        num_slots = len(self._dp_vertex)
        for name in ("dp_parent_slot", "dp_parent_w", "sx_key",
                     "sx_slot"):
            if len(getattr(self, "_" + name)) != num_slots:
                raise ArtifactError(
                    f"dense plane column {name} holds "
                    f"{len(getattr(self, '_' + name))} entries for "
                    f"{num_slots} slots")
        self._chain = None
        self._check_indexes()
        self._depth, self._dist = _sweep(
            self._dp_parent_slot, self._dp_parent_w, self._sx_key,
            self._sx_slot, max(self._n, 1))
        self._build_chains()
        # the two find-tree lookups: member pairs (key s*n + t) and
        # (tree, vertex) -> slot (key tid*n + v, every tid that appears)
        self._m_direct = _direct_table(self._m_key, self._n * self._n)
        self._sx_direct = _direct_table(self._sx_key,
                                        self._num_trees() * self._n)

    # -- load-time validation and derivation ---------------------------
    def _num_trees(self) -> int:
        """Tree ids the (tree, vertex) index spans: the last key's + 1."""
        return (int(self._sx_key[-1]) // max(self._n, 1) + 1
                if len(self._sx_key) else 0)

    def _check_indexes(self) -> None:
        """The columns serving indexes without checking: ``sx_key`` and
        ``m_key`` strictly increasing (lookups binary-search and
        direct-address them; ``m_key`` below ``n²``), member slots in
        ``[0, slots)``, find-tree slots in ``[-1, slots)`` and tree ids
        in ``[-1, trees)``.  Each check names the first bad row."""
        _check_increasing("sx_key", self._sx_key, float("inf"))
        _check_increasing("m_key", self._m_key, self._n * self._n)
        num_slots = len(self._dp_vertex)
        for name, lo, hi in (("m_tslot", 0, num_slots),
                             ("m_sslot", 0, num_slots),
                             ("f_slot", -1, num_slots),
                             ("f_tid", -1, self._num_trees())):
            _check_range("dense plane", name, getattr(self, "_" + name),
                         lo, hi)

    def _build_chains(self) -> None:
        """The CSR of root-first ancestor chains, within budget:
        ``chain[off[s] : off[s] + depth[s] + 1]`` = root, ..., ``s``."""
        parent = self._dp_parent_slot
        depth = self._depth
        total = int(depth.sum()) + len(depth)
        if not 0 < total <= _DERIVED_BUDGET:
            return
        off = np.cumsum(depth + 1) - (depth + 1)
        chain = np.empty(total, dtype=np.int32)
        # filled tip first, one level of every chain per pass
        cur = np.arange(len(depth))
        pos = off + depth
        while cur.size:
            chain[pos] = cur
            keep = parent[cur] >= 0
            cur = parent[cur[keep]]
            pos = pos[keep] - 1
        self._chain = chain
        self._chain_off = off
        self._chunk_rows = max(1, _CHUNK_CELLS // (int(depth.max()) + 1))

    # -- construction --------------------------------------------------
    @classmethod
    def from_compiled(cls, compiled: CompiledScheme
                      ) -> "DenseRoutingPlane":
        """Compile a :class:`CompiledScheme` into the dense plane.

        One stable argsort of the slots' ``tree * n + vertex`` keys
        plus ``searchsorted`` resolves every parent, find-tree row and
        member row (:func:`_compile_columns`), and the plane keeps
        those arrays.
        """
        if not isinstance(compiled, CompiledScheme):
            raise ParameterError(
                "DenseRoutingPlane.from_compiled wants a "
                f"CompiledScheme, got {type(compiled).__name__}")
        return cls(compiled.meta, _compile_columns(compiled))

    def __repr__(self) -> str:
        return (f"DenseRoutingPlane(n={self._n}, k={self._k}, "
                f"slots={len(self._dp_vertex)})")

    # -- serving -------------------------------------------------------
    def route(self, source: int, target: int,
              max_hops: Optional[int] = None) -> CompiledRoute:
        """Serve one packet; delegates to :meth:`route_many`."""
        return self.route_many([(source, target)],
                               max_hops=max_hops)[0]

    def route_many(self, pairs: Sequence[Tuple[int, int]],
                   max_hops: Optional[int] = None
                   ) -> List[CompiledRoute]:
        """Serve a batch of ``(source, target)`` queries.

        Same contract as :meth:`CompiledScheme.route_many` — results in
        input order, bit-identical to the flat oracle; a caller-supplied
        ``max_hops`` shorter than a route raises
        :class:`~repro.exceptions.HopBudgetError`.
        """
        pairs = _as_batch(pairs)
        if self._chain is not None and len(pairs) >= _VECTOR_MIN_PAIRS:
            # the validation prepass and the kernel share one array
            arr = pairs_array(pairs, self._n)
            if arr is not None:
                return self._route_many_validated(arr, max_hops)
        validate_pairs(pairs, self._n, "route")
        return self._route_many_validated(pairs, max_hops)

    def _route_many_validated(self, pairs, max_hops: Optional[int] = None
                              ) -> List[CompiledRoute]:
        """:meth:`route_many` body, minus the input prepass (the
        serving pool and the broker dispatch straight here)."""
        count = len(pairs)
        if self._chain is None or count < _VECTOR_MIN_PAIRS:
            return self._route_walk(pairs, max_hops)
        if isinstance(pairs, np.ndarray):
            arr = pairs.astype(np.int64, copy=False)
        else:
            # validated input: a third of the cost of asarray()
            arr = np.fromiter(itertools.chain.from_iterable(pairs),
                               np.int64, 2 * count).reshape(count, 2)
        out: List[CompiledRoute] = []
        for at in range(0, count, self._chunk_rows):
            out.extend(self._route_chains(
                arr[at:at + self._chunk_rows], max_hops))
        return out

    @staticmethod
    def _over_budget(s, t, hops, max_hops) -> HopBudgetError:
        return HopBudgetError(
            f"route {s} -> {t} takes {hops} hops, over the max_hops="
            f"{max_hops} budget; retry with a larger budget")

    # -- parent walk (small batches, chains past budget) -------------
    def _route_walk(self, pairs, max_hops):
        n = self._n
        k = self._k
        (vertex, parent, sx_key, sx_slot, f_pivot, f_slot, f_tid, m_key,
         m_tslot, m_sslot, depth, dist) = self._lists.values()
        n_sx = len(sx_key)
        n_m = len(m_key)

        results: List[CompiledRoute] = []
        for source, target in pairs:
            s, t = int(source), int(target)
            if s == t:
                results.append(CompiledRoute(s, t, [s], 0.0, None, -1))
                continue
            # --- Algorithm 1 (find-tree) ------------------------------
            mk = s * n + t
            i = bisect_left(m_key, mk, 0, n_m)
            if i < n_m and m_key[i] == mk:
                st = m_tslot[i]
                cs = m_sslot[i]
                center = s
                level = -1
            else:
                base = t * k
                for level in range(k):
                    pivot = f_pivot[base + level]
                    sl = f_slot[base + level]
                    if pivot < 0 or sl < 0:
                        continue
                    sk = f_tid[base + level] * n + s
                    i = bisect_left(sx_key, sk, 0, n_sx)
                    in_tree = i < n_sx and sx_key[i] == sk
                    if in_tree or pivot == s:
                        if not in_tree:
                            raise SchemeError(
                                f"find-tree: source {s} has no slot "
                                "in its own tree")
                        st = sl
                        cs = sx_slot[i]
                        center = pivot
                        break
                else:
                    raise SchemeError(
                        f"find-tree failed for {s} -> {t}; "
                        "A_{k-1} cluster should contain every vertex")
            # --- the tree path: climb whichever end is deeper (the
            # source on a tie) until the two meet
            a, b = cs, st
            path = []
            tail = []
            while a != b:
                if depth[a] >= depth[b]:
                    path.append(vertex[a])
                    a = parent[a]
                    if a < 0:
                        raise SchemeError(
                            f"routing {s} -> {t}: slots {cs} and {st} "
                            "share no tree root")
                else:       # deeper than a slot, so not a root
                    tail.append(vertex[b])
                    b = parent[b]
            path.append(vertex[a])
            tail.reverse()
            path += tail
            if max_hops is not None and len(path) - 1 > max_hops:
                raise self._over_budget(s, t, len(path) - 1, max_hops)
            results.append(CompiledRoute(
                s, t, path, dist[cs] + dist[st] - 2.0 * dist[a],
                center, level))
        return results

    # -- vectorised serve path -----------------------------------------
    def _find_tree(self, s, t):
        """Algorithm 1 for every row at once: member lookup, then a
        k-wide select over the label rows, compressed to unresolved
        rows.  Returns ``(source slot, target slot, center, level)``."""
        n = self._n
        hit, pos = _lookup(self._m_direct, self._m_key, s * n + t)
        st = np.full(len(s), -1, dtype=np.int64)
        cs = st.copy()
        center = st.copy()
        level = st.copy()
        open_idx = np.arange(len(s))
        if hit.any():
            found = open_idx[hit]
            pos = pos[hit]
            st[found] = self._m_tslot[pos]
            cs[found] = self._m_sslot[pos]
            center[found] = s[found]
            open_idx = open_idx[~hit]
        for lvl in range(self._k):
            if open_idx.size == 0:
                break
            s_open = s[open_idx]
            row = t[open_idx] * self._k + lvl
            pivot = self._f_pivot[row]
            sl = self._f_slot[row]
            # absent rows (f_tid = -1) look up tree 0; masked by the
            # pivot >= 0 condition below
            sx_keys = np.maximum(self._f_tid[row], 0) * n + s_open
            in_tree, spos = _lookup(self._sx_direct, self._sx_key,
                                    sx_keys)
            cond = ((pivot >= 0) & (sl >= 0)
                    & (in_tree | (pivot == s_open)))
            if not cond.any():
                continue
            bad = cond & ~in_tree
            if bad.any():
                raise SchemeError(
                    f"find-tree: source {int(s_open[bad][0])} has no "
                    "slot in its own tree")
            found = open_idx[cond]
            st[found] = sl[cond]
            cs[found] = self._sx_slot[spos[cond]]
            center[found] = pivot[cond]
            level[found] = lvl
            open_idx = open_idx[~cond]
        if open_idx.size:
            i = int(open_idx[0])
            raise SchemeError(
                f"find-tree failed for {int(s[i])} -> {int(t[i])}; "
                "A_{k-1} cluster should contain every vertex")
        return cs, st, center, level

    def _route_chains(self, arr, max_hops):
        """Route an (N, 2) int64 array off the ancestor chains."""
        src = arr[:, 0]
        dst = arr[:, 1]
        work = None
        s, t = src, dst
        self_rows = src == dst
        if self_rows.any():
            work = np.nonzero(~self_rows)[0]
            s = src[work]
            t = dst[work]
        num_rows = len(s)
        routes: List[CompiledRoute] = []
        if num_rows:
            cs, st, center, level = self._find_tree(s, t)
            chain = self._chain
            depth = self._depth
            dist = self._dist
            ds = depth[cs]
            dt = depth[st]
            oc = self._chain_off[cs]
            ot = self._chain_off[st]
            # --- LCA: common prefix of the two root-first chains.
            # Equality is monotone along a chain (same ancestor at one
            # level means same ancestors above it), and padded columns
            # repeat the last comparable level, so each row of ``same``
            # reads True..True False..False and its popcount, capped at
            # the comparable length, is the prefix length.
            span = np.minimum(ds, dt) + 1
            levels = np.minimum(np.arange(int(span.max())),
                                span[:, None] - 1)
            same = chain[oc[:, None] + levels] == chain[ot[:, None]
                                                        + levels]
            common = np.minimum(np.count_nonzero(same, axis=1), span)
            if not common.all():
                i = int(np.argmin(common))
                raise SchemeError(
                    f"routing {int(s[i])} -> {int(t[i])}: slots "
                    f"{int(cs[i])} and {int(st[i])} share no tree root")
            up = ds - common + 1          # hops source -> LCA
            hops = up + dt - common + 1
            if max_hops is not None and (hops > max_hops).any():
                i = int(np.argmax(hops > max_hops))
                raise self._over_budget(int(s[i]), int(t[i]),
                                        int(hops[i]), max_hops)
            # --- one ragged gather for every path: per row an up-leg
            # segment read backwards from the source's chain tip and a
            # down-leg segment read forwards from below the LCA.  A
            # segment's cells are |base + running index|: bases of
            # backward segments are negated, so the sum counts down.
            seg_len = np.empty((num_rows, 2), dtype=np.int64)
            seg_len[:, 0] = up + 1
            seg_len[:, 1] = hops - up
            seg_len = seg_len.ravel()
            seg_end = np.cumsum(seg_len)
            seg_start = (seg_end - seg_len).reshape(num_rows, 2)
            base = np.empty((num_rows, 2), dtype=np.int64)
            base[:, 0] = -(oc + ds + seg_start[:, 0])
            base[:, 1] = ot + common - seg_start[:, 1]
            cells = np.abs(np.repeat(base.ravel(), seg_len)
                           + np.arange(int(seg_end[-1])))
            verts = self._dp_vertex[chain[cells]].tolist()
            ends = seg_end[1::2].tolist()
            weight = (dist[cs] + dist[st]
                      - 2.0 * dist[chain[oc + common - 1]])
            paths = []
            begin = 0
            for end in ends:
                paths.append(verts[begin:end])
                begin = end
            # CompiledRoute._make without its Python frame: this line
            # is a third of a bulk call
            routes = list(map(_new_route, zip(
                s.tolist(), t.tolist(), paths, weight.tolist(),
                center.tolist(), level.tolist())))
        if work is None:
            return routes
        results: List[Optional[CompiledRoute]] = [None] * len(src)
        for idx in np.nonzero(self_rows)[0].tolist():
            v = int(src[idx])
            results[idx] = CompiledRoute(v, v, [v], 0.0, None, -1)
        for idx, route in zip(work.tolist(), routes):
            results[idx] = route
        return results  # type: ignore[return-value]

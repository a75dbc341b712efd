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
weight as a difference of root distances.  Without numpy, below
``_VECTOR_MIN_PAIRS``, or past the budget, the same route comes from a
plain parent walk.

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
from typing import Dict, List, Optional, Sequence, Tuple

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

try:  # vector serve path when numpy is present
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

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
    table = _np.full(size, -1, dtype=_np.int32)
    table[sorted_keys] = _np.arange(len(sorted_keys), dtype=_np.int32)
    return table


def _lookup(table, sorted_keys, keys):
    """``(hit, pos)`` per key, ``sorted_keys[pos] == key`` wherever
    ``hit``: one gather off the direct table when there is one, a
    binary search of the sorted column otherwise."""
    if table is not None:
        pos = table[keys]
        return pos >= 0, pos
    if not len(sorted_keys):
        return _np.zeros(len(keys), dtype=bool), keys
    pos = _np.minimum(_np.searchsorted(sorted_keys, keys),
                      len(sorted_keys) - 1)
    return sorted_keys[pos] == keys, pos


def _check_increasing(name: str, keys: Sequence, hi, arr=None) -> None:
    """An :class:`ArtifactError` naming the first row of the key column
    ``name`` not above the row before it (``-1`` before the first) or
    not below ``hi``.  ``arr``, the column as numpy, decides the passing
    case in three reductions."""
    if arr is not None and (not len(arr) or (
            arr[0] >= 0 and arr[-1] < hi
            and bool((arr[1:] > arr[:-1]).all()))):
        return
    prev = -1
    for row, key in enumerate(keys):
        if not prev < key < hi:
            raise ArtifactError(
                f"dense plane column {name} row {row}: key {key} breaks "
                f"the strictly increasing order in [0, {hi})")
        prev = key


def _sweep(npv, n: int):
    """Depth and root distance of every slot by one top-down level
    sweep from the roots, each child's distance its parent's plus its
    edge weight — the walk's float sums, in the walk's order — or
    ``None`` when any check of :meth:`DenseRoutingPlane._derive` fails
    (or the index lists a slot twice, whose tree the walk's order
    decides).  A slot the sweep never reaches is on a cycle."""
    np = _np
    parent = npv["dp_parent_slot"]
    weight = npv["dp_parent_w"]
    sx_slot = npv["sx_slot"]
    num_slots = len(parent)
    if not num_slots:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if (sx_slot.min() < 0 or sx_slot.max() >= num_slots
            or parent.min() < -1 or parent.max() >= num_slots
            or np.bincount(sx_slot, minlength=num_slots).max() > 1):
        return None
    tree = np.empty(num_slots, dtype=np.int64)   # every slot listed once
    tree[sx_slot] = npv["sx_key"] // n
    child = np.nonzero(parent >= 0)[0]
    up = parent[child]
    w = weight[child]
    if not ((tree[up] == tree[child]).all() and np.isfinite(w).all()
            and (w >= 0).all() and (np.floor(w) == w).all()):
        return None
    # children grouped by parent (CSR), then one gather per level
    by_parent = child[np.argsort(up, kind="stable")]
    count = np.bincount(up, minlength=num_slots)
    first = np.cumsum(count) - count
    depth = np.full(num_slots, -1, dtype=np.int64)
    dist = np.zeros(num_slots)
    level = np.nonzero(parent < 0)[0]
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
    if (depth < 0).any() or (dist >= 2.0 ** 52).any():
        return None
    return depth, dist


def _compile_columns(compiled: CompiledScheme):
    """:meth:`DenseRoutingPlane.from_compiled` as array sweeps over the
    scheme's integer columns and its sorted (tree, vertex) -> slot
    index, or ``None`` when some row names a slot or tree center that
    does not exist (the plain body names it).  Equal keys resolve to
    the last row, as the scheme's dicts do."""
    np = _np
    n = compiled.num_vertices
    col = compiled._column
    vertex = col("slot_vertex")
    tree = col("slot_tree")
    owner = col("ml_owner")
    member = col("ml_member")
    if not len(vertex) or len(owner) != len(member):
        return None
    sx_key, order, _centers, _tids = compiled._key_index
    slot_of = compiled._slot_rows
    tid_of = compiled._tree_rows
    parent_vertex = col("t_parent")
    child = np.nonzero(parent_vertex >= 0)[0]
    parent_slot = slot_of(tree[child], parent_vertex[child])
    f_pivot = col("lbl_pivot")
    f_slot = col("lbl_slot")
    live = np.nonzero((f_pivot >= 0) & (f_slot >= 0))[0]
    f_tids = tid_of(f_pivot[live])
    m_tid = tid_of(owner)
    if parent_slot is None or f_tids is None or m_tid is None:
        return None
    m_tslot = slot_of(m_tid, member)
    m_sslot = slot_of(m_tid, owner)
    if m_tslot is None or m_sslot is None:
        return None
    dp_parent_slot = np.full(len(vertex), -1, dtype=np.int64)
    dp_parent_slot[child] = parent_slot
    f_tid = np.full(len(f_pivot), -1, dtype=np.int64)
    f_tid[live] = f_tids
    m_key = owner * n + member
    rows = np.lexsort((m_sslot, m_tslot, m_key))
    return {"dp_vertex": vertex, "dp_parent_slot": dp_parent_slot,
            "dp_parent_w": col("t_parent_w"),
            "sx_key": sx_key, "sx_slot": order,
            "f_pivot": f_pivot, "f_slot": f_slot, "f_tid": f_tid,
            "m_key": m_key[rows], "m_tslot": m_tslot[rows],
            "m_sslot": m_sslot[rows]}


def _compile_lists(compiled: CompiledScheme) -> Dict[str, list]:
    """:meth:`DenseRoutingPlane.from_compiled` in plain Python over the
    scheme's dicts: the no-numpy body, and the one that names a row
    :func:`_compile_columns` could not resolve."""
    n = compiled.num_vertices
    slots = compiled._slots          # vertex -> {tid: slot}
    tid_of = compiled._tid_of        # tree center -> tid
    slot_vertex = compiled._slot_vertex
    slot_tree = compiled._slot_tree
    num_slots = len(slot_vertex)

    def vslot(vertex: int, tid: int, what: str) -> int:
        try:
            return slots[vertex][tid]
        except (IndexError, KeyError):
            raise SchemeError(
                f"dense compile: {what} names vertex {vertex}, "
                f"which has no slot in tree {tid}") from None

    cols: Dict[str, list] = {}
    cols["dp_vertex"] = [int(v) for v in slot_vertex]
    cols["dp_parent_w"] = [float(w) for w in compiled._t_parent_w]
    cols["dp_parent_slot"] = [
        -1 if int(v) < 0
        else vslot(int(v), int(slot_tree[s]), "tree parent")
        for s, v in enumerate(compiled._t_parent)]

    # (tree, vertex) -> slot membership index.
    keyed = sorted((int(slot_tree[s]) * n + int(slot_vertex[s]), s)
                   for s in range(num_slots))
    cols["sx_key"] = [key for key, _slot in keyed]
    cols["sx_slot"] = [slot for _key, slot in keyed]

    # Find-tree rows (n * k), annotated with the pivot's tree id.
    f_pivot = [int(x) for x in compiled._lbl_pivot]
    f_slot = [int(x) for x in compiled._lbl_slot]
    f_tid: List[int] = []
    for pivot, sl in zip(f_pivot, f_slot):
        if pivot < 0 or sl < 0:
            f_tid.append(-1)
            continue
        tid = tid_of.get(pivot)
        if tid is None:
            raise SchemeError(
                f"dense compile: find-tree pivot {pivot} is not a "
                "tree center")
        f_tid.append(int(tid))
    cols["f_pivot"], cols["f_slot"], cols["f_tid"] = \
        f_pivot, f_slot, f_tid

    # Member-label pairs: source * n + target -> (target slot,
    # source slot) in the source's own tree (load checked that every
    # owner is a tree center and every member has a slot in its tree).
    m_rows: List[Tuple[int, int, int]] = []
    for owner, member in zip(compiled._ml_owner, compiled._ml_member):
        owner, member = int(owner), int(member)
        tid = tid_of[owner]
        m_rows.append((owner * n + member,
                       vslot(member, tid, "member label"),
                       vslot(owner, tid, "member-label owner")))
    m_rows.sort()
    cols["m_key"] = [row[0] for row in m_rows]
    cols["m_tslot"] = [row[1] for row in m_rows]
    cols["m_sslot"] = [row[2] for row in m_rows]
    return cols


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
    _SWEPT = tuple(name for name, _tc in _FIELDS)

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
        if _np is None:
            self._check_indexes({})
            self._derive()
            return
        np = _np
        # the arrays the compile or the payload decoder handed over
        npv = {name: self._column(name) for name in self._SWEPT}
        self._npv = self._arrays = npv
        self._check_indexes(npv)
        swept = _sweep(npv, max(self._n, 1))
        if swept is None:
            # the walk names the slot (or, where the index lists a slot
            # twice, decides by its own order)
            self._derive()
            swept = (np.asarray(self._depth, dtype=np.int64),
                     np.asarray(self._dist, dtype=np.float64))
        else:
            self._depth, self._dist = swept[0].tolist(), swept[1].tolist()
        self._build_chains(*swept)
        # the two find-tree lookups: member pairs (key s*n + t) and
        # (tree, vertex) -> slot (key tid*n + v, every tid that appears)
        self._m_direct = _direct_table(npv["m_key"], self._n * self._n)
        self._sx_direct = _direct_table(npv["sx_key"],
                                        self._num_trees() * self._n)

    # -- load-time validation and derivation ---------------------------
    def _num_trees(self) -> int:
        """Tree ids the (tree, vertex) index spans: the last key's + 1."""
        return (self._sx_key[-1] // max(self._n, 1) + 1
                if len(self._sx_key) else 0)

    def _check_indexes(self, npv) -> None:
        """The columns serving indexes without checking: ``sx_key`` and
        ``m_key`` strictly increasing (lookups binary-search and
        direct-address them; ``m_key`` below ``n²``), member slots in
        ``[0, slots)``, find-tree slots in ``[-1, slots)`` and tree ids
        in ``[-1, trees)``.  ``npv``, the numpy columns (empty without
        numpy), decides each check by reductions; the lists name the
        first bad row, so the message is the same on both bodies."""
        _check_increasing("sx_key", self._sx_key, float("inf"),
                          npv.get("sx_key"))
        _check_increasing("m_key", self._m_key, self._n * self._n,
                          npv.get("m_key"))
        num_slots = len(self._dp_vertex)
        for name, lo, hi in (("m_tslot", 0, num_slots),
                             ("m_sslot", 0, num_slots),
                             ("f_slot", -1, num_slots),
                             ("f_tid", -1, self._num_trees())):
            _check_range("dense plane", name, getattr(self, "_" + name),
                         lo, hi, npv.get(name))

    def _derive(self) -> None:
        """Validate the parent pointers — in range, inside their tree,
        acyclic, integer edge weights; a violation names the slot — and
        derive per-slot depth and root distance by a memoised walk to
        the root.  The plain body: it decides without numpy, and with
        numpy it runs only when :func:`_sweep` found something, to name
        it, so the two bodies raise the same message."""
        def bad(slot, why):
            return ArtifactError(f"dense plane slot {slot}: {why}")
        n = max(self._n, 1)
        parent = self._dp_parent_slot
        parent_w = self._dp_parent_w
        num_slots = len(parent)
        tree = [-1] * num_slots
        for key, slot in zip(self._sx_key, self._sx_slot):
            if not 0 <= slot < num_slots:
                raise ArtifactError(
                    f"dense plane slot index names slot {slot}, out "
                    "of range")
            tree[slot] = key // n
        depth = [-1] * num_slots        # -1 unseen, -2 on the trail
        dist = [0.0] * num_slots
        for start in range(num_slots):
            trail = []
            x = start
            while depth[x] == -1:
                p = parent[x]
                if not -1 <= p < num_slots:
                    raise bad(x, f"parent {p} is out of range")
                if p < 0:
                    depth[x] = 0
                    break
                if tree[p] != tree[x]:
                    raise bad(x, f"parent {p} belongs to tree "
                              f"{tree[p]}, not tree {tree[x]}")
                w = parent_w[x]
                if not (w >= 0 and float(w).is_integer()):
                    raise bad(x, f"parent edge weight {w!r} is not a "
                              "non-negative integer")
                depth[x] = -2
                trail.append(x)
                x = p
            if depth[x] == -2:
                # smallest slot that never reaches a root
                raise bad(start, "parent pointers run into a cycle")
            d, r = depth[x], dist[x]
            for y in reversed(trail):
                d += 1
                r += parent_w[y]
                depth[y], dist[y] = d, r
            if r >= 2.0 ** 52:
                raise bad(start, "distance to the root is too large "
                          "for exact float64 sums")
        self._depth = depth
        self._dist = dist

    def _build_chains(self, depth, dist) -> None:
        """The CSR of root-first ancestor chains, within budget:
        ``chain[off[s] : off[s] + depth[s] + 1]`` = root, ..., ``s``."""
        np = _np
        parent = self._npv["dp_parent_slot"]
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
        self._depth_np = depth
        self._dist_np = dist
        self._chunk_rows = max(1, _CHUNK_CELLS // (int(depth.max()) + 1))

    # -- construction --------------------------------------------------
    @classmethod
    def from_compiled(cls, compiled: CompiledScheme
                      ) -> "DenseRoutingPlane":
        """Compile a :class:`CompiledScheme` into the dense plane.

        With numpy, one stable argsort of the slots' ``tree * n +
        vertex`` keys plus ``searchsorted`` resolves every parent,
        find-tree row and member row (:func:`_compile_columns`), and
        the plane keeps those arrays.  Without numpy, or when a row
        names a slot or tree that does not exist, the plain body over
        the scheme's dicts runs and names the row.  Same bytes either
        way.
        """
        if not isinstance(compiled, CompiledScheme):
            raise ParameterError(
                "DenseRoutingPlane.from_compiled wants a "
                f"CompiledScheme, got {type(compiled).__name__}")
        cols = None if _np is None else _compile_columns(compiled)
        if cols is None:
            cols = _compile_lists(compiled)
        return cls(compiled.meta, cols)

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
        if isinstance(pairs, _np.ndarray):
            arr = pairs.astype(_np.int64, copy=False)
        else:
            # validated input: a third of the cost of asarray()
            arr = _np.fromiter(itertools.chain.from_iterable(pairs),
                               _np.int64, 2 * count).reshape(count, 2)
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

    # -- parent walk (small batches, no numpy, chains past budget) -----
    def _route_walk(self, pairs, max_hops):
        n = self._n
        k = self._k
        vertex = self._dp_vertex
        parent = self._dp_parent_slot
        depth = self._depth
        dist = self._dist
        sx_key = self._sx_key
        sx_slot = self._sx_slot
        f_pivot = self._f_pivot
        f_slot = self._f_slot
        f_tid = self._f_tid
        m_key = self._m_key
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
                st = int(self._m_tslot[i])
                cs = int(self._m_sslot[i])
                center = s
                level = -1
            else:
                base = t * k
                for level in range(k):
                    pivot = int(f_pivot[base + level])
                    sl = int(f_slot[base + level])
                    if pivot < 0 or sl < 0:
                        continue
                    sk = int(f_tid[base + level]) * n + s
                    i = bisect_left(sx_key, sk, 0, n_sx)
                    in_tree = i < n_sx and sx_key[i] == sk
                    if in_tree or pivot == s:
                        if not in_tree:
                            raise SchemeError(
                                f"find-tree: source {s} has no slot "
                                "in its own tree")
                        st = sl
                        cs = int(sx_slot[i])
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
                    path.append(int(vertex[a]))
                    a = int(parent[a])
                    if a < 0:
                        raise SchemeError(
                            f"routing {s} -> {t}: slots {cs} and {st} "
                            "share no tree root")
                else:       # deeper than a slot, so not a root
                    tail.append(int(vertex[b]))
                    b = int(parent[b])
            path.append(int(vertex[a]))
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
        np = _np
        col = self._npv
        n = self._n
        hit, pos = _lookup(self._m_direct, col["m_key"], s * n + t)
        st = np.full(len(s), -1, dtype=np.int64)
        cs = st.copy()
        center = st.copy()
        level = st.copy()
        open_idx = np.arange(len(s))
        if hit.any():
            found = open_idx[hit]
            pos = pos[hit]
            st[found] = col["m_tslot"][pos]
            cs[found] = col["m_sslot"][pos]
            center[found] = s[found]
            open_idx = open_idx[~hit]
        for lvl in range(self._k):
            if open_idx.size == 0:
                break
            s_open = s[open_idx]
            row = t[open_idx] * self._k + lvl
            pivot = col["f_pivot"][row]
            sl = col["f_slot"][row]
            # absent rows (f_tid = -1) look up tree 0; masked by the
            # pivot >= 0 condition below
            sx_keys = np.maximum(col["f_tid"][row], 0) * n + s_open
            in_tree, spos = _lookup(self._sx_direct, col["sx_key"],
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
            cs[found] = col["sx_slot"][spos[cond]]
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
        np = _np
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
            depth = self._depth_np
            dist = self._dist_np
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
            verts = self._npv["dp_vertex"][chain[cells]].tolist()
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

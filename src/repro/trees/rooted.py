"""Rooted-tree representation shared by all tree-routing schemes.

Cluster trees live on arbitrary subsets of the graph's vertices, so the
tree keeps its own vertex set (original names) with a parent map.  The
helpers here — subtree sizes, heavy children, DFS entry/exit intervals —
are exactly the ingredients of the Thorup–Zwick tree-routing scheme the
paper recaps at the start of Section 6.

All derived quantities (pre-order, entry/exit intervals, subtree sizes,
heavy children, depths) come from one *flat* computation: vertices are
mapped to dense pre-order indices once, and every pass is a single
sweep over parallel index arrays instead of per-vertex dict walks.  The
tree is immutable after construction, so the flat core is computed once
and cached.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dataclass import dataclass
from ..exceptions import SchemeError


@dataclass
class _FlatCore:
    """Parallel arrays over the DFS pre-order (index 0 is the root).

    ``order[i]`` is the vertex at pre-order position ``i``; all other
    arrays are indexed by position.  ``parent[0] == -1``; ``heavy``
    holds positions (``-1`` at leaves); ``exit[i]`` is the largest
    pre-order position inside ``i``'s subtree.
    """

    order: List[int]
    index: Dict[int, int]
    parent: List[int]
    exit: List[int]
    size: List[int]
    heavy: List[int]
    depth: List[int]


def children_and_preorder(root: int, parent: Dict[int, Optional[int]]
                          ) -> Tuple[Dict[int, List[int]], List[int]]:
    """Validate a ``{vertex: parent}`` map (root ↦ ``None``) and walk it
    once: returns every internal vertex's children in sorted order and
    the DFS pre-order that visits them so.

    A parent *map* puts every vertex in exactly one child list, so the
    walk cannot revisit anything; whatever it does not reach — a second
    root, a parent outside the map, a cycle among non-root vertices —
    hangs off no path from ``root``, and the pre-order comes out short.
    """
    if parent.get(root, "missing") is not None:
        raise SchemeError(f"root {root} must map to None in parent")
    children: Dict[int, List[int]] = {}
    for v in sorted(parent):     # so every child list comes out sorted
        p = parent[v]
        if p in children:
            children[p].append(v)
        else:
            children[p] = [v]
    order: List[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        if u in children:
            # reversed so the smallest child is visited first
            stack.extend(reversed(children[u]))
    if len(order) != len(parent):
        for v, p in parent.items():
            if p is not None and p not in parent:
                raise SchemeError(
                    f"vertex {v} has parent {p} outside the tree")
        orphans = set(parent) - set(order)
        raise SchemeError(
            f"vertices {sorted(orphans)[:5]}... unreachable from root")
    del children[None]           # the root's own entry
    return children, order


def flat_core(order: List[int], parent: Dict[int, Optional[int]]
              ) -> _FlatCore:
    """The parallel-array core of the tree with pre-order ``order``."""
    size_n = len(order)
    index = {v: i for i, v in enumerate(order)}
    parent_pos = [-1] * size_n
    depth = [0] * size_n
    for i in range(1, size_n):
        p = index[parent[order[i]]]  # type: ignore[index]
        parent_pos[i] = p
        depth[i] = depth[p] + 1
    exit_pos = list(range(size_n))
    sizes = [1] * size_n
    heavy = [-1] * size_n
    for i in range(size_n - 1, 0, -1):
        p = parent_pos[i]
        sizes[p] += sizes[i]
        if exit_pos[i] > exit_pos[p]:
            exit_pos[p] = exit_pos[i]
        # scanned in reverse pre-order, so among equal-size children
        # the one visited earliest (the smallest name: children are
        # sorted) is assigned last and wins the tie.
        if heavy[p] == -1 or sizes[i] >= sizes[heavy[p]]:
            heavy[p] = i
    return _FlatCore(order=order, index=index, parent=parent_pos,
                     exit=exit_pos, size=sizes, heavy=heavy,
                     depth=depth)


class RootedTree:
    """A rooted tree over arbitrary integer vertex names.

    Built from a ``{vertex: parent}`` map (root maps to ``None``).
    Children are kept in sorted order, making DFS timestamps — and hence
    the whole routing scheme — deterministic.
    """

    __slots__ = ("root", "_parent", "_children", "_order", "_flat")

    def __init__(self, root: int, parent: Dict[int, Optional[int]]) -> None:
        self.root = root
        self._parent = dict(parent)
        self._children, self._order = children_and_preorder(
            root, self._parent)
        self._flat: Optional[_FlatCore] = None

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._parent)

    def vertices(self) -> Iterator[int]:
        return iter(self._parent)

    def contains(self, v: int) -> bool:
        return v in self._parent

    def parent(self, v: int) -> Optional[int]:
        try:
            return self._parent[v]
        except KeyError:
            raise SchemeError(f"vertex {v} not in tree") from None

    def parent_map(self) -> Dict[int, Optional[int]]:
        """The ``{vertex: parent}`` map itself (root ↦ ``None``), not a
        copy: read-only by contract, like the tree."""
        return self._parent

    def children(self, v: int) -> List[int]:
        return list(self._children.get(v, ()))

    def is_leaf(self, v: int) -> bool:
        return v not in self._children

    def depth_of(self, v: int) -> int:
        depth = 0
        while self._parent[v] is not None:
            v = self._parent[v]  # type: ignore[assignment]
            depth += 1
        return depth

    def height(self) -> int:
        """Maximum depth over all vertices (0 for a singleton)."""
        return max(self.flat_core().depth, default=0)

    def depths(self) -> Dict[int, int]:
        """Depth of every vertex, from the cached flat core."""
        core = self.flat_core()
        return dict(zip(core.order, core.depth))

    def path_to_root(self, v: int) -> List[int]:
        path = [v]
        while self._parent[path[-1]] is not None:
            path.append(self._parent[path[-1]])  # type: ignore[arg-type]
        return path

    def path_between(self, u: int, v: int) -> List[int]:
        """The unique tree path from ``u`` to ``v`` (through their LCA)."""
        up = self.path_to_root(u)
        vp = self.path_to_root(v)
        ancestors_u = {x: i for i, x in enumerate(up)}
        for j, x in enumerate(vp):
            if x in ancestors_u:
                i = ancestors_u[x]
                return up[:i + 1] + vp[:j][::-1]
        raise SchemeError("vertices share no ancestor (corrupt tree)")

    # ------------------------------------------------------------------
    def flat_core(self) -> _FlatCore:
        """The cached parallel-array core (see :class:`_FlatCore`).

        Safe to cache: the tree has no mutating operations after
        ``__init__``.  Everything below is a thin dict view over it.
        """
        core = self._flat
        if core is None:
            core = self._flat = flat_core(self._order, self._parent)
        return core

    def subtree_sizes(self) -> Dict[int, int]:
        """Number of vertices in each subtree (bottom-up, iterative)."""
        core = self.flat_core()
        return dict(zip(core.order, core.size))

    def heavy_children(self) -> Dict[int, Optional[int]]:
        """The child with the largest subtree, per vertex (None at leaves).

        Ties break toward the smaller vertex name (children are sorted,
        and the flat sweep keeps the earliest pre-order maximum).
        """
        core = self.flat_core()
        order = core.order
        return {v: (None if core.heavy[i] == -1 else order[core.heavy[i]])
                for i, v in enumerate(order)}

    def dfs_intervals(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """DFS entry time ``a_u`` and last-descendant time ``b_u``.

        ``v`` is in the subtree of ``x`` iff ``a_x <= a_v <= b_x``.
        """
        core = self.flat_core()
        entry = dict(core.index)
        exit_time = dict(zip(core.order, core.exit))
        return entry, exit_time

    def dfs_order(self) -> List[int]:
        """Vertices in the (deterministic) DFS pre-order."""
        return list(self._order)

    def __repr__(self) -> str:
        return f"RootedTree(root={self.root}, size={self.size})"


def tree_distance(tree: RootedTree, weights, u: int, v: int) -> float:
    """Length of the unique tree path under a ``weights(a, b)`` callable."""
    path = tree.path_between(u, v)
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += weights(a, b)
    return total

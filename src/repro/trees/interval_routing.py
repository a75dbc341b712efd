"""Centralized Thorup–Zwick tree routing (Section 6's recap).

Exact (stretch-1) routing on a tree with ``O(1)``-word tables and
``O(log n)``-word labels:

* every vertex stores its parent, its *heavy child* (largest subtree) and
  its DFS interval ``(a_u, b_u)``;
* the label of ``v`` is ``a_v`` plus, for every vertex ``w`` on the
  root→v path whose heavy child is *not* on the path, the pair
  ``(w, port(w → next))`` — at most ``ceil(log2 n)`` pairs, because
  leaving the heavy child halves the subtree size;
* an intermediate ``x`` forwards: done if ``a_x = a_v``; to its parent if
  ``a_v ∉ [a_x, b_x]``; otherwise to the label's entry for ``x`` if
  present, else to its heavy child.

This is both the [TZ01] baseline's tree router and the *local* router
inside each depth-bounded subtree of the paper's distributed scheme.
"""

from __future__ import annotations

from dataclasses import field
from typing import Callable, Dict, List, Optional, Tuple

from ..dataclass import dataclass
from ..exceptions import RoutingLoopError, SchemeError
from .rooted import RootedTree

#: port_of(u, v) -> local port number at u for the edge to v.
PortFunction = Callable[[int, int], int]


@dataclass(frozen=True)
class TreeTable:
    """Per-vertex routing table: O(1) words."""

    vertex: int
    parent: Optional[int]
    parent_port: Optional[int]
    heavy_child: Optional[int]
    heavy_child_port: Optional[int]
    entry: int      # a_u
    exit: int       # b_u

    @property
    def words(self) -> int:
        """Table size in RAM words (names + ports + two timestamps)."""
        return 6


@dataclass(frozen=True)
class TreeLabel:
    """Per-vertex label: ``a_v`` plus the non-heavy path edges."""

    vertex: int
    entry: int
    path_edges: Tuple[Tuple[int, int, int], ...]  # (w, child, port at w)

    @property
    def words(self) -> int:
        return 2 + 3 * len(self.path_edges)

    def port_from(self, w: int) -> Optional[Tuple[int, int]]:
        """The (child, port) this label dictates at ``w``, if any."""
        for vertex, child, port in self.path_edges:
            if vertex == w:
                return child, port
        return None


def interval_next_hop(table: TreeTable, label: TreeLabel) -> Optional[int]:
    """One forwarding decision of the TZ tree protocol.

    Returns the neighbor to forward to, or ``None`` on arrival.  Uses
    only the current vertex's table and the packet's label — this is the
    whole local decision rule, shared by the centralized scheme and the
    local stage of the distributed Section-6 scheme.
    """
    if table.entry == label.entry:
        return None
    if not table.entry <= label.entry <= table.exit:
        if table.parent is None:
            raise SchemeError(
                f"label {label.vertex} escapes the tree at its root")
        return table.parent
    dictated = label.port_from(table.vertex)
    if dictated is not None:
        return dictated[0]
    if table.heavy_child is None:
        raise SchemeError(
            f"routing stuck at leaf {table.vertex} for label "
            f"{label.vertex}")
    return table.heavy_child


class TreeRoutingScheme:
    """Tables + labels for one tree, with a step-by-step router."""

    def __init__(self, tree: RootedTree,
                 tables: Dict[int, TreeTable],
                 labels: Dict[int, TreeLabel]) -> None:
        self.tree = tree
        self.tables = tables
        self.labels = labels

    def table_of(self, v: int) -> TreeTable:
        return self.tables[v]

    def label_of(self, v: int) -> TreeLabel:
        return self.labels[v]

    def next_hop(self, x: int, label: TreeLabel) -> Optional[int]:
        """The neighbor ``x`` forwards to; ``None`` when ``x`` is the
        destination.  Uses only ``x``'s table and the packet label."""
        return interval_next_hop(self.tables[x], label)

    def route(self, source: int, target: int,
              max_hops: Optional[int] = None) -> List[int]:
        """Full path from ``source`` to ``target`` (inclusive)."""
        label = self.labels[target]
        if max_hops is None:
            max_hops = 2 * self.tree.size + 2
        path = [source]
        current = source
        for _ in range(max_hops):
            nxt = self.next_hop(current, label)
            if nxt is None:
                return path
            path.append(nxt)
            current = nxt
        raise RoutingLoopError(
            f"no arrival after {max_hops} hops routing "
            f"{source} -> {target}")

    def max_table_words(self) -> int:
        return max(t.words for t in self.tables.values())

    def max_label_words(self) -> int:
        return max(l.words for l in self.labels.values())


def build_tree_routing(tree: RootedTree,
                       port_of: Optional[PortFunction] = None
                       ) -> TreeRoutingScheme:
    """Construct the TZ scheme for ``tree``.

    ``port_of`` supplies real port numbers when the tree is a subgraph of
    a port-numbered network; the default numbers ports by neighbor name,
    which is what "port numbers may be assigned by the routing process"
    means in the paper.
    """
    if port_of is None:
        def port_of(u: int, v: int) -> int:  # noqa: ANN001
            return v

    heavy = tree.heavy_children()
    entry, exit_time = tree.dfs_intervals()

    tables: Dict[int, TreeTable] = {}
    for u in tree.vertices():
        p = tree.parent(u)
        h = heavy[u]
        tables[u] = TreeTable(
            vertex=u,
            parent=p,
            parent_port=None if p is None else port_of(u, p),
            heavy_child=h,
            heavy_child_port=None if h is None else port_of(u, h),
            entry=entry[u],
            exit=exit_time[u],
        )

    # Labels are assembled top-down in pre-order: a vertex inherits its
    # parent's (root ... parent) non-heavy edge tuple, extended only
    # when the step into it leaves the heavy path.  One pass, and heavy
    # descendants share their ancestor's tuple outright — versus the
    # per-vertex root walk, which is quadratic in the tree height.
    labels: Dict[int, TreeLabel] = {}
    edges_of: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
    for v in tree.dfs_order():
        p = tree.parent(v)
        if p is None:
            edges: Tuple[Tuple[int, int, int], ...] = ()
        else:
            edges = edges_of[p]
            if heavy[p] != v:
                edges = edges + ((p, v, port_of(p, v)),)
        edges_of[v] = edges
        labels[v] = TreeLabel(vertex=v, entry=entry[v], path_edges=edges)

    return TreeRoutingScheme(tree, tables, labels)

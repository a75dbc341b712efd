"""Topology feed: recorded mutations of a live :class:`WeightedGraph`.

The dynamic control plane (``ISSUE``: live rebuilds without downtime)
needs two things from the graph side:

* a **mutation log** — what changed since the last successful rebuild,
  so the :class:`~repro.dynamic.IncrementalBuilder` can classify the
  batch (pure weight churn vs topology edits vs a no-op round trip)
  and say why it rebuilt; and
* a **canonical fingerprint** — a digest of the graph's *exact*
  serving-relevant state, used both for net-zero detection and as the
  artifact-cache / registry key.

The feed wraps a live graph and applies every mutation immediately
(riding the graph's own ``version`` counter, so the cached CSR view and
every other derived structure invalidates exactly as for direct
mutation).  It adds nothing the graph does not already enforce — in
particular :meth:`update_edge_weight` refuses to invent topology, the
contract pinned in :mod:`repro.graphs.weighted_graph`.

Fingerprint semantics matter more than they look: two graphs with equal
edge *sets* but different adjacency **insertion order** compile to
different artifacts (neighbor order defines port numbers and every
first-scan tie-break).  :func:`graph_fingerprint` therefore hashes the
adjacency lists in order — removing and re-adding an edge lands at the
end of its endpoints' adjacency and correctly produces a *new*
fingerprint, while a weight flap that returns to the old weight
restores the old fingerprint bit for bit.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..dataclass import dataclass
from ..exceptions import GraphError
from ..graphs.weighted_graph import WeightedGraph


def graph_fingerprint(graph: WeightedGraph) -> str:
    """Order-sensitive digest of the graph's serving-relevant state.

    Covers ``n`` and every adjacency list *in insertion order* with
    weights.  Equal fingerprints imply a from-scratch build would be
    byte-identical (same vertices, same edges, same weights, same
    neighbor order — the full input of the deterministic pipeline).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(b"n=%d" % graph.num_vertices)
    for u in range(graph.num_vertices):
        h.update(b"\n%d:" % u)
        for v, w in graph.neighbor_weights(u):
            h.update(b" %d=%d" % (v, w))
    return h.hexdigest()


@dataclass(frozen=True)
class Change:
    """One applied mutation.  ``old``/``new`` are weights (``None`` for
    a side that does not exist: ``old=None`` means the edge was added,
    ``new=None`` removed)."""

    kind: str          #: "weight" | "add" | "remove"
    u: int
    v: int
    old: Optional[int]
    new: Optional[int]


@dataclass(frozen=True)
class ChangeBatch:
    """The classified delta between the last rebuild and now.

    ``changes`` is the raw event log; ``net`` collapses it against the
    baseline (only edges whose effective state differs survive, as
    ``(u, v, base_weight_or_None, current_weight_or_None)``).  The
    classification (``topology_changed`` names a scratch rebuild's
    fallback reason):

    * ``net_zero`` — every event cancelled out *without* topology
      edits: the graph state (including adjacency order) equals the
      baseline.
    * ``topology_changed`` — an add/remove appeared anywhere in the
      log.  Even a remove+re-add of the same edge counts: it moves the
      edge to the end of the adjacency order, which changes ports.
    """

    changes: Tuple[Change, ...]
    net: Tuple[Tuple[int, int, Optional[int], Optional[int]], ...]
    topology_changed: bool
    net_zero: bool

    def __len__(self) -> int:
        return len(self.changes)

    def summary(self) -> str:
        kind = ("net-zero" if self.net_zero else
                "topology" if self.topology_changed else "weights")
        return f"{len(self.changes)} change(s), {len(self.net)} net, {kind}"


class TopologyFeed:
    """Apply and log mutations of one live graph.

    >>> feed = TopologyFeed(graph)
    >>> feed.update_edge_weight(3, 7, 120)   # applied immediately
    >>> feed.fail_node(9)                    # drops every incident edge
    >>> batch = feed.pending()               # classified delta
    >>> feed.mark_rebuilt()                  # new baseline after rebuild

    The baseline is the graph state at construction (or the last
    :meth:`mark_rebuilt`); :meth:`pending` classifies the delta against
    it.  The feed never buffers: the graph always reflects every call,
    so serving-side consumers that read the live graph see the newest
    state, and the graph's ``version`` / CSR-cache contract does all
    staleness management.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self._log: List[Change] = []
        self._baseline: Dict[Tuple[int, int], int] = {}
        self.mark_rebuilt()

    # -- mutations -----------------------------------------------------
    def update_edge_weight(self, u: int, v: int, weight: int) -> None:
        """Change an existing edge's weight (raises if absent)."""
        old = self.graph.weight(u, v)
        self.graph.update_edge_weight(u, v, weight)
        self._log.append(Change("weight", *_key(u, v), old, weight))

    def fail_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}`` (a hard link failure)."""
        old = self.graph.weight(u, v)
        self.graph.remove_edge(u, v)
        self._log.append(Change("remove", *_key(u, v), old, None))

    def restore_edge(self, u: int, v: int, weight: int) -> None:
        """(Re-)add the edge ``{u, v}``.  Note a restore after
        :meth:`fail_edge` appends to the adjacency order, so the graph
        does *not* return to its old fingerprint — weight flaps
        (:meth:`update_edge_weight` up and back) do."""
        if self.graph.has_edge(u, v):
            raise GraphError(
                f"edge ({u}, {v}) already exists; use "
                "update_edge_weight to change its weight")
        self.graph.add_edge(u, v, weight)
        self._log.append(Change("add", *_key(u, v), None, weight))

    def fail_node(self, v: int) -> List[Tuple[int, int, int]]:
        """Fail vertex ``v``: remove every incident edge (the vertex
        name stays — the paper's model has fixed ``V``).  Returns the
        removed ``(u, v, weight)`` edges so a caller can stage a later
        restore."""
        removed = [(u, v, wt) for u, wt in
                   list(self.graph.neighbor_weights(v))]
        for u, _same, wt in removed:
            self.graph.remove_edge(u, v)
            self._log.append(Change("remove", *_key(u, v), wt, None))
        return removed

    # -- inspection ----------------------------------------------------
    def fingerprint(self) -> str:
        """Fingerprint of the *current* graph state."""
        return graph_fingerprint(self.graph)

    @property
    def baseline_fingerprint(self) -> str:
        return self._baseline_fp

    def pending(self) -> ChangeBatch:
        """Classify everything applied since the last baseline."""
        current = {(u, v): w for u, v, w in self.graph.edges()}
        net = []
        for key in sorted(set(self._baseline) | set(current)):
            base = self._baseline.get(key)
            cur = current.get(key)
            if base != cur:
                net.append((key[0], key[1], base, cur))
        topology = any(c.kind != "weight" for c in self._log)
        return ChangeBatch(changes=tuple(self._log), net=tuple(net),
                           topology_changed=topology,
                           net_zero=not net and not topology)

    def mark_rebuilt(self, fingerprint: Optional[str] = None) -> None:
        """Reset the baseline to the current graph state (called by the
        incremental builder after a successful rebuild).  A caller that
        has already hashed this exact state passes its ``fingerprint``
        to save the second pass."""
        self._log = []
        self._baseline = {(u, v): w for u, v, w in self.graph.edges()}
        self._baseline_fp = (fingerprint if fingerprint is not None
                             else graph_fingerprint(self.graph))

    def __repr__(self) -> str:
        return (f"TopologyFeed(n={self.graph.num_vertices}, "
                f"m={self.graph.num_edges}, "
                f"pending={len(self._log)})")


def _key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)

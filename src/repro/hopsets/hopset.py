"""Hopset data structures (paper, Definition 1 and Property 1).

A ``(beta, eps)``-hopset for a graph ``G`` is an edge set ``F`` such that
in ``H = (V, E ∪ F)``:

    d_G(u,v) <= d_H(u,v) <= d^(beta)_H(u,v) <= (1+eps) d_G(u,v).     (4)

The paper additionally needs hopsets to be **path-reporting**
(Property 1): every hopset edge ``(u, v)`` of weight ``b`` is realized by
a path ``P`` in the underlying graph of length exactly ``b``, and every
vertex on ``P`` knows its distances to both endpoints and its neighbors
on ``P``.  Phase 1.5 of the cluster construction walks these paths to
assign real parents, so we store them explicitly.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, Iterator, List, Optional, Tuple

from ..dataclass import dataclass
from ..exceptions import HopsetError
from ..graphs.virtual_graph import VirtualGraph


@dataclass(frozen=True)
class HopsetEdge:
    """One hopset edge with its realizing path.

    ``path`` lists the underlying-graph vertices from ``u`` to ``v``
    inclusive; ``weight`` equals the path's length under the underlying
    graph's weights (Property 1 requires equality, which the verifier
    checks).
    """

    u: int
    v: int
    weight: float
    path: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise HopsetError(
                f"hopset edge ({self.u}, {self.v}) has a degenerate path")
        if self.path[0] != self.u or self.path[-1] != self.v:
            raise HopsetError(
                f"hopset edge ({self.u}, {self.v}) path endpoints "
                f"{self.path[0]}..{self.path[-1]} do not match")
        if self.weight <= 0:
            raise HopsetError(
                f"hopset edge ({self.u}, {self.v}) has non-positive weight")

    def other(self, x: int) -> int:
        """The endpoint that is not ``x``."""
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise HopsetError(f"{x} is not an endpoint of ({self.u}, {self.v})")

    def prefix_distances(self, base: VirtualGraph) -> List[float]:
        """Distances from ``u`` to each path vertex under ``base`` weights.

        This is the Property-1 knowledge: vertex ``x`` on ``P`` knows
        ``d_P(x, u)`` (and by subtraction ``d_P(x, v)``).
        """
        out = [0.0]
        for a, b in zip(self.path, self.path[1:]):
            out.append(out[-1] + base.weight(a, b))
        return out


class Hopset:
    """A collection of path-reporting hopset edges over a base graph.

    The *base* is whatever graph the realizing paths live in — for the
    paper's ``G''`` construction that is the virtual graph ``G'``.
    """

    def __init__(self, beta_target: int = 0) -> None:
        self._edges: List[HopsetEdge] = []
        self._by_endpoint: Dict[Tuple[int, int], HopsetEdge] = {}
        self.beta_target = beta_target
        #: measured hopbound, set by the verifier / builder
        self.beta_measured: Optional[int] = None

    def add(self, edge: HopsetEdge) -> None:
        """Insert an edge; keeps only the lighter of duplicate endpoints."""
        key = (min(edge.u, edge.v), max(edge.u, edge.v))
        existing = self._by_endpoint.get(key)
        if existing is not None:
            if existing.weight <= edge.weight:
                return
            self._edges.remove(existing)
        self._by_endpoint[key] = edge
        self._edges.append(edge)

    def edges(self) -> List[HopsetEdge]:
        return list(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[HopsetEdge]:
        return iter(self._edges)

    def lookup(self, u: int, v: int) -> Optional[HopsetEdge]:
        """The stored edge between ``u`` and ``v`` (either order)."""
        return self._by_endpoint.get((min(u, v), max(u, v)))

    def total_weight(self) -> float:
        return sum(e.weight for e in self._edges)

    def augment(self, base: VirtualGraph) -> VirtualGraph:
        """The paper's ``G''``: base plus hopset edges.

        On weight conflicts the hopset's weight wins, per Section 3.3.1
        ("In the case of conflict, the weights w'' agree with the weights
        of the hopset F").
        """
        augmented = base.copy()
        for edge in self._edges:
            # hopset weight wins even when heavier than an existing edge
            augmented.add_edge(edge.u, edge.v, edge.weight)
        return augmented

    def __repr__(self) -> str:
        return (f"Hopset(edges={len(self._edges)}, "
                f"beta_measured={self.beta_measured})")

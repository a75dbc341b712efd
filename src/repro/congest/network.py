"""Network wrapper: the graph as seen by distributed node programs.

Adds the *port numbering* the routing model needs: each node refers to its
incident edges by local port numbers ``0 .. deg-1`` (sorted by neighbor
name, which is deterministic).  The paper assumes port numbers may be
assigned by the routing process; we expose both directions of the mapping.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..exceptions import GraphError
from ..graphs.weighted_graph import WeightedGraph


class Network:
    """A :class:`WeightedGraph` plus port numbering and link metadata."""

    __slots__ = ("_graph", "_ports", "_port_of")

    def __init__(self, graph: WeightedGraph) -> None:
        graph.require_connected()
        self._graph = graph
        self._ports: List[List[int]] = []
        self._port_of: List[Dict[int, int]] = []
        for u in graph.vertices():
            neighbors = sorted(graph.neighbors(u))
            self._ports.append(neighbors)
            self._port_of.append({v: p for p, v in enumerate(neighbors)})

    @property
    def graph(self) -> WeightedGraph:
        return self._graph

    @property
    def num_nodes(self) -> int:
        return self._graph.num_vertices

    @property
    def num_links(self) -> int:
        return self._graph.num_edges

    def neighbors(self, u: int) -> List[int]:
        """Neighbors of ``u`` in port order."""
        return list(self._ports[u])

    def degree(self, u: int) -> int:
        return len(self._ports[u])

    def weight(self, u: int, v: int) -> int:
        return self._graph.weight(u, v)

    def port_of(self, u: int, v: int) -> int:
        """The port at ``u`` whose link leads to neighbor ``v``."""
        try:
            return self._port_of[u][v]
        except KeyError:
            raise GraphError(f"{v} is not a neighbor of {u}") from None

    def neighbor_at(self, u: int, port: int) -> int:
        """The neighbor of ``u`` reached through ``port``."""
        try:
            return self._ports[u][port]
        except IndexError:
            raise GraphError(
                f"node {u} has no port {port} "
                f"(degree {len(self._ports[u])})") from None

    def links(self) -> List[Tuple[int, int]]:
        """All directed links ``(u, v)``."""
        out = []
        for u in range(self.num_nodes):
            for v in self._ports[u]:
                out.append((u, v))
        return out

    def __repr__(self) -> str:
        return f"Network(nodes={self.num_nodes}, links={self.num_links})"

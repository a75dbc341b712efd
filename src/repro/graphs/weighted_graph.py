"""Weighted undirected graph substrate.

The paper's network is a weighted undirected graph ``G = (V, E, w)`` with
integer weights in ``{1, ..., poly(n)}`` (Section 2).  This module provides
the concrete graph type every other subsystem builds on.  Vertices are the
integers ``0 .. n-1``; the adjacency structure is a list of per-vertex
dictionaries mapping neighbor to weight.

The class is deliberately minimal and explicit because the CONGEST
simulator and the routing algorithms mutate per-node *state*, never the
graph itself.  The one derived structure — the CSR adjacency view the
vectorized construction kernels run on (:mod:`repro.graphs.csr`) — is
cached against an explicit mutation ``version`` so it can never go
stale: every ``add_edge``/``remove_edge`` bumps the version and thereby
invalidates any outstanding view.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..exceptions import GraphError, InvalidWeightError


class WeightedGraph:
    """An undirected graph with positive integer edge weights.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex names are ``0 .. num_vertices - 1``.

    Notes
    -----
    * Self-loops are rejected (they are useless for routing).
    * Parallel edges are collapsed: re-adding an edge overwrites its weight.
    * Weights must be positive integers, per the paper's model assumption
      that a weight fits in one message word.
    """

    __slots__ = ("_n", "_adj", "_num_edges", "_version", "_csr_cache")

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = num_vertices
        self._adj: List[Dict[int, int]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0
        self._version = 0
        self._csr_cache = None  # managed by repro.graphs.csr.csr_view

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: int = 1) -> None:
        """Insert (or overwrite) the undirected edge ``{u, v}``."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop on vertex {u} is not allowed")
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise InvalidWeightError(
                f"edge weight must be an int, got {weight!r}")
        if weight <= 0:
            raise InvalidWeightError(
                f"edge weight must be positive, got {weight}")
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._version += 1

    def update_edge_weight(self, u: int, v: int, weight: int) -> None:
        """Change the weight of the *existing* edge ``{u, v}``.

        The first-class mutation for dynamic-topology workloads: unlike
        ``add_edge`` (which silently creates missing edges) this raises
        :class:`GraphError` when the edge is absent, so a weight-update
        feed can never invent topology.  Adjacency insertion order — and
        therefore the CSR neighbor order and every derived port number —
        is preserved.  A no-op update (same weight) still bumps
        ``version``: derived views re-validate rather than guess.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise InvalidWeightError(
                f"edge weight must be an int, got {weight!r}")
        if weight <= 0:
            raise InvalidWeightError(
                f"edge weight must be positive, got {weight}")
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``; raise if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1

    @classmethod
    def from_edges(cls, num_vertices: int,
                   edges: Iterator[Tuple[int, int, int]]) -> "WeightedGraph":
        """Build a graph from an iterable of ``(u, v, weight)`` triples."""
        graph = cls(num_vertices)
        for u, v, weight in edges:
            graph.add_edge(u, v, weight)
        return graph

    def copy(self) -> "WeightedGraph":
        """Return a deep copy of this graph, adjacency order included
        (that order defines ports and every first-scan tie-break)."""
        other = WeightedGraph(self._n)
        other._adj = [dict(nbrs) for nbrs in self._adj]
        other._num_edges = self._num_edges
        return other

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every edge insert/delete.

        Derived views (the CSR adjacency of :mod:`repro.graphs.csr`)
        stamp themselves with this value and rebuild when it moves.
        """
        return self._version

    def vertices(self) -> range:
        """Iterate over all vertex names."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> int:
        """Weight of the edge ``{u, v}``; raise if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) does not exist") from None

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over the neighbors of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u])

    def neighbor_weights(self, u: int) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``u``."""
        self._check_vertex(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> int:
        """Number of neighbors of ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with u < v."""
        for u in range(self._n):
            for v, weight in self._adj[u].items():
                if u < v:
                    yield (u, v, weight)

    def max_weight(self) -> int:
        """Largest edge weight (0 for an edgeless graph)."""
        best = 0
        for _, _, weight in self.edges():
            if weight > best:
                best = weight
        return best

    def total_weight(self) -> int:
        """Sum of all edge weights."""
        return sum(weight for _, _, weight in self.edges())

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_component(self, source: int) -> List[int]:
        """Vertices reachable from ``source`` (including it), BFS order."""
        self._check_vertex(source)
        seen = [False] * self._n
        seen[source] = True
        order = [source]
        frontier = [source]
        while frontier:
            next_frontier = []
            for u in frontier:
                for v in self._adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        order.append(v)
                        next_frontier.append(v)
            frontier = next_frontier
        return order

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graph counts as connected)."""
        if self._n == 0:
            return True
        return len(self.connected_component(0)) == self._n

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedGraphError` unless connected."""
        from ..exceptions import DisconnectedGraphError
        if not self.is_connected():
            raise DisconnectedGraphError(
                f"graph on {self._n} vertices is not connected")

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (for tests / visualisation)."""
        import networkx as nx
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._n))
        for u, v, weight in self.edges():
            nx_graph.add_edge(u, v, weight=weight)
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph, weight_attr: str = "weight",
                      default_weight: int = 1) -> "WeightedGraph":
        """Build from a ``networkx.Graph``; nodes are relabelled 0..n-1."""
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        graph = cls(len(nodes))
        for u, v, data in nx_graph.edges(data=True):
            weight = int(data.get(weight_attr, default_weight))
            graph.add_edge(index[u], index[v], weight)
        return graph

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (f"WeightedGraph(n={self._n}, m={self._num_edges}, "
                f"max_w={self.max_weight()})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def _check_vertex(self, u: int) -> None:
        if not isinstance(u, int) or isinstance(u, bool):
            raise GraphError(f"vertex must be an int, got {u!r}")
        if not 0 <= u < self._n:
            raise GraphError(
                f"vertex {u} out of range for graph on {self._n} vertices")


def validate_polynomial_weights(graph: WeightedGraph,
                                exponent: int = 4) -> None:
    """Check the paper's weight assumption ``w(e) <= n^exponent``.

    Raises :class:`InvalidWeightError` when violated.  ``n < 2`` graphs are
    exempt (any positive weight is fine there).
    """
    n = graph.num_vertices
    if n < 2:
        return
    bound = n ** exponent
    for u, v, weight in graph.edges():
        if weight > bound:
            raise InvalidWeightError(
                f"edge ({u}, {v}) weight {weight} exceeds n^{exponent}"
                f" = {bound}")

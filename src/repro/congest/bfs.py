"""Distributed BFS tree construction.

The tree the Lemma-1 broadcast/convergecast runs over is the one the
CONGEST flood (smallest depth heard, ties to the smallest sender) leaves,
computed by a frontier sweep over the CSR view; the simulated flood is
the oracle (:func:`repro.reference.simulate_bfs_tree`).  Its depth is
the ``D`` term the paper's bounds carry.
"""

from __future__ import annotations

from typing import List, Optional

from ..dataclass import dataclass
from ..exceptions import DisconnectedGraphError
from ..graphs.csr import csr_view
from ..graphs.weighted_graph import WeightedGraph


@dataclass
class BFSTree:
    """A rooted BFS tree, with the flood's rounds and one-word messages."""

    root: int
    parent: List[Optional[int]]
    depth: List[int]
    rounds: int
    messages: int

    @property
    def height(self) -> int:
        """Tree height = hop-eccentricity of the root (>= D/2)."""
        return max(self.depth)

    def children(self) -> List[List[int]]:
        """Children lists, computed from parents."""
        kids: List[List[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return kids

    def path_to_root(self, node: int) -> List[int]:
        """Vertices from ``node`` up to (and including) the root."""
        path = [node]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        return path

def build_bfs_tree(graph: WeightedGraph, root: int = 0) -> BFSTree:
    """The flood's tree, in O(n + m) with no per-level constant.

    Frontiers are scanned in ascending id order and a vertex keeps its
    first discoverer, the flood's parent.  The flood runs ``height + 1``
    rounds if a deepest vertex has a neighbour besides its parent, else
    ``height``; each vertex announces its depth to every neighbour but
    its parent: ``2|E| - (n - 1)`` messages.
    """
    csr = csr_view(graph)
    n = csr.num_vertices
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    parent: List[Optional[int]] = [None] * n
    depth = [-1] * n
    depth[root] = 0
    frontier, height = [root], 0
    while True:
        discovered = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if depth[v] < 0:
                    depth[v] = height + 1
                    parent[v] = u
                    discovered.append(v)
        if not discovered:
            break
        frontier, height = sorted(discovered), height + 1
    if -1 in depth:
        raise DisconnectedGraphError(f"{n}-vertex graph not connected")
    silent = all(indptr[u + 1] - indptr[u] == (u != root) for u in frontier)
    return BFSTree(root=root, parent=parent, depth=depth,
                   rounds=height + (not silent),
                   messages=len(indices) - (n - 1))

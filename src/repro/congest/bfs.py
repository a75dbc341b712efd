"""Distributed BFS tree construction.

Builds the BFS tree the global broadcast/convergecast primitive (Lemma 1)
runs over, as an actual :class:`NodeProgram` flood.  The measured round
count equals the root's hop-eccentricity, and the resulting tree's depth
is the ``D`` term the paper's bounds carry.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dataclass import dataclass
from .fast_engine import FastSimulator
from .messages import Message
from .network import Network
from .node import NodeContext, NodeProgram, Outgoing


@dataclass
class BFSTree:
    """A rooted BFS tree of the network."""

    root: int
    parent: List[Optional[int]]
    depth: List[int]
    rounds: int

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


class _BFSProgram(NodeProgram):
    """Flooding program: each node adopts the smallest depth it hears."""

    def __init__(self, root: int) -> None:
        self._root = root

    def initialize(self, ctx: NodeContext) -> List[Outgoing]:
        if ctx.node == self._root:
            ctx.state["depth"] = 0
            ctx.state["parent"] = None
            message = Message("bfs", (0,))
            return [(v, message) for v in ctx.neighbors]
        ctx.state["depth"] = None
        ctx.state["parent"] = None
        return []

    def on_round(self, ctx: NodeContext,
                 inbox: List[Tuple[int, Message]]) -> List[Outgoing]:
        best_depth = ctx.state["depth"]
        best_parent = ctx.state["parent"]
        improved = False
        for sender, message in inbox:
            depth = message.payload[0] + 1
            if best_depth is None or depth < best_depth or (
                    depth == best_depth and best_parent is not None
                    and sender < best_parent):
                if best_depth is None or depth < best_depth:
                    improved = True
                best_depth = depth
                best_parent = sender
        ctx.state["depth"] = best_depth
        ctx.state["parent"] = best_parent
        if not improved:
            return []
        # one immutable Message shared across all targets: the engines
        # never key on identity, and re-announcing the same depth to
        # every neighbor otherwise pays one dataclass construction each
        message = Message("bfs", (best_depth,))
        return [(v, message) for v in ctx.neighbors if v != best_parent]


def build_bfs_tree(network: Network, root: int = 0) -> BFSTree:
    """Run the BFS flood and extract the tree."""
    report = FastSimulator(network).run(_BFSProgram(root))
    n = network.num_nodes
    parent: List[Optional[int]] = [None] * n
    depth: List[int] = [0] * n
    for u in range(n):
        state = report.state_of(u)
        parent[u] = state["parent"]
        depth[u] = state["depth"] if state["depth"] is not None else 0
    return BFSTree(root=root, parent=parent, depth=depth,
                   rounds=report.rounds)

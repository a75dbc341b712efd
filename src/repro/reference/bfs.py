"""The BFS flood as a CONGEST node program, run on :class:`FastSimulator`:
the oracle :func:`repro.congest.build_bfs_tree` is held to
(``tests/congest/test_bfs_kernel.py``)."""

from __future__ import annotations

from typing import List, Tuple

from ..congest.bfs import BFSTree
from ..congest.fast_engine import FastSimulator, RunReport
from ..congest.messages import Message
from ..congest.network import Network
from ..congest.node import NodeContext, NodeProgram, Outgoing


class _BFSProgram(NodeProgram):
    """Flooding program: each node adopts the smallest depth it hears."""

    def __init__(self, root: int) -> None:
        self._root = root

    def initialize(self, ctx: NodeContext) -> List[Outgoing]:
        ctx.state["parent"] = None
        if ctx.node != self._root:
            ctx.state["depth"] = None
            return []
        ctx.state["depth"] = 0
        message = Message("bfs", (0,))
        return [(v, message) for v in ctx.neighbors]

    def on_round(self, ctx: NodeContext,
                 inbox: List[Tuple[int, Message]]) -> List[Outgoing]:
        best_depth, best_parent = ctx.state["depth"], ctx.state["parent"]
        improved = False
        for sender, message in inbox:
            depth = message.payload[0] + 1
            # the root (depth 0, no parent) never takes a deeper offer
            if best_depth is None or depth < best_depth:
                improved = True
            elif (depth, sender) >= (best_depth, best_parent):
                continue
            best_depth, best_parent = depth, sender
        ctx.state["depth"], ctx.state["parent"] = best_depth, best_parent
        if not improved:
            return []
        message = Message("bfs", (best_depth,))
        return [(v, message) for v in ctx.neighbors if v != best_parent]


def simulate_bfs_tree(network: Network, root: int = 0
                      ) -> Tuple[BFSTree, RunReport]:
    """Run the BFS flood; the tree it leaves and the run's report."""
    report = FastSimulator(network).run(_BFSProgram(root))
    states = [report.state_of(u) for u in range(network.num_nodes)]
    return BFSTree(root=root, parent=[s["parent"] for s in states],
                   depth=[s["depth"] for s in states], rounds=report.rounds,
                   messages=report.delivered_messages), report

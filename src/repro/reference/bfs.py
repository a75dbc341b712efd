"""Floods as CONGEST node programs, run on :class:`FastSimulator`: the
BFS flood :func:`repro.congest.build_bfs_tree` is held to
(``tests/congest/test_bfs_kernel.py``), and the gossip flood the
Lemma-1 broadcast charge is checked against
(``tests/congest/test_bfs_broadcast.py``)."""

from __future__ import annotations

from typing import Dict, List, Tuple

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


class _GossipProgram(NodeProgram):
    """Literal flood: every node forwards every distinct message once
    (round-equivalent to Lemma 1's tree pipelining up to constants)."""

    def __init__(self, initial: Dict[int, List[Tuple]]) -> None:
        self._initial = initial

    def initialize(self, ctx: NodeContext) -> List[Outgoing]:
        ctx.state["seen"] = set()
        out: List[Outgoing] = []
        for item in self._initial.get(ctx.node, []):
            ctx.state["seen"].add(item)
            # one immutable Message per item, shared across all targets
            message = Message("gossip", item)
            for v in ctx.neighbors:
                out.append((v, message))
        return out

    def on_round(self, ctx: NodeContext,
                 inbox: List[Tuple[int, Message]]) -> List[Outgoing]:
        out: List[Outgoing] = []
        seen = ctx.state["seen"]
        for sender, message in inbox:
            item = message.payload
            if item in seen:
                continue
            seen.add(item)
            # forward the received Message object itself — it is frozen,
            # so fan-out costs list appends, not dataclass constructions
            for v in ctx.neighbors:
                if v != sender:
                    out.append((v, message))
        return out


def simulate_flood_rounds(network: Network,
                          initial: Dict[int, List[Tuple]]
                          ) -> Tuple[int, List[set]]:
    """Actually flood ``initial`` messages; return (rounds, per-node sets)."""
    report = FastSimulator(network).run(_GossipProgram(initial))
    seen = [report.state_of(u)["seen"] for u in range(network.num_nodes)]
    return report.rounds, seen

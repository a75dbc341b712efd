"""Global broadcast / convergecast (paper, Lemma 1).

    "Suppose every v holds m_v messages of O(1) words, for a total of
     M = sum m_v.  Then all vertices can receive all the messages within
     O(M + D) rounds."

The mechanism is standard pipelining over a BFS tree: messages are
convergecast to the root and then broadcast down; with per-edge capacity
``c`` (the fixed :data:`~repro.congest.messages.DEFAULT_CAPACITY_WORDS`)
this takes ``ceil(M/c) + height`` rounds each way.  We implement the
primitive as a *scheduled* execution: the data movement is performed
exactly (everyone ends up with all messages) and the round cost is charged
from the measured word total and the measured tree height.

A literal packet-level simulation of the same pipeline is provided for
validation (:func:`simulate_flood_rounds`); tests check the scheduled
charge dominates/matches it on small inputs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .bfs import BFSTree
from .fast_engine import FastSimulator
from .messages import DEFAULT_CAPACITY_WORDS, Message
from .metrics import pipelined_rounds
from .network import Network
from .node import NodeContext, NodeProgram, Outgoing


def broadcast_all(tree: BFSTree, per_node_words: Sequence[int]) -> int:
    """Round cost of delivering every node's messages to every node.

    ``per_node_words[v]`` is the number of words node ``v`` contributes.
    Returns the Lemma 1 round count: convergecast up plus broadcast down,
    each pipelined: ``2 * (ceil(M/c) + height)``.
    """
    total_words = sum(per_node_words)
    one_way = pipelined_rounds(total_words, DEFAULT_CAPACITY_WORDS,
                               tree.height)
    return 2 * one_way


def convergecast(tree: BFSTree, per_node_words: Sequence[int]) -> int:
    """Round cost of collecting every node's words at the root only."""
    total_words = sum(per_node_words)
    return pipelined_rounds(total_words, DEFAULT_CAPACITY_WORDS,
                            tree.height)


def broadcast_from_root(tree: BFSTree, total_words: int) -> int:
    """Round cost of pushing ``total_words`` from the root to everyone."""
    return pipelined_rounds(total_words, DEFAULT_CAPACITY_WORDS,
                            tree.height)


class _GossipProgram(NodeProgram):
    """Literal flood: every node forwards every distinct message once.

    Used only to validate the scheduled Lemma 1 charge on small networks
    (flooding is round-equivalent to tree pipelining up to constants).
    """

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

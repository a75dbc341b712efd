"""Node-program API for the CONGEST simulator.

A distributed algorithm is written as a :class:`NodeProgram`: per-node
code that, every synchronous round, consumes the messages delivered on its
incident links and emits messages for the next round.  Programs know only
local information — their id, their incident edges (neighbor name, port,
weight) and whatever state they accumulate — exactly as the model demands.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Dict, List, Tuple

from ..dataclass import dataclass
from .messages import Message
from .network import Network


@dataclass
class NodeContext:
    """The local view a node program gets.

    Attributes
    ----------
    node:
        This node's name.
    neighbors:
        Neighbor names in port order.
    weights:
        ``weights[i]`` is the weight of the link to ``neighbors[i]``.
    state:
        Mutable per-node scratch dictionary, private to the node.
    """

    node: int
    neighbors: List[int]
    weights: List[int]
    state: Dict[str, Any] = field(default_factory=dict)

    def weight_to(self, neighbor: int) -> int:
        """Weight of the link to ``neighbor`` (must be adjacent)."""
        return self.weights[self.neighbors.index(neighbor)]


#: A message addressed to a neighbor: (neighbor_name, message).
Outgoing = Tuple[int, Message]


class NodeProgram:
    """Base class for per-node CONGEST programs.

    Subclasses override :meth:`initialize` and :meth:`on_round`; both
    return the messages to enqueue on outgoing links.  The simulator
    guarantees messages are only delivered between neighbors and enforces
    link capacity — a program never sees the network globally.
    """

    def initialize(self, ctx: NodeContext) -> List[Outgoing]:
        """Called once before round 1; seed state, optionally send."""
        return []

    def on_round(self, ctx: NodeContext, inbox: List[Tuple[int, Message]]
                 ) -> List[Outgoing]:
        """Called every round with ``(sender, message)`` pairs delivered
        this round.  Return messages to enqueue."""
        raise NotImplementedError

    def finalize(self, ctx: NodeContext) -> None:
        """Called once after quiescence; tidy up state if needed."""


def make_contexts(network: Network) -> List[NodeContext]:
    """Build the per-node contexts for a network (each node's weights
    in one pass over its adjacency)."""
    contexts = []
    for u in range(network.num_nodes):
        neighbors = network.neighbors(u)
        weight = dict(network.graph.neighbor_weights(u))
        weights = [weight[v] for v in neighbors]
        contexts.append(NodeContext(node=u, neighbors=neighbors,
                                    weights=weights))
    return contexts

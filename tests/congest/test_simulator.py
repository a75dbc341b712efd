"""Tests for the CONGEST round engine: capacity, queueing, quiescence."""

import pytest

from repro.congest import (
    Message,
    Network,
    NodeProgram,
    check_fits_capacity,
)
from repro.exceptions import CapacityError, SimulationError
from repro.graphs import WeightedGraph, path
from repro.reference import Simulator


def make_network(n=4):
    return Network(path(n, seed=0))


class PingProgram(NodeProgram):
    """Node 0 sends one ping to each neighbor; receivers record it."""

    def initialize(self, ctx):
        ctx.state["got"] = []
        if ctx.node == 0:
            return [(v, Message("ping", (0,))) for v in ctx.neighbors]
        return []

    def on_round(self, ctx, inbox):
        for sender, message in inbox:
            ctx.state["got"].append((sender, message.kind))
        return []


class FloodOnce(NodeProgram):
    """Flood a token; every node forwards the first copy it sees."""

    def initialize(self, ctx):
        ctx.state["seen"] = ctx.node == 0
        if ctx.node == 0:
            return [(v, Message("tok", (1,))) for v in ctx.neighbors]
        return []

    def on_round(self, ctx, inbox):
        if ctx.state["seen"]:
            return []
        ctx.state["seen"] = True
        sender = inbox[0][0]
        return [(v, Message("tok", (1,))) for v in ctx.neighbors
                if v != sender]


class BurstProgram(NodeProgram):
    """Node 0 enqueues ``count`` messages to neighbor 1 at once."""

    def __init__(self, count):
        self.count = count

    def initialize(self, ctx):
        ctx.state["received"] = 0
        if ctx.node == 0:
            return [(1, Message("burst", (i,))) for i in range(self.count)]
        return []

    def on_round(self, ctx, inbox):
        ctx.state["received"] += len(inbox)
        return []


class TestBasics:
    def test_ping_delivery(self):
        net = make_network(3)
        report = Simulator(net).run(PingProgram())
        assert report.quiescent
        assert report.state_of(1)["got"] == [(0, "ping")]
        assert report.state_of(2)["got"] == []

    def test_flood_reaches_everyone_in_ecc_rounds(self):
        net = make_network(6)
        report = Simulator(net).run(FloodOnce())
        assert all(report.state_of(u)["seen"] for u in range(6))
        assert report.rounds == 5  # hop-eccentricity of node 0 on a path

    def test_messaging_non_neighbor_raises(self):
        class Bad(NodeProgram):
            def initialize(self, ctx):
                if ctx.node == 0:
                    return [(3, Message("bad", (1,)))]
                return []

            def on_round(self, ctx, inbox):
                return []

        net = make_network(5)  # 0 and 3 are not adjacent on a path
        with pytest.raises(SimulationError):
            Simulator(net).run(Bad())

    def test_empty_program_quiesces_immediately(self):
        class Silent(NodeProgram):
            def on_round(self, ctx, inbox):
                return []

        report = Simulator(make_network(4)).run(Silent())
        assert report.rounds == 0
        assert report.quiescent


class TestCapacity:
    def test_burst_takes_multiple_rounds(self):
        # 10 one-word messages over capacity 2 => 5 rounds to drain.
        net = make_network(2)
        report = Simulator(net, capacity_words=2).run(BurstProgram(10))
        assert report.state_of(1)["received"] == 10
        assert report.rounds == 5

    def test_higher_capacity_fewer_rounds(self):
        net = make_network(2)
        fast = Simulator(net, capacity_words=10).run(BurstProgram(10))
        assert fast.rounds == 1

    def test_oversized_message_rejected(self):
        with pytest.raises(CapacityError):
            check_fits_capacity(Message("big", tuple(range(5))), 2)

    def test_oversized_message_rejected_at_send(self):
        class Big(NodeProgram):
            def initialize(self, ctx):
                if ctx.node == 0:
                    return [(1, Message("big", tuple(range(10))))]
                return []

            def on_round(self, ctx, inbox):
                return []

        with pytest.raises(CapacityError):
            Simulator(make_network(2), capacity_words=2).run(Big())

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Simulator(make_network(2), capacity_words=0)

    def test_max_rounds_cuts_off(self):
        class Chatter(NodeProgram):
            def initialize(self, ctx):
                if ctx.node == 0:
                    return [(v, Message("x", (1,))) for v in ctx.neighbors]
                return []

            def on_round(self, ctx, inbox):
                # bounce forever
                return [(s, Message("x", (1,))) for s, _ in inbox]

        report = Simulator(make_network(2)).run(Chatter(), max_rounds=7)
        assert report.rounds == 7
        assert not report.quiescent


class TestMessage:
    def test_default_words_from_payload(self):
        assert Message("m", (1, 2, 3)).words == 3
        assert Message("m", ()).words == 1

    def test_explicit_words(self):
        assert Message("m", (1,), words=4).words == 4

    def test_message_counts_reported(self):
        net = make_network(3)
        report = Simulator(net).run(PingProgram())
        assert report.delivered_messages == 1
        assert report.delivered_words == 1


class TestNetwork:
    def test_ports_are_sorted_neighbors(self):
        g = WeightedGraph(4)
        g.add_edge(2, 0, 1)
        g.add_edge(2, 3, 1)
        g.add_edge(2, 1, 1)
        g.add_edge(0, 1, 1)
        g.add_edge(1, 3, 1)
        net = Network(g)
        assert net.neighbors(2) == [0, 1, 3]
        assert net.port_of(2, 1) == 1
        assert net.neighbor_at(2, 2) == 3

    def test_port_roundtrip(self):
        net = make_network(5)
        for u in range(net.num_nodes):
            for v in net.neighbors(u):
                assert net.neighbor_at(u, net.port_of(u, v)) == v

    def test_bad_port_raises(self):
        from repro.exceptions import GraphError
        net = make_network(3)
        with pytest.raises(GraphError):
            net.neighbor_at(0, 5)
        with pytest.raises(GraphError):
            net.port_of(0, 2)

    def test_disconnected_rejected(self):
        from repro.exceptions import DisconnectedGraphError
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1)
        with pytest.raises(DisconnectedGraphError):
            Network(g)

"""Unit tests for the WeightedGraph substrate."""

import pytest

from repro.dynamic import TopologyFeed, graph_fingerprint
from repro.exceptions import GraphError, InvalidWeightError
from repro.graphs import WeightedGraph, csr_view, validate_polynomial_weights
from repro.pipeline import WORKLOADS


class TestConstruction:
    def test_empty_graph(self):
        g = WeightedGraph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.is_connected()

    def test_add_edge_symmetric(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 5)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.weight(0, 1) == 5
        assert g.weight(1, 0) == 5
        assert g.num_edges == 1

    def test_readd_edge_overwrites_weight(self):
        g = WeightedGraph(2)
        g.add_edge(0, 1, 5)
        g.add_edge(0, 1, 9)
        assert g.weight(0, 1) == 9
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = WeightedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 1)

    def test_nonpositive_weight_rejected(self):
        g = WeightedGraph(2)
        with pytest.raises(InvalidWeightError):
            g.add_edge(0, 1, 0)
        with pytest.raises(InvalidWeightError):
            g.add_edge(0, 1, -3)

    def test_non_integer_weight_rejected(self):
        g = WeightedGraph(2)
        with pytest.raises(InvalidWeightError):
            g.add_edge(0, 1, 1.5)
        with pytest.raises(InvalidWeightError):
            g.add_edge(0, 1, True)

    def test_vertex_out_of_range(self):
        g = WeightedGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 2, 1)
        with pytest.raises(GraphError):
            g.add_edge(-1, 0, 1)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph(-1)

    def test_from_edges(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        assert g.num_edges == 2
        assert g.weight(1, 2) == 3

    def test_remove_edge(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_copy_is_independent(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 2)])
        h = g.copy()
        h.add_edge(1, 2, 7)
        assert not g.has_edge(1, 2)
        assert h.has_edge(1, 2)
        assert g == WeightedGraph.from_edges(3, [(0, 1, 2)])

    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_copy_preserves_adjacency_order(self, family):
        # a failed-and-restored edge re-enters at the end of both
        # endpoints' adjacency; the copy must keep that order, which
        # defines ports and tie-breaks
        g = WORKLOADS[family](40, 3)
        assert graph_fingerprint(g.copy()) == graph_fingerprint(g)
        feed = TopologyFeed(g)
        u, v, w = next(iter(g.edges()))
        feed.fail_edge(u, v)
        feed.restore_edge(u, v, w)
        h = g.copy()
        for x in range(g.num_vertices):
            assert list(h.neighbor_weights(x)) == \
                list(g.neighbor_weights(x))
        assert graph_fingerprint(h) == graph_fingerprint(g)
        assert h.num_edges == g.num_edges
        # the copy's derived caches are its own
        view = csr_view(g)
        h.remove_edge(u, v)
        assert csr_view(g) is view
        assert csr_view(h).num_directed_edges == \
            view.num_directed_edges - 2


class TestInspection:
    def test_neighbors_and_degree(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]
        assert triangle.degree(0) == 2

    def test_edges_iteration_normalized(self, triangle):
        edges = list(triangle.edges())
        assert (0, 1, 1) in edges
        assert (1, 2, 2) in edges
        assert (0, 2, 4) in edges
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)

    def test_missing_edge_weight_raises(self, triangle):
        g = WeightedGraph(3)
        with pytest.raises(GraphError):
            g.weight(0, 1)

    def test_max_and_total_weight(self, triangle):
        assert triangle.max_weight() == 4
        assert triangle.total_weight() == 7

    def test_repr_mentions_counts(self, triangle):
        assert "n=3" in repr(triangle)
        assert "m=3" in repr(triangle)


class TestConnectivity:
    def test_connected_component(self):
        g = WeightedGraph(5)
        g.add_edge(0, 1, 1)
        g.add_edge(1, 2, 1)
        g.add_edge(3, 4, 1)
        assert sorted(g.connected_component(0)) == [0, 1, 2]
        assert sorted(g.connected_component(4)) == [3, 4]
        assert not g.is_connected()

    def test_require_connected_raises(self):
        from repro.exceptions import DisconnectedGraphError
        g = WeightedGraph(2)
        with pytest.raises(DisconnectedGraphError):
            g.require_connected()

    def test_single_vertex_is_connected(self):
        assert WeightedGraph(1).is_connected()


class TestInterop:
    def test_networkx_round_trip(self, triangle):
        nx_graph = triangle.to_networkx()
        back = WeightedGraph.from_networkx(nx_graph)
        assert back == triangle

    def test_from_networkx_relabels(self):
        import networkx as nx
        nx_graph = nx.Graph()
        nx_graph.add_edge("a", "b", weight=3)
        g = WeightedGraph.from_networkx(nx_graph)
        assert g.num_vertices == 2
        assert g.weight(0, 1) == 3


class TestWeightValidation:
    def test_polynomial_weights_pass(self, triangle):
        validate_polynomial_weights(triangle)

    def test_huge_weight_fails(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 3 ** 20)
        with pytest.raises(InvalidWeightError):
            validate_polynomial_weights(g, exponent=4)

"""Contract tests for the cached CSR view."""

import pytest

from repro.graphs import WeightedGraph, csr_view, random_connected


class TestViewContract:

    def test_neighbor_order_matches_graph(self):
        graph = random_connected(25, 0.2, seed=4)
        view = csr_view(graph)
        for u in graph.vertices():
            expected = list(graph.neighbor_weights(u))
            got = [(int(view.indices[j]), int(view.weights[j]))
                   for j in range(int(view.indptr[u]),
                                  int(view.indptr[u + 1]))]
            assert got == expected

    def test_view_is_cached(self):
        graph = random_connected(10, 0.3, seed=1)
        assert csr_view(graph) is csr_view(graph)

    def test_add_edge_invalidates(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 2)
        before = csr_view(graph)
        graph.add_edge(2, 3, 5)
        after = csr_view(graph)
        assert after is not before
        assert after.num_directed_edges == 4

    def test_remove_edge_invalidates(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        before = csr_view(graph)
        graph.remove_edge(0, 1)
        after = csr_view(graph)
        assert after is not before
        assert after.num_directed_edges == 2

    def test_weight_overwrite_invalidates(self):
        graph = WeightedGraph(2)
        graph.add_edge(0, 1, 2)
        before = csr_view(graph)
        graph.add_edge(0, 1, 9)  # overwrite bumps the version too
        after = csr_view(graph)
        assert after is not before
        assert int(after.weights[0]) == 9

    def test_version_counter_monotone(self):
        graph = WeightedGraph(3)
        v0 = graph.version
        graph.add_edge(0, 1, 1)
        graph.add_edge(1, 2, 1)
        graph.remove_edge(0, 1)
        assert graph.version == v0 + 3

    def test_copy_does_not_share_cache(self):
        graph = random_connected(8, 0.4, seed=2)
        view = csr_view(graph)
        clone = graph.copy()
        assert csr_view(clone) is not view

    def test_empty_graph(self):
        graph = WeightedGraph(0)
        view = csr_view(graph)
        assert view.num_vertices == 0
        assert view.num_directed_edges == 0


class TestUpdateEdgeWeight:
    """`update_edge_weight` is the dynamic-feed mutation: it must obey
    the same version/CSR-invalidation contract as add/remove, preserve
    adjacency order (ports!), and never invent topology."""

    def test_updates_weight_both_directions(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 2)
        graph.add_edge(1, 2, 3)
        graph.update_edge_weight(1, 0, 7)  # either endpoint order
        assert graph.weight(0, 1) == 7
        assert graph.weight(1, 0) == 7

    def test_missing_edge_raises_and_leaves_state(self):
        from repro.exceptions import GraphError

        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 2)
        version = graph.version
        with pytest.raises(GraphError):
            graph.update_edge_weight(0, 2, 5)
        assert graph.version == version
        assert not graph.has_edge(0, 2)

    def test_invalid_weight_rejected(self):
        from repro.exceptions import InvalidWeightError

        graph = WeightedGraph(2)
        graph.add_edge(0, 1, 2)
        for bad in (0, -3, 1.5, True, None):
            with pytest.raises(InvalidWeightError):
                graph.update_edge_weight(0, 1, bad)
        assert graph.weight(0, 1) == 2

    def test_version_bumps_even_for_noop(self):
        graph = WeightedGraph(2)
        graph.add_edge(0, 1, 4)
        version = graph.version
        graph.update_edge_weight(0, 1, 4)  # same weight
        assert graph.version == version + 1
        graph.update_edge_weight(0, 1, 5)
        assert graph.version == version + 2

    def test_invalidates_csr_view(self):
        graph = random_connected(12, 0.3, seed=6)
        before = csr_view(graph)
        u, v, w = next(iter(graph.edges()))
        graph.update_edge_weight(u, v, w + 3)
        after = csr_view(graph)
        assert after is not before
        # and the refreshed view carries the new weight
        for j in range(int(after.indptr[u]), int(after.indptr[u + 1])):
            if int(after.indices[j]) == v:
                assert int(after.weights[j]) == w + 3
                break
        else:  # pragma: no cover
            raise AssertionError("edge missing from CSR view")

    def test_preserves_adjacency_order(self):
        """Unlike remove+add, a weight update must keep every
        neighbor list order — port numbers derive from it."""
        graph = random_connected(15, 0.3, seed=8)
        order_before = {u: list(graph.neighbors(u))
                        for u in graph.vertices()}
        for u, v, w in list(graph.edges())[:6]:
            graph.update_edge_weight(u, v, w + 10)
        order_after = {u: list(graph.neighbors(u))
                       for u in graph.vertices()}
        assert order_after == order_before


"""Tests for graph transforms."""

import pytest

from repro.exceptions import GraphError, ParameterError
from repro.graphs import (
    WeightedGraph,
    dijkstra_distances,
    hop_diameter,
    random_connected,
    shortest_path_diameter,
)
from repro.graphs.transforms import (
    induced_subgraph,
    largest_component_subgraph,
    random_vertex_sample_subgraph,
    with_perturbed_weights,
    with_scaled_weights,
    with_unit_weights,
)


@pytest.fixture
def base():
    return random_connected(30, 0.15, max_weight=50, seed=77)


class TestReweighting:
    def test_unit_weights_make_s_equal_d(self, base):
        unit = with_unit_weights(base)
        assert all(w == 1 for _, _, w in unit.edges())
        assert shortest_path_diameter(unit) == hop_diameter(unit)

    def test_scaling_preserves_shortest_paths(self, base):
        scaled = with_scaled_weights(base, 7)
        d0 = dijkstra_distances(base, 0)
        d1 = dijkstra_distances(scaled, 0)
        for v in base.vertices():
            assert d1[v] == 7 * d0[v]

    def test_scaling_validates(self, base):
        with pytest.raises(ParameterError):
            with_scaled_weights(base, 0)

    def test_perturbation_bounded(self, base):
        jittered = with_perturbed_weights(base, seed=3, spread=2)
        for u, v, w in base.edges():
            assert w <= jittered.weight(u, v) <= w + 2

    def test_perturbation_deterministic(self, base):
        a = with_perturbed_weights(base, seed=3)
        b = with_perturbed_weights(base, seed=3)
        assert a == b

    def test_inputs_not_mutated(self, base):
        snapshot = sorted(base.edges())
        with_unit_weights(base)
        with_scaled_weights(base, 3)
        with_perturbed_weights(base, seed=1)
        assert sorted(base.edges()) == snapshot


class TestSubgraphs:
    def test_induced_subgraph_relabels(self, base):
        sub = induced_subgraph(base, base.connected_component(0)[:12])
        assert sub.num_vertices == 12
        assert sub.is_connected()

    def test_induced_rejects_disconnected(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1)
        g.add_edge(2, 3, 1)
        g.add_edge(1, 2, 1)
        from repro.exceptions import DisconnectedGraphError
        with pytest.raises(DisconnectedGraphError):
            induced_subgraph(g, [0, 3])

    def test_induced_rejects_foreign_vertex(self, base):
        with pytest.raises(GraphError):
            induced_subgraph(base, [0, 99])

    def test_largest_component(self):
        g = WeightedGraph(6)
        g.add_edge(0, 1, 1)
        g.add_edge(1, 2, 1)
        g.add_edge(3, 4, 1)
        sub = largest_component_subgraph(g)
        assert sub.num_vertices == 3

    def test_random_ball_sample(self, base):
        sub = random_vertex_sample_subgraph(base, 10, seed=5)
        assert sub.num_vertices == 10
        assert sub.is_connected()

    def test_random_ball_too_large(self, base):
        with pytest.raises(GraphError):
            random_vertex_sample_subgraph(base, 99, seed=5)

    def test_ball_deterministic(self, base):
        a = random_vertex_sample_subgraph(base, 8, seed=9)
        b = random_vertex_sample_subgraph(base, 8, seed=9)
        assert a == b

    def test_scheme_builds_on_subgraph(self, base):
        """Transforms compose with the full pipeline."""
        from repro.core import build_routing_scheme
        sub = random_vertex_sample_subgraph(base, 15, seed=2)
        scheme = build_routing_scheme(with_unit_weights(sub), k=2,
                                      seed=2)
        result = scheme.route_many([(0, 14)])[0]
        assert result.path[-1] == 14

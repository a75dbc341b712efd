"""Tests for graph metrics: D and S."""

from repro.graphs import (
    WeightedGraph,
    eccentricity_hops,
    grid,
    hop_diameter,
    path,
    shortest_path_diameter,
    star_of_paths,
)


class TestHopDiameter:
    def test_path(self):
        assert hop_diameter(path(6)) == 5

    def test_grid(self):
        assert hop_diameter(grid(3, 3)) == 4

    def test_single_vertex(self):
        assert hop_diameter(WeightedGraph(1)) == 0

    def test_eccentricity_center_vs_end(self):
        g = path(9)
        assert eccentricity_hops(g, 4) == 4
        assert eccentricity_hops(g, 0) == 8


class TestWeightedAndS:
    def test_S_at_least_D(self):
        # Heavy hub chords force shortest paths through many hops.
        g = star_of_paths(4, 5, heavy_weight=1000)
        S = shortest_path_diameter(g)
        D = hop_diameter(g)
        assert D <= S
        # two arm tips: D goes through hub (~10 hops) but the weighted
        # shortest path also goes through the hub here; S counts it
        assert S >= 2 * 5

    def test_unit_weights_S_equals_D(self):
        g = grid(3, 4, seed=None)
        # rebuild with unit weights
        unit = WeightedGraph(g.num_vertices)
        for u, v, _ in g.edges():
            unit.add_edge(u, v, 1)
        assert shortest_path_diameter(unit) == hop_diameter(unit)


"""Tests for the Bellman–Ford exploration engines."""

import math

import numpy as np
import pytest

from repro.congest import (
    JoinRule,
    build_bfs_tree,
    multi_source_exploration,
    nearest_source_exploration,
    virtual_exploration,
)
from repro.graphs import (
    INF,
    dijkstra_distances,
    dijkstra_to_set,
    hop_bounded_distances,
    random_connected,
)
from repro.hopsets import hop_bounded, shortest_paths


def accept_all(graph):
    """The unconditional join as a rule: an INF budget everywhere."""
    return JoinRule(threshold=[INF] * graph.num_vertices)


class TestNearestSource:
    def test_matches_dijkstra_to_set(self, medium_random):
        n = medium_random.num_vertices
        roots = [0, 7, 13]
        result = nearest_source_exploration(medium_random, roots, n)
        exact, _ = dijkstra_to_set(medium_random, roots)
        assert result.dist == exact

    def test_source_of_is_nearest(self, medium_random):
        roots = [2, 9]
        n = medium_random.num_vertices
        result = nearest_source_exploration(medium_random, roots, n)
        per_root = {r: dijkstra_distances(medium_random, r) for r in roots}
        for v in medium_random.vertices():
            s = result.source_of[v]
            assert per_root[s][v] == result.dist[v]

    def test_bounded_iterations_give_hop_bounded(self, medium_random):
        result = nearest_source_exploration(medium_random, [0], 3)
        expected = hop_bounded_distances(medium_random, 0, 3)
        assert result.dist == expected

    def test_parent_points_toward_source(self, medium_random):
        n = medium_random.num_vertices
        result = nearest_source_exploration(medium_random, [0], n)
        for v in medium_random.vertices():
            if v == 0:
                continue
            p = result.parent[v]
            w = medium_random.weight(v, p)
            assert result.dist[v] == result.dist[p] + w

    def test_rounds_at_least_iterations(self, medium_random):
        result = nearest_source_exploration(medium_random, [0], 5)
        assert result.rounds >= result.iterations
        assert result.iterations <= 5

    def test_early_termination(self):
        g = random_connected(10, 0.5, seed=3)
        result = nearest_source_exploration(g, [0], 1000)
        assert result.iterations < 1000  # frontier empties quickly


class TestMultiSource:
    def test_unrestricted_join_matches_dijkstra(self, medium_random):
        n = medium_random.num_vertices
        sources = [0, 5]
        result = multi_source_exploration(medium_random, sources, n,
                                          accept_all(medium_random))
        for s in sources:
            exact = dijkstra_distances(medium_random, s)
            for v in medium_random.vertices():
                assert result.dist[v][s] == exact[v]

    def test_join_predicate_prunes(self, medium_random):
        exact = dijkstra_distances(medium_random, 0)
        radius = sorted(exact)[len(exact) // 2]

        n = medium_random.num_vertices
        within_radius = JoinRule(threshold=[radius] * n)
        result = multi_source_exploration(medium_random, [0], n,
                                          within_radius)
        members = result.vertex[result.source == 0].tolist()
        for v in members:
            assert result.dist[v][0] < radius
        # everything whose *shortest path* stays within radius must join:
        # vertices on a shortest path to a radius-bounded vertex also fit
        for v in medium_random.vertices():
            if exact[v] < radius and v not in members:
                pytest.fail(f"vertex {v} within radius but not a member")

    def test_parent_pointers_form_tree(self, medium_random):
        n = medium_random.num_vertices
        result = multi_source_exploration(medium_random, [3], n,
                                          accept_all(medium_random))
        for v in result.vertex[result.source == 3].tolist():
            if v == 3:
                assert result.parent[v][3] is None
                continue
            # walk to the root
            cur, steps = v, 0
            while cur != 3:
                cur = result.parent[cur][3]
                steps += 1
                assert steps <= n
            assert cur == 3

    def test_congestion_accounting(self, congested_ring):
        n = congested_ring.num_vertices
        sources = list(range(0, n, 2))
        result = multi_source_exploration(congested_ring, sources, n,
                                          accept_all(congested_ring))
        # many overlapping explorations => rounds exceed iterations
        assert result.rounds > result.iterations
        assert result.max_estimates_per_node == len(sources)

    def test_zero_iterations(self, triangle):
        result = multi_source_exploration(triangle, [0], 0,
                                          accept_all(triangle))
        assert result.vertex.tolist() == result.source.tolist() == [0]
        assert result.rounds == 0


class TestVirtualExploration:
    def _virtual(self, graph, vertices):
        """Exact distances between ``vertices`` as a virtual weight
        matrix (INF on the diagonal)."""
        weights = np.array([[dijkstra_distances(graph, u)[v]
                             for v in vertices] for u in vertices],
                           dtype=float)
        np.fill_diagonal(weights, INF)
        return weights

    def test_matches_virtual_dijkstra(self, medium_random):
        weights = self._virtual(medium_random, [0, 5, 10, 15])
        tree = build_bfs_tree(medium_random, root=0)
        dist, _, _ = virtual_exploration(
            weights, np.array([0]), len(weights), np.full(4, INF),
            tree.height)
        assert dist[0].tolist() == shortest_paths(weights)[0][0].tolist()

    def test_rounds_include_broadcast_cost(self, medium_random):
        weights = self._virtual(medium_random, [0, 5, 10, 15])
        tree = build_bfs_tree(medium_random, root=0)
        _, _, rounds = virtual_exploration(
            weights, np.array([0]), 3, np.full(4, INF), tree.height)
        # both iterations (seed, then the improving hop) pay at least
        # 2 * tree height; the third finds nothing to relay
        assert rounds >= 2 * 2 * tree.height

    def test_hop_bounded_iterations(self, medium_random):
        weights = self._virtual(medium_random, [0, 5, 10, 15, 20])
        tree = build_bfs_tree(medium_random, root=0)
        one_hop, parent, _ = virtual_exploration(
            weights, np.array([0]), 1, np.full(5, INF), tree.height)
        assert one_hop[0].tolist() == hop_bounded(weights, 1)[0].tolist()
        assert parent[0].tolist() == [-1, 0, 0, 0, 0]

    def test_threshold_refuses_a_join(self, medium_random):
        weights = self._virtual(medium_random, [0, 5, 10, 15])
        tree = build_bfs_tree(medium_random, root=0)
        threshold = np.full(4, INF)
        threshold[2] = weights[0, 2]      # rule (14) is strict
        dist, parent, _ = virtual_exploration(
            weights, np.array([0]), 1, threshold, tree.height)
        assert dist[0, 2] == INF and parent[0, 2] == -1
        assert dist[0, 0] == 0.0          # the seed is always kept

"""Tests for virtual (dominating) graphs as V' × V' weight matrices."""

import numpy as np
import pytest

from repro.graphs import INF, dijkstra_distances, random_connected
from repro.hopsets import hop_bounded, shortest_paths


@pytest.fixture
def base():
    return random_connected(30, 0.15, seed=11)


def exact_virtual(base, vertices):
    """A virtual graph whose edges are exact base distances (dominates)."""
    weights = np.array([[dijkstra_distances(base, u)[v] for v in vertices]
                        for u in vertices], dtype=float)
    np.fill_diagonal(weights, INF)
    return weights


def dominates(base, vertices, weights):
    """``d_G'(u, v) >= d_G(u, v)`` for every pair of ``vertices``."""
    exact = exact_virtual(base, vertices)
    np.fill_diagonal(exact, 0.0)
    return bool((shortest_paths(weights)[0] >= exact - 1e-9).all())


class TestDistances:
    def test_dijkstra_within_virtual(self, base):
        vertices = [0, 5, 10, 15, 20]
        dist = shortest_paths(exact_virtual(base, vertices))[0]
        exact = dijkstra_distances(base, 0)
        for j, v in enumerate(vertices):
            # exact-distance cliques: virtual distance == base distance
            assert dist[0, j] == pytest.approx(exact[v])

    def test_hop_bounded_distances_shrink(self, base):
        virt = exact_virtual(base, list(range(0, 30, 3)))
        assert (hop_bounded(virt, 2) <= hop_bounded(virt, 1)).all()


class TestDomination:
    def test_exact_virtual_dominates(self, base):
        vertices = [0, 3, 6, 9]
        assert dominates(base, vertices, exact_virtual(base, vertices))

    def test_undershooting_edge_fails_domination(self, base):
        exact = dijkstra_distances(base, 0)[9]
        virt = np.full((2, 2), INF)
        virt[0, 1] = virt[1, 0] = max(exact / 2, 0.5)
        assert not dominates(base, [0, 9], virt)

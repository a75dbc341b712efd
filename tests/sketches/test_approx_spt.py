"""Tests for the Theorem-3 approximate SPT (Appendix A)."""

import random

import pytest

from repro.congest import build_bfs_tree
from repro.exceptions import ParameterError
from repro.graphs import dijkstra_distances, dijkstra_to_set, grid, \
    random_connected
from repro.sketches import approximate_spt


@pytest.fixture
def graph():
    return random_connected(45, 0.12, seed=21)


class TestGuarantee:
    def test_inequality_5(self, graph):
        """d(u, A) <= d̂(u) <= (1+eps) d(u, A)."""
        roots = [0, 10, 20]
        eps = 0.2
        result = approximate_spt(graph, roots, eps,
                                 rng=random.Random(1))
        exact, _ = dijkstra_to_set(graph, roots)
        for u in graph.vertices():
            assert exact[u] <= result.dist_hat[u] + 1e-9
            assert result.dist_hat[u] <= (1 + eps) * exact[u] + 1e-9

    def test_witness_in_roots_and_close(self, graph):
        roots = [3, 17, 33]
        result = approximate_spt(graph, roots, 0.25, rng=random.Random(2))
        per_root = {r: dijkstra_distances(graph, r) for r in roots}
        for u in graph.vertices():
            z = result.witness[u]
            assert z in roots
            # d_G(u, ẑ(u)) <= d̂(u)  (paper's requirement after (5))
            assert per_root[z][u] <= result.dist_hat[u] + 1e-9

    def test_root_vertices_get_zero(self, graph):
        roots = [5, 25]
        result = approximate_spt(graph, roots, 0.3, rng=random.Random(3))
        for r in roots:
            assert result.dist_hat[r] == 0
            assert result.witness[r] == r

    def test_single_root_matches_sssp(self, graph):
        result = approximate_spt(graph, [0], 0.15, rng=random.Random(4))
        exact = dijkstra_distances(graph, 0)
        for u in graph.vertices():
            assert exact[u] <= result.dist_hat[u] + 1e-9
            assert result.dist_hat[u] <= 1.15 * exact[u] + 1e-9

    def test_on_grid(self):
        g = grid(6, 6, seed=9)
        roots = [0, 35]
        result = approximate_spt(g, roots, 0.2, rng=random.Random(5))
        exact, _ = dijkstra_to_set(g, roots)
        for u in g.vertices():
            assert exact[u] <= result.dist_hat[u] + 1e-9
            assert result.dist_hat[u] <= 1.2 * exact[u] + 1e-9


class TestAccounting:
    def test_ledger_phases_present(self, graph):
        tree = build_bfs_tree(graph, root=0)
        result = approximate_spt(graph, [0, 10], 0.3,
                                 rng=random.Random(6), bfs_tree=tree)
        names = {p.name for p in result.ledger}
        assert "spt/source-detection" in names
        assert "spt/hopset" in names
        assert "spt/virtual-bellman-ford" in names
        assert result.rounds == result.ledger.total_rounds
        assert result.rounds > 0

    def test_beta_recorded(self, graph):
        result = approximate_spt(graph, [0], 0.3, rng=random.Random(7))
        assert result.beta >= 1


class TestValidation:
    def test_empty_roots_rejected(self, graph):
        with pytest.raises(ParameterError):
            approximate_spt(graph, [], 0.2)

    def test_bad_eps_rejected(self, graph):
        with pytest.raises(ParameterError):
            approximate_spt(graph, [0], 0.0)
        with pytest.raises(ParameterError):
            approximate_spt(graph, [0], 1.5)

    def test_deterministic_under_seed(self, graph):
        a = approximate_spt(graph, [0, 9], 0.2, rng=random.Random(42))
        b = approximate_spt(graph, [0, 9], 0.2, rng=random.Random(42))
        assert a.dist_hat == b.dist_hat
        assert a.witness == b.witness

"""Tests for the Theorem-6 distance-estimation scheme (Algorithm 2)."""

import math
import random

import pytest

from repro.exceptions import ParameterError
from repro.graphs import all_pairs_distances, grid, random_connected
from repro.pipeline import SchemePipeline


def build_estimation(graph, k, seed):
    return (SchemePipeline().graph(graph).params(k).seed(seed)
            .build_estimation())


@pytest.fixture(scope="module")
def graph():
    return random_connected(45, 0.1, seed=201)


@pytest.fixture(scope="module")
def ap(graph):
    return all_pairs_distances(graph)


@pytest.fixture(scope="module", params=[2, 3, 4])
def est_k(request, graph):
    return build_estimation(graph, k=request.param, seed=7), \
        request.param


class TestStretch:
    def test_all_pairs_within_2k_minus_1(self, est_k, graph, ap):
        est, k = est_k
        bound = 2 * k - 1 + 1.0  # 2k-1 + o(1)
        for u in graph.vertices():
            for v in graph.vertices():
                if u == v:
                    continue
                e = est.estimate(u, v)
                assert e >= ap[u][v] - 1e-9          # never underestimates
                assert e <= bound * ap[u][v] + 1e-9

    def test_self_distance_zero(self, est_k):
        est, _ = est_k
        assert est.estimate(7, 7) == 0.0

    def test_on_grid(self):
        g = grid(6, 6, seed=3)
        ap_g = all_pairs_distances(g)
        est = build_estimation(g, k=3, seed=3)
        for u in range(0, 36, 5):
            for v in range(0, 36, 3):
                if u == v:
                    continue
                e = est.estimate(u, v)
                assert ap_g[u][v] - 1e-9 <= e <= 6.0 * ap_g[u][v] + 1e-9


class TestQueryMechanics:
    def test_iterations_bounded_by_k(self, est_k, graph):
        """O(k) query time: the while loop runs < k times."""
        est, k = est_k
        rng = random.Random(5)
        for _ in range(60):
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            if u == v:
                continue
            result = est.query(u, v)
            assert 0 <= result.iterations <= k - 1

    def test_query_symmetric_enough(self, est_k, graph, ap):
        """Both directions obey the same stretch bound (the algorithm is
        not symmetric, but the guarantee is)."""
        est, k = est_k
        bound = 2 * k - 1 + 1.0
        rng = random.Random(6)
        for _ in range(40):
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            if u == v:
                continue
            for a, b in ((u, v), (v, u)):
                assert est.estimate(a, b) <= bound * ap[a][b] + 1e-9

    def test_uses_only_two_sketches(self, est_k, graph):
        """The query reads the two endpoint sketches and nothing else."""
        est, _ = est_k
        result = est.query(3, 9)
        s3, s9 = est.sketch_of(3), est.sketch_of(9)
        centers = set(s3.cluster_values) | set(s9.cluster_values) | \
            {p for p, _ in s3.pivots} | {p for p, _ in s9.pivots}
        assert result.final_center in centers

    def test_bad_endpoints(self, est_k):
        est, _ = est_k
        with pytest.raises(ParameterError):
            est.query(0, 10_000)


class TestSketchSizes:
    def test_sketch_words_bound(self, est_k, graph):
        """O(n^{1/k} log n) words."""
        est, k = est_k
        n = graph.num_vertices
        bound = 40 * n ** (1 / k) * (math.log2(n) + 2)
        assert est.max_sketch_words() <= bound

    def test_sketch_contains_own_cluster(self, est_k, graph):
        est, _ = est_k
        for v in graph.vertices():
            assert est.sketch_of(v).contains_center(v)
            assert est.sketch_of(v).cluster_values[v] == 0.0

    def test_pivot_entries_per_level(self, est_k, graph):
        est, k = est_k
        for v in graph.vertices():
            assert len(est.sketch_of(v).pivots) == k


class TestConstruction:
    def test_rounds_positive(self, est_k):
        est, _ = est_k
        assert est.construction_rounds > 0

    def test_determinism(self, graph):
        a = build_estimation(graph, k=3, seed=31)
        b = build_estimation(graph, k=3, seed=31)
        rng = random.Random(1)
        for _ in range(30):
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            assert a.estimate(u, v) == b.estimate(u, v)

"""Tests for the Theorem-6 distance-estimation scheme (Algorithm 2)."""

import math
import random

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graphs import (
    all_pairs_distances,
    grid,
    path,
    random_connected,
    random_geometric,
    ring_of_cliques,
    star_of_paths,
)
from repro.pipeline import SchemePipeline


def build_estimation(graph, k, seed):
    return (SchemePipeline().graph(graph).params(k).seed(seed)
            .build_estimation())


def cluster_values(est, v):
    """``v``'s sketch entries ``center -> b_v(center)``, off its slice
    of the columns."""
    columns = est.columns
    lo, hi = columns["cv_start"][v], columns["cv_start"][v + 1]
    return dict(zip(columns["cv_center"][lo:hi].tolist(),
                    columns["cv_value"][lo:hi].tolist()))


def pivots(est, v):
    """``v``'s pivot entries ``ẑ_i(v)``, ``i = 0..k-1``."""
    k = est.params.k
    return est.columns["sk_pivot"][v * k:(v + 1) * k].tolist()


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
        centers = set(cluster_values(est, 3)) | \
            set(cluster_values(est, 9)) | set(pivots(est, 3)) | \
            set(pivots(est, 9))
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
            assert cluster_values(est, v)[v] == 0.0

    def test_pivot_entries_per_level(self, est_k, graph):
        est, k = est_k
        n = graph.num_vertices
        assert len(est.columns["sk_pivot"]) == n * k
        assert len(est.columns["sk_pivot_d"]) == n * k
        for v in graph.vertices():
            assert pivots(est, v)[0] == v


def assert_columns_are_the_cluster_system(est):
    """The membership rows are the set of ``(v, u, b_v(u))`` over the
    clusters, each vertex's slice sorted by center; the pivot rows are
    ``(ẑ_i(v), d̂_i(v))`` at row ``v * k + i``; a sketch's words are
    one, two per cluster holding the vertex and two per level."""
    k = est.params.k
    clusters = est.clusters
    n = est.graph.num_vertices
    columns = est.columns
    rows = {(v, u, b) for u, cluster in clusters.clusters.items()
            for v, b in cluster.value.items()}
    got = set()
    for v in range(n):
        values = cluster_values(est, v)
        assert list(values) == sorted(values)
        got |= {(v, u, b) for u, b in values.items()}
    assert got == rows
    assert len(columns["cv_center"]) == len(rows)
    for v in range(n):
        for i, level in enumerate(clusters.pivots):
            pivot = level.pivot[v]
            assert columns["sk_pivot"][v * k + i] == \
                (-1 if pivot is None else pivot)
            assert columns["sk_pivot_d"][v * k + i] == \
                level.dist_hat[v]
    held = [0] * n
    for v, _u, _b in rows:
        held[v] += 1
    assert columns["sketch_words"].tolist() == \
        [1 + 2 * count + 2 * k for count in held]


FAMILIES = {
    "grid": lambda: grid(5, 7, seed=11),
    "cliques": lambda: ring_of_cliques(4, 5, seed=12),
    "star": lambda: star_of_paths(5, 6, seed=13),
    "geometric": lambda: random_geometric(40, seed=14),
    "path": lambda: path(17, seed=15),
}


class TestColumns:
    def test_columns_are_the_cluster_system(self, est_k):
        est, _ = est_k
        assert_columns_are_the_cluster_system(est)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_columns_on_graph_families(self, family):
        """The same contract off other shapes of cluster system: long
        paths, dense cliques, a heavy-spoked star."""
        est = build_estimation(FAMILIES[family](), k=3, seed=5)
        assert_columns_are_the_cluster_system(est)

    def test_column_layout(self, est_k):
        """Each column is one flat int64 or float64 array;
        ``cv_start`` is nondecreasing from 0 to the number of
        memberships."""
        est, k = est_k
        n = est.graph.num_vertices
        columns = est.columns
        expected = {"sk_pivot": (np.int64, n * k),
                    "sk_pivot_d": (np.float64, n * k),
                    "cv_start": (np.int64, n + 1),
                    "cv_center": (np.int64, len(columns["cv_value"])),
                    "cv_value": (np.float64, len(columns["cv_center"])),
                    "sketch_words": (np.int64, n)}
        assert set(columns) == set(expected)
        for name, (dtype, length) in expected.items():
            assert columns[name].dtype == dtype, name
            assert columns[name].shape == (length,), name
        cv_start = columns["cv_start"]
        assert cv_start[0] == 0
        assert cv_start[-1] == len(columns["cv_center"])
        assert (np.diff(cv_start) >= 0).all()

    def test_compile_wraps_the_columns(self, est_k):
        """``compile()`` copies no column."""
        est, _ = est_k
        compiled = est.compile()
        for name, column in est.columns.items():
            assert getattr(compiled, "_" + name) is column, name


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

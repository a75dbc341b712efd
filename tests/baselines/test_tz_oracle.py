"""Tests for the [TZ05] distance oracle baseline: stretch 2k-1 exact."""

import math
import random

import pytest

from repro.baselines import build_tz_oracle
from repro.exceptions import ParameterError
from repro.graphs import all_pairs_distances, random_connected


@pytest.fixture(scope="module")
def graph():
    return random_connected(40, 0.12, seed=401)


@pytest.fixture(scope="module")
def ap(graph):
    return all_pairs_distances(graph)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stretch_2k_minus_1(graph, ap, k):
    oracle = build_tz_oracle(graph, k=k, seed=3)
    bound = 2 * k - 1
    for u in graph.vertices():
        for v in graph.vertices():
            if u == v:
                continue
            e = oracle.query(u, v)
            assert ap[u][v] - 1e-9 <= e <= bound * ap[u][v] + 1e-9


def test_k1_is_exact(graph, ap):
    oracle = build_tz_oracle(graph, k=1, seed=3)
    for u in graph.vertices():
        for v in graph.vertices():
            assert oracle.query(u, v) == pytest.approx(ap[u][v])


def test_self_query_zero(graph):
    oracle = build_tz_oracle(graph, k=3, seed=3)
    assert oracle.query(5, 5) == 0.0


def test_sketch_size_shrinks_with_k():
    g = random_connected(150, 0.05, seed=11)
    s2 = build_tz_oracle(g, k=2, seed=11).average_sketch_words()
    s4 = build_tz_oracle(g, k=4, seed=11).average_sketch_words()
    assert s4 < s2


def test_sketch_words_bound(graph):
    oracle = build_tz_oracle(graph, k=3, seed=3)
    n = graph.num_vertices
    assert oracle.max_sketch_words() <= 40 * n ** (1 / 3) * \
        (math.log2(n) + 2)


def test_bunch_symmetry_with_clusters(graph):
    """u ∈ B(v) iff v ∈ C(u)."""
    from repro.core import SchemeParams, compute_exact_clusters, \
        sample_levels
    hierarchy = sample_levels(graph.num_vertices,
                              SchemeParams(n=graph.num_vertices, k=3),
                              random.Random(3))
    oracle = build_tz_oracle(graph, k=3, seed=99, hierarchy=hierarchy)
    system = compute_exact_clusters(graph, hierarchy)
    for v in graph.vertices():
        for u in oracle.sketches[v].bunch:
            assert v in system.clusters[u].dist


def test_bad_endpoints(graph):
    oracle = build_tz_oracle(graph, k=2, seed=3)
    with pytest.raises(ParameterError):
        oracle.query(-1, 3)

"""Property-based end-to-end tests (hypothesis): on random graphs,
hierarchies and seeds, the whole pipeline obeys the paper's guarantees.

These sweep a wider, adversarially-shrunk space than the unit suites:
every generated instance must satisfy delivery, the stretch bound, the
estimation bound and the cluster sandwich simultaneously.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import build_approx_clusters, build_routing_scheme
from repro.graphs import all_pairs_distances, random_connected
from repro.pipeline import SchemePipeline


def _graph(n, density, wmax, seed):
    return random_connected(n, density, max_weight=wmax, seed=seed)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(8, 26),
       density=st.floats(0.1, 0.5),
       wmax=st.sampled_from([1, 10, 1000]),
       k=st.integers(1, 4),
       seed=st.integers(0, 10_000))
def test_routing_pipeline_properties(n, density, wmax, k, seed):
    graph = _graph(n, density, wmax, seed)
    ap = all_pairs_distances(graph)
    scheme = build_routing_scheme(graph, k=k, seed=seed)
    bound = max(1, 4 * k - 5) + 1.0
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(15)]
    for (u, v), result in zip(pairs, scheme.route_many(pairs)):
        # delivery on real edges
        assert result.path[0] == u and result.path[-1] == v
        for a, b in zip(result.path, result.path[1:]):
            assert graph.has_edge(a, b)
        # the stretch guarantee
        if u != v:
            assert result.weight <= bound * ap[u][v] + 1e-9
        # no vertex repeats (tree routing never revisits)
        assert len(set(result.path)) == len(result.path)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(8, 24),
       k=st.integers(1, 4),
       seed=st.integers(0, 10_000))
def test_estimation_pipeline_properties(n, k, seed):
    graph = _graph(n, 0.25, 50, seed)
    ap = all_pairs_distances(graph)
    est = (SchemePipeline().graph(graph).params(k).seed(seed)
           .build_estimation())
    bound = 2 * k - 1 + 1.0
    rng = random.Random(seed)
    for _ in range(15):
        u, v = rng.randrange(n), rng.randrange(n)
        e = est.estimate(u, v)
        assert e >= ap[u][v] - 1e-9          # never underestimates
        if u != v:
            assert e <= bound * ap[u][v] + 1e-9


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(8, 22),
       k=st.integers(2, 4),
       seed=st.integers(0, 10_000))
def test_cluster_invariants_properties(n, k, seed):
    graph = _graph(n, 0.3, 20, seed)
    ap = all_pairs_distances(graph)
    system = build_approx_clusters(graph, k, seed=seed)
    eps = system.params.eps
    system.check_parents()
    for center, cluster in system.clusters.items():
        tree = cluster.tree()
        assert tree.size == len(cluster)
        for v, b in cluster.value.items():
            # (17): values sandwich the true distance
            assert ap[center][v] - 1e-9 <= b
            assert b <= (1 + eps) ** 4 * ap[center][v] + 1e-9
    # every vertex centers exactly one cluster
    assert sorted(system.clusters) == list(range(n))

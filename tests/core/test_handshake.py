"""Tests for the handshake routing variant (footnote 2)."""

import itertools
import random

import pytest

from repro.core.handshake import HandshakeRouter
from repro.exceptions import SchemeError
from repro.graphs import all_pairs_distances, random_connected
from repro.pipeline import SchemePipeline


@pytest.fixture(scope="module")
def setup():
    graph = random_connected(40, 0.12, seed=801)
    report = (SchemePipeline().graph(graph).params(3).seed(9)
              .build().construction)
    router = HandshakeRouter(report.scheme, report.estimation)
    return graph, report, router


class TestGuarantees:
    def test_delivery_every_pair(self, setup):
        graph, _, router = setup
        for u in graph.vertices():
            for v in graph.vertices():
                result = router.route(u, v)
                assert result.path[0] == u and result.path[-1] == v

    def test_inherits_4k_minus_5_bound(self, setup):
        graph, report, router = setup
        ap = all_pairs_distances(graph)
        bound = router.guaranteed_stretch_bound
        for u in graph.vertices():
            for v in graph.vertices():
                if u == v:
                    continue
                result = router.route(u, v)
                assert result.weight <= bound * ap[u][v] + 1e-9

    def test_achieves_2k_minus_1_empirically(self, setup):
        """The footnote-2 target holds on the workload (empirical)."""
        graph, _, router = setup
        ap = all_pairs_distances(graph)
        target = router.handshake_stretch_target
        for u in graph.vertices():
            for v in graph.vertices():
                if u == v:
                    continue
                result = router.route(u, v)
                assert result.weight <= target * ap[u][v] + 1e-9

    def test_never_worse_on_average_than_plain(self, setup):
        graph, report, router = setup
        rng = random.Random(4)
        pairs = [(u, v) for u, v in ((rng.randrange(40), rng.randrange(40))
                                     for _ in range(200)) if u != v]
        hand_total = sum(router.route(u, v).weight for u, v in pairs)
        plain_total = sum(r.weight
                          for r in report.scheme.route_many(pairs))
        assert hand_total <= plain_total + 1e-9


class TestMechanics:
    def test_route_to_self(self, setup):
        _, _, router = setup
        result = router.route(6, 6)
        assert result.path == [6]
        assert result.estimate == 0.0

    def test_estimate_upper_bounds_route(self, setup):
        """The handshake score b_s(w)+b_t(w) bounds the routed weight
        (Claim-7 telescoping)."""
        graph, _, router = setup
        rng = random.Random(5)
        for _ in range(100):
            u, v = rng.randrange(40), rng.randrange(40)
            if u == v:
                continue
            result = router.route(u, v)
            assert result.weight <= result.estimate + 1e-9

    def test_candidate_count_positive(self, setup):
        _, _, router = setup
        result = router.route(0, 39)
        assert result.candidate_trees >= 1

    def test_handshake_words_are_two_sketches(self, setup):
        """A sketch is one word for the vertex, two per cluster holding
        it and two per level's pivot entry."""
        _, report, router = setup
        clusters = report.clusters.clusters.values()
        k = report.params.k

        def sketch_words(v):
            return 1 + 2 * sum(v in c.value for c in clusters) + 2 * k

        assert router.handshake_words(3, 17) == \
            sketch_words(3) + sketch_words(17)

    def test_candidates_are_the_shared_clusters(self, setup):
        """For every pair, the candidate trees read off the two sketch
        slices are every cluster holding both endpoints, scored
        ``b_s + b_t`` and sorted by (score, center)."""
        graph, report, router = setup
        clusters = report.clusters.clusters
        vertices = list(graph.vertices())
        for s, t in itertools.product(vertices, vertices):
            expected = sorted(
                (c.value[s] + c.value[t], center)
                for center, c in clusters.items()
                if s in c.value and t in c.value)
            assert router._candidate_trees(s, t) == expected

    def test_rejects_mismatched_artifacts(self, setup):
        graph, report, _ = setup
        foreign = (SchemePipeline().graph(graph).params(3).seed(999)
                   .build_estimation())
        with pytest.raises(SchemeError):
            HandshakeRouter(report.scheme, foreign)

"""Deep pipeline tests: odd k=5 (three scale regimes at once: small,
middle, large), and k=3's one-sided rounded cluster values."""

import random

import pytest

from repro.core import build_routing_scheme
from repro.graphs import all_pairs_distances, random_connected
from repro.pipeline import SchemePipeline


@pytest.fixture(scope="module")
def graph():
    return random_connected(60, 0.08, seed=1201)


@pytest.fixture(scope="module")
def ap(graph):
    return all_pairs_distances(graph)


class TestK5:
    """k=5 exercises every construction path simultaneously:
    small levels {0, 1}, the middle level 2, and large levels {3, 4}."""

    @pytest.fixture(scope="class")
    def report(self, graph):
        return (SchemePipeline().graph(graph)
                .params(5).seed(5)
                .build().construction)

    def test_all_phase_families_present(self, report):
        names = set(report.scheme.ledger.breakdown())
        assert any(n.startswith("clusters/small-level-0") for n in names)
        assert any(n.startswith("clusters/small-level-1") for n in names)
        assert any(n.startswith("clusters/middle-level-2")
                   for n in names)
        assert any(n.startswith("large/phase1-level-3") for n in names)
        assert any(n.startswith("large/phase1-level-4") for n in names)
        assert any(n.startswith("pivots/approx-level-4") for n in names)

    def test_stretch_bound(self, report, graph, ap):
        rng = random.Random(1)
        bound = 4 * 5 - 5 + 1.0
        pairs = [(u, v) for u, v in ((rng.randrange(60), rng.randrange(60))
                                     for _ in range(250)) if u != v]
        for (u, v), result in zip(pairs, report.scheme.route_many(pairs)):
            assert result.weight <= bound * ap[u][v] + 1e-9

    def test_estimation_bound(self, report, graph, ap):
        rng = random.Random(2)
        bound = 2 * 5 - 1 + 1.0
        for _ in range(250):
            u, v = rng.randrange(60), rng.randrange(60)
            if u == v:
                continue
            e = report.estimation.estimate(u, v)
            assert ap[u][v] - 1e-9 <= e <= bound * ap[u][v] + 1e-9

    def test_no_drops_and_full_coverage(self, report, graph):
        report.clusters.check_parents()
        assert set(report.clusters.clusters) == set(graph.vertices())


class TestK3:
    """Theorem-1 detection rounds every weight up, so the construction
    meets its guarantees with values that only ever overestimate."""

    @pytest.fixture(scope="class")
    def scheme(self, graph):
        return build_routing_scheme(graph, k=3, seed=7)

    def test_stretch_bound(self, scheme, ap):
        rng = random.Random(3)
        pairs = [(u, v) for u, v in ((rng.randrange(60),
                                      rng.randrange(60))
                                     for _ in range(120)) if u != v]
        for (u, v), result in zip(pairs, scheme.route_many(pairs)):
            assert result.weight <= 8.0 * ap[u][v] + 1e-9

    def test_values_dominate_graph_distances(self, scheme, ap):
        """Every cluster value is >= the exact distance to its center
        (the rounding is one-sided, invariant (17))."""
        compared = 0
        for center, cluster in scheme.clusters.clusters.items():
            for v, value in cluster.value.items():
                assert value >= ap[center][v] - 1e-9
                compared += 1
        assert compared > 100

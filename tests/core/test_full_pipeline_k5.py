"""Deep pipeline tests: odd k=5 (three scale regimes at once: small,
middle, large) and detection-mode parity."""

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
                .params(5, detection_mode="exact").seed(5)
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
        assert report.clusters.total_dropped == 0
        assert set(report.clusters.clusters) == set(graph.vertices())


class TestDetectionModeParity:
    """Rounded and exact modes must agree on round charges and both
    satisfy the guarantees; values may differ by (1+eps) factors."""

    def test_round_charges_identical(self, graph):
        rounded = build_routing_scheme(graph, k=3, seed=7,
                                       detection_mode="rounded")
        exact = build_routing_scheme(graph, k=3, seed=7,
                                     detection_mode="exact")
        assert rounded.construction_rounds == exact.construction_rounds

    def test_both_modes_meet_stretch(self, graph, ap):
        rng = random.Random(3)
        for mode in ("rounded", "exact"):
            scheme = build_routing_scheme(graph, k=3, seed=7,
                                          detection_mode=mode)
            pairs = [(u, v) for u, v in ((rng.randrange(60),
                                          rng.randrange(60))
                                         for _ in range(120)) if u != v]
            for (u, v), result in zip(pairs, scheme.route_many(pairs)):
                assert result.weight <= 8.0 * ap[u][v] + 1e-9, mode

    def test_rounded_values_dominate_exact(self, graph):
        """Rounded-mode cluster values are >= exact-mode values (the
        rounding is one-sided) for clusters present in both."""
        rounded = build_routing_scheme(graph, k=3, seed=7,
                                       detection_mode="rounded")
        exact = build_routing_scheme(graph, k=3, seed=7,
                                     detection_mode="exact")
        compared = 0
        for center, rc in rounded.clusters.clusters.items():
            ec = exact.clusters.clusters[center]
            for v, rb in rc.value.items():
                eb = ec.value.get(v)
                if eb is not None:
                    assert rb >= eb - 1e-9
                    compared += 1
        assert compared > 100

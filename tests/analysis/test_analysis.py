"""Tests for the analysis harnesses (stretch, sizes, round models)."""

import math

import pytest

from repro.analysis import (
    GraphScale,
    StretchReport,
    crossover_diameter,
    evaluate_estimation,
    evaluate_routing,
    fit_exponent,
    lower_bound,
    measure_routing_sizes,
    model_table,
    pairs_to_evaluate,
    rounds_lp13,
    rounds_lp15,
    rounds_this_paper,
    rounds_tz01,
    subpolynomial_factor,
)
from repro.core import build_routing_scheme
from repro.graphs import random_connected
from repro.pipeline import SchemePipeline


@pytest.fixture(scope="module")
def graph():
    return random_connected(30, 0.15, seed=601)


@pytest.fixture(scope="module")
def scheme(graph):
    return build_routing_scheme(graph, k=3, seed=1)


class TestStretchHarness:
    def test_exhaustive_pair_count(self, graph, scheme):
        report = evaluate_routing(graph, scheme)
        assert report.pairs_evaluated == 30 * 29

    def test_sampled_pairs(self, graph, scheme):
        report = evaluate_routing(graph, scheme, sample=50, seed=1)
        assert report.pairs_evaluated == 50

    def test_statistics_ordered(self, graph, scheme):
        report = evaluate_routing(graph, scheme, sample=200, seed=2)
        assert 1.0 <= report.median_stretch <= report.p95_stretch \
            <= report.max_stretch
        assert report.mean_stretch <= report.max_stretch
        assert report.worst_pair is not None

    def test_estimation_harness(self, graph):
        est = (SchemePipeline().graph(graph).params(2).seed(1)
               .build_estimation())
        report = evaluate_estimation(graph, est, sample=100, seed=3)
        assert report.max_stretch <= 2 * 2 - 1 + 1.0
        assert report.max_stretch >= 1.0

    def test_pairs_deterministic(self):
        assert pairs_to_evaluate(10, 20, seed=5) == \
            pairs_to_evaluate(10, 20, seed=5)

    @pytest.mark.parametrize("n,sample", [(3, 50), (10, 20), (100, 200),
                                          (6, 30)])
    def test_sampled_pairs_are_distinct(self, n, sample):
        """Sampling is without replacement: ``min(sample, n(n-1))``
        distinct ordered pairs of distinct vertices."""
        pairs = pairs_to_evaluate(n, sample, seed=0)
        assert len(pairs) == len(set(pairs)) == min(sample, n * (n - 1))
        assert all(u != v and 0 <= u < n and 0 <= v < n
                   for u, v in pairs)

    @pytest.mark.parametrize("n", [2, 5])
    def test_sample_covering_every_pair_is_every_pair(self, n):
        """A sample of at least ``n(n-1)`` is the exhaustive pair set,
        each pair once."""
        every = pairs_to_evaluate(n, None)
        assert len(every) == n * (n - 1)
        for sample in (n * (n - 1), n * (n - 1) + 7):
            pairs = pairs_to_evaluate(n, sample, seed=3)
            assert sorted(pairs) == every

    def test_sampled_pairs_follow_the_seed(self):
        """Different seeds draw different samples of the same size."""
        a = pairs_to_evaluate(30, 40, seed=1)
        b = pairs_to_evaluate(30, 40, seed=2)
        assert len(a) == len(b) == 40
        assert a != b

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_is_empty(self, n):
        """No ordered pair of distinct vertices exists, so the sampler
        returns none (instead of spinning or raising) and the report is
        empty; no pair ever reaches the scheme."""
        from repro.graphs import WeightedGraph
        assert pairs_to_evaluate(n, 5) == []
        assert evaluate_routing(WeightedGraph(n), None, sample=5) == \
            StretchReport(0, 0.0, 0.0, 0.0, 0.0, None)


class TestSizeAccounting:
    def test_measure_routing_sizes(self, graph, scheme):
        report = measure_routing_sizes("ours", graph, scheme, k=3)
        assert report.max_table_words == scheme.max_table_words()
        assert report.normalized_table() > 0
        assert "ours" in report.row()

    def test_fit_exponent_recovers_slope(self):
        ns = [100, 200, 400, 800]
        values = [n ** 0.75 for n in ns]
        assert fit_exponent(ns, values) == pytest.approx(0.75, abs=1e-9)

    def test_fit_exponent_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([10], [5.0])


class TestRoundModels:
    def scale(self, n=10 ** 6, d=100, s=1000):
        return GraphScale(n=n, m=4 * n, hop_diameter=d,
                          shortest_path_diameter=s)

    def test_tz01_is_m(self):
        assert rounds_tz01(self.scale(), 3) == 4 * 10 ** 6

    def test_ours_beats_lp15_at_large_d(self):
        """The abstract's claim: substantially better when D >= n^Ω(1)."""
        scale = self.scale(n=10 ** 6, d=10 ** 3)
        assert rounds_this_paper(scale, 4) < rounds_lp15(scale, 4)

    def test_odd_k_exponent_smaller(self):
        scale = self.scale()
        # odd k=5 has exponent 1/2+1/10 vs even k=4's 1/2+1/4: at the
        # same subpolynomial factor the odd bound is far smaller
        odd = rounds_this_paper(scale, 5) / subpolynomial_factor(
            scale.n, 5)
        even = rounds_this_paper(scale, 4) / subpolynomial_factor(
            scale.n, 4)
        assert odd < even

    def test_lower_bound_below_everything(self):
        scale = self.scale()
        lb = lower_bound(scale)
        for k in (2, 3, 4):
            assert lb <= rounds_this_paper(scale, k)
            assert lb <= rounds_lp13(scale, k)

    def test_crossover_diameter_reasonable(self):
        d = crossover_diameter(10 ** 6, 4)
        assert 1 <= d <= 10 ** 6
        # beyond the crossover, ours wins
        scale = GraphScale(n=10 ** 6, m=4 * 10 ** 6,
                           hop_diameter=int(d * 2),
                           shortest_path_diameter=int(d * 2))
        assert rounds_this_paper(scale, 4) < rounds_lp15(scale, 4)

    def test_model_table_lists_all_schemes(self):
        lines = model_table(self.scale(), 3)
        text = "\n".join(lines)
        for name in ("TZ01", "LP13a", "LP15", "this paper",
                     "lower bound"):
            assert name in text

    def test_subpolynomial_factor_min(self):
        # small k: (log n)^k branch wins; huge k: 2^sqrt branch wins
        n = 2 ** 20
        assert subpolynomial_factor(n, 1) == pytest.approx(20.0)
        big_k = subpolynomial_factor(n, 50)
        assert big_k == pytest.approx(2 ** math.sqrt(20))


class TestGraphScale:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            GraphScale(n=1, m=0, hop_diameter=0,
                       shortest_path_diameter=0)

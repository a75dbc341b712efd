"""Tests for the full routing scheme (Theorem 5): stretch bound on every
pair, table/label sizes, protocol locality, Algorithm 1.  Routes come
from ``route_many`` (the compiled replay); protocol locality is checked
on the reference router's per-vertex objects."""

import math
import random

import pytest

from repro.core import build_routing_scheme
from repro.exceptions import ParameterError
from repro.graphs import (
    all_pairs_distances,
    grid,
    random_connected,
    ring_of_cliques,
    star_of_paths,
)
from repro.pipeline import SchemePipeline
from repro.reference import ReferenceRouter


@pytest.fixture(scope="module")
def rand_graph():
    return random_connected(45, 0.1, seed=101)


@pytest.fixture(scope="module")
def rand_ap(rand_graph):
    return all_pairs_distances(rand_graph)


@pytest.fixture(scope="module", params=[2, 3, 4])
def scheme_k(request, rand_graph):
    return build_routing_scheme(rand_graph, k=request.param, seed=7), \
        request.param


class TestStretch:
    def test_all_pairs_within_bound(self, scheme_k, rand_graph, rand_ap):
        scheme, k = scheme_k
        bound = max(1, 4 * k - 5) + 1.0  # 4k-5 + o(1)
        pairs = [(u, v) for u in rand_graph.vertices()
                 for v in rand_graph.vertices() if u != v]
        for (u, v), result in zip(pairs, scheme.route_many(pairs)):
            assert result.path[0] == u and result.path[-1] == v
            assert result.weight / rand_ap[u][v] <= bound

    def test_path_uses_real_edges(self, scheme_k, rand_graph):
        scheme, _ = scheme_k
        rng = random.Random(3)
        n = rand_graph.num_vertices
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        for result in scheme.route_many(pairs):
            for a, b in zip(result.path, result.path[1:]):
                assert rand_graph.has_edge(a, b)

    def test_route_to_self(self, scheme_k):
        scheme, _ = scheme_k
        result = scheme.route_many([(5, 5)])[0]
        assert result.path == [5]
        assert result.weight == 0.0

    @pytest.mark.parametrize("factory", [
        lambda: grid(5, 5, seed=1),
        lambda: ring_of_cliques(3, 6, seed=2),
        lambda: star_of_paths(4, 5),
    ])
    def test_other_families(self, factory):
        g = factory()
        ap = all_pairs_distances(g)
        scheme = build_routing_scheme(g, k=3, seed=5)
        bound = 4 * 3 - 5 + 1.0
        pairs = [(u, v) for u in range(0, g.num_vertices, 3)
                 for v in range(0, g.num_vertices, 2) if u != v]
        for (u, v), result in zip(pairs, scheme.route_many(pairs)):
            assert result.weight / ap[u][v] <= bound

    def test_k1_is_shortest_path_routing(self):
        g = random_connected(20, 0.2, seed=9)
        ap = all_pairs_distances(g)
        scheme = build_routing_scheme(g, k=1, seed=9)
        pairs = [(u, v) for u in g.vertices() for v in g.vertices()
                 if u != v]
        for (u, v), result in zip(pairs, scheme.route_many(pairs)):
            assert result.weight == pytest.approx(ap[u][v])


class TestSizes:
    def test_label_words_bound(self, scheme_k, rand_graph):
        scheme, k = scheme_k
        n = rand_graph.num_vertices
        log_n = math.log2(n) + 2
        # O(k log^2 n) with a generous constant for small n
        assert scheme.max_label_words() <= 40 * k * log_n ** 2

    def test_table_words_bound(self, scheme_k, rand_graph):
        scheme, k = scheme_k
        n = rand_graph.num_vertices
        log_n = math.log2(n) + 2
        # O(n^{1/k} log^2 n): overlap * per-tree-table + trick labels
        assert scheme.max_table_words() <= \
            220 * n ** (1 / k) * log_n ** 2

    def test_larger_k_smaller_tables(self):
        """The headline tradeoff: bigger k shrinks tables on average."""
        g = random_connected(120, 0.06, seed=3)
        small_k = build_routing_scheme(g, k=2, seed=3)
        large_k = build_routing_scheme(g, k=4, seed=3)
        assert large_k.average_table_words() < \
            small_k.average_table_words()


class TestFindTree:
    def test_found_level_within_range(self, scheme_k, rand_graph):
        scheme, k = scheme_k
        rng = random.Random(5)
        n = rand_graph.num_vertices
        pairs = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                     for _ in range(40)) if u != v]
        for result in scheme.route_many(pairs):
            assert -1 <= result.found_level <= k - 1
            assert result.tree_center is not None

    def test_tree_contains_both_endpoints(self, scheme_k, rand_graph):
        scheme, _ = scheme_k
        rng = random.Random(6)
        n = rand_graph.num_vertices
        pairs = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                     for _ in range(30)) if u != v]
        for (u, v), result in zip(pairs, scheme.route_many(pairs)):
            tree = scheme.clusters.clusters[result.tree_center].parent
            assert u in tree and v in tree


class TestTrick:
    def test_trick_reduces_or_preserves_stretch(self, rand_graph, rand_ap):
        with_trick = build_routing_scheme(rand_graph, k=3, seed=13,
                                          use_tz_trick=True)
        without = build_routing_scheme(rand_graph, k=3, seed=13,
                                       use_tz_trick=False)
        rng = random.Random(7)
        n = rand_graph.num_vertices
        pairs = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                     for _ in range(60)) if u != v]
        better_or_equal = sum(
            wt.weight <= wo.weight + 1e-9
            for wt, wo in zip(with_trick.route_many(pairs),
                              without.route_many(pairs)))
        assert better_or_equal >= len(pairs) * 0.7

    def test_trick_increases_table_size_only(self, rand_graph):
        with_trick = build_routing_scheme(rand_graph, k=3, seed=13,
                                          use_tz_trick=True)
        without = build_routing_scheme(rand_graph, k=3, seed=13,
                                       use_tz_trick=False)
        assert with_trick.max_table_words() >= without.max_table_words()
        assert with_trick.max_label_words() == without.max_label_words()


class TestProtocolLocality:
    def test_header_is_only_shared_state(self, rand_graph):
        """Re-route using ONLY per-hop tables + the fixed header: the
        reference objects' protocol lands on the served route."""
        scheme = build_routing_scheme(rand_graph, k=3, seed=17)
        router = ReferenceRouter(scheme)
        rng = random.Random(11)
        n = rand_graph.num_vertices
        pairs = [(u, v) for u, v in ((rng.randrange(n), rng.randrange(n))
                                     for _ in range(20)) if u != v]
        for (u, v), reference in zip(pairs, scheme.route_many(pairs)):
            if reference.found_level == -1:
                header = router.tables[u].member_labels[v]
            else:
                header = router.labels[v].tree_label(reference.found_level)
            tree_scheme = router.trees[reference.tree_center]
            x, path = u, [u]
            for _ in range(4 * rand_graph.num_vertices):
                nxt = tree_scheme.next_hop(x, header)
                if nxt is None:
                    break
                path.append(nxt)
                x = nxt
            assert path == reference.path


class TestConstructionReport:
    @pytest.fixture(scope="class")
    def report(self, rand_graph):
        return (SchemePipeline().graph(rand_graph).params(3).seed(19)
                .build().construction)

    def test_report_consistency(self, report):
        assert report.rounds == report.scheme.construction_rounds
        scheme = report.scheme
        assert report.max_table_words == scheme.max_table_words()
        assert report.avg_table_words == scheme.average_table_words()
        assert report.max_label_words == scheme.max_label_words()
        assert report.avg_label_words == scheme.average_label_words()
        assert report.params.k == 3
        assert report.paper_stretch_bound >= 4 * 3 - 5
        assert "rounds measured" in report.summary()

    def test_estimation_shares_clusters(self, report):
        assert report.estimation.clusters is report.clusters

    def test_invalid_route_endpoints(self, rand_graph):
        scheme = build_routing_scheme(rand_graph, k=2, seed=1)
        with pytest.raises(ParameterError):
            scheme.route_many([(0, 999)])


class TestDeterminism:
    def test_same_seed_same_scheme(self, rand_graph):
        a = build_routing_scheme(rand_graph, k=3, seed=23)
        b = build_routing_scheme(rand_graph, k=3, seed=23)
        assert a.construction_rounds == b.construction_rounds
        pairs = [(u, v) for u in range(0, rand_graph.num_vertices, 5)
                 for v in range(0, rand_graph.num_vertices, 7) if u != v]
        assert a.route_many(pairs) == b.route_many(pairs)

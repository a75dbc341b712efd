"""Tests for the hopset over the virtual plane's matrices: the all-pairs
pass, construction and verification."""

import random

import numpy as np
import pytest

from repro.exceptions import HopsetError, ParameterError
from repro.graphs import INF, dijkstra_distances, random_connected
from repro.hopsets import (
    Hopset,
    build_hopset,
    hop_bounded,
    measure_hopbound,
    min_plus,
    sample_hierarchy,
    shortest_paths,
    verify_hopset_property,
    verify_path_reporting,
)
from repro.hopsets import construction


def ring_virtual(m, weight=1.0):
    """A virtual ring: long unaided hop distances, ideal hopset testbed."""
    weights = np.full((m, m), INF)
    for u in range(m):
        weights[u, (u + 1) % m] = weights[(u + 1) % m, u] = weight
    return weights


def detection_virtual(seed=5, n=40, num_sources=10):
    """A G'-like virtual graph built from exact distances of a sample."""
    g = random_connected(n, 0.12, seed=seed)
    rng = random.Random(seed)
    sources = sorted(rng.sample(range(n), num_sources))
    weights = np.array([[dijkstra_distances(g, u)[v] for v in sources]
                        for u in sources], dtype=float)
    np.fill_diagonal(weights, INF)
    return weights


class TestMatrices:
    def test_min_plus(self):
        left = np.array([[0.0, 2.0], [INF, 1.0]])
        right = np.array([[5.0, 1.0], [1.0, INF]])
        assert min_plus(left, right).tolist() == [[3.0, 1.0], [2.0, INF]]

    def test_min_plus_chunks_agree(self, monkeypatch):
        weights = detection_virtual()
        whole = min_plus(weights, weights)
        from repro.hopsets import hopset
        monkeypatch.setattr(hopset, "_CUBE_CELLS", 1)
        assert min_plus(weights, weights).tolist() == whole.tolist()

    def test_shortest_paths_on_ring(self):
        dist, pred = shortest_paths(ring_virtual(6, weight=2.0))
        assert dist[0].tolist() == [0.0, 2.0, 4.0, 6.0, 4.0, 2.0]
        # the antipode is reached from both sides: the smaller vertex
        # of the two tied predecessors wins, as Dijkstra pops it first
        assert pred[0].tolist() == [-1, 0, 1, 2, 5, 0]

    def test_unreached_has_no_predecessor(self):
        weights = np.full((3, 3), INF)
        weights[0, 1] = weights[1, 0] = 1.0
        dist, pred = shortest_paths(weights)
        assert dist[0, 2] == INF and pred[0, 2] == -1

    def test_hop_bounded_distances_shrink(self):
        weights = ring_virtual(10)
        one, two = hop_bounded(weights, 1), hop_bounded(weights, 2)
        assert (two <= one).all()
        assert one[0, 2] == INF and two[0, 2] == 2.0


class TestHopsetColumns:
    def _hopset(self):
        dist, pred = shortest_paths(ring_virtual(5, weight=2.0))
        return Hopset(dist, pred, np.array([0, 3]), np.array([2, 0]),
                      np.array([4.0, 4.0]))

    def test_path_is_the_predecessor_walk(self):
        hopset = self._hopset()
        assert hopset.path(0) == [0, 1, 2]
        assert hopset.path(1) == [3, 4, 0]

    def test_prefix_distances(self):
        hopset = self._hopset()
        assert hopset.dist[0, hopset.path(0)].tolist() == [0.0, 2.0, 4.0]
        assert hopset.dist[3, hopset.path(1)].tolist() == [0.0, 2.0, 4.0]


class TestSampleHierarchy:
    def test_nested_and_shrinking(self):
        rng = random.Random(3)
        hierarchy = sample_hierarchy(list(range(100)), 4, rng)
        assert len(hierarchy) == 4
        for upper, lower in zip(hierarchy, hierarchy[1:]):
            assert set(lower) <= set(upper)
        assert len(hierarchy[-1]) < len(hierarchy[0])

    def test_level_zero_is_everything(self):
        rng = random.Random(3)
        hierarchy = sample_hierarchy([5, 1, 9], 2, rng)
        assert hierarchy[0] == [1, 5, 9]


class TestConstruction:
    def test_hopset_property_on_ring(self):
        virt = ring_virtual(24)
        report = build_hopset(virt, eps=0.25, rho=0.5,
                              rng=random.Random(1))
        beta = report.hopset.beta_measured
        assert beta is not None
        # unaided, antipodal pairs need 12 hops; hopset must shortcut
        assert beta < 12
        assert verify_hopset_property(virt, report.augmented, beta, 0.25)

    def test_hopset_property_on_detection_graph(self):
        virt = detection_virtual()
        report = build_hopset(virt, eps=0.2, rho=0.5, rng=random.Random(2))
        beta = report.hopset.beta_measured
        assert verify_hopset_property(virt, report.augmented, beta, 0.2)

    def test_path_reporting(self):
        for virt in (ring_virtual(20), detection_virtual()):
            report = build_hopset(virt, eps=0.3, rng=random.Random(4))
            assert verify_path_reporting(virt, report.hopset)

    def test_augmented_is_base_with_hopset_weights(self):
        virt = ring_virtual(20)
        report = build_hopset(virt, eps=0.3, rng=random.Random(4))
        hopset, augmented = report.hopset, report.augmented
        assert augmented[hopset.u, hopset.v].tolist() == \
            hopset.weight.tolist()
        assert (augmented == augmented.T).all()
        untouched = np.ones(virt.shape, dtype=bool)
        untouched[hopset.u, hopset.v] = untouched[hopset.v, hopset.u] = False
        assert (augmented[untouched] == virt[untouched]).all()

    def test_duplicate_keeps_lighter_then_first_found(self, monkeypatch):
        # path 0-1-2-3: the left-fold sums give d(0, 3) = (0.1 + 0.2) +
        # 0.3 = 0.6000000000000001 but d(3, 0) = (0.3 + 0.2) + 0.1 = 0.6
        virt = np.full((4, 4), INF)
        for u, w in enumerate((0.1, 0.2, 0.3)):
            virt[u, u + 1] = virt[u + 1, u] = w
        # one level: every vertex's bunch is every other vertex, so
        # each pair is found from both endpoints
        monkeypatch.setattr(construction, "sample_hierarchy",
                            lambda vertices, levels, rng:
                            [sorted(vertices), []])
        report = build_hopset(virt, eps=0.3)
        hopset = report.hopset
        assert hopset.dist[0, 3] == 0.6000000000000001
        assert hopset.dist[3, 0] == 0.6
        edges = {(min(u, v), max(u, v)): (u, w) for u, v, w in zip(
            hopset.u.tolist(), hopset.v.tolist(), hopset.weight.tolist())}
        assert len(hopset) == len(edges) == 6
        assert edges[(0, 3)] == (3, 0.6)          # the lighter
        assert edges[(0, 1)] == (0, 0.1)          # a tie: found first
        assert report.augmented[0, 3] == report.augmented[3, 0] == 0.6

    def test_size_reasonable(self):
        virt = ring_virtual(40)
        report = build_hopset(virt, eps=0.3, rho=0.5, rng=random.Random(7))
        m = len(virt)
        # TZ emulator with 2 levels: O(m^{1.5}) edges, far below m^2
        assert len(report.hopset) <= 4 * int(m ** 1.5)

    def test_more_levels_with_smaller_rho(self):
        virt = detection_virtual()
        r2 = build_hopset(virt, eps=0.3, rho=0.5, rng=random.Random(1))
        r4 = build_hopset(virt, eps=0.3, rho=0.25, rng=random.Random(1))
        assert r2.levels == 2
        assert r4.levels == 4

    def test_trivial_graphs(self):
        empty = np.full((0, 0), INF)
        report = build_hopset(empty, eps=0.3)
        assert len(report.hopset) == 0
        single = np.full((1, 1), INF)
        report = build_hopset(single, eps=0.3)
        assert report.hopset.beta_measured == 1

    def test_bad_parameters(self):
        virt = ring_virtual(5)
        with pytest.raises(ParameterError):
            build_hopset(virt, eps=0.0)
        with pytest.raises(ParameterError):
            build_hopset(virt, eps=0.3, rho=0.0)

    def test_rounds_positive_and_scale_with_size(self):
        small = build_hopset(ring_virtual(10), eps=0.3,
                             rng=random.Random(1))
        large = build_hopset(ring_virtual(40), eps=0.3,
                             rng=random.Random(1))
        assert large.rounds > small.rounds > 0


class TestMeasureHopbound:
    def test_clique_has_hopbound_one(self):
        virt = np.ones((6, 6))
        np.fill_diagonal(virt, INF)
        assert measure_hopbound(shortest_paths(virt)[0], virt, eps=0.1) == 1

    def test_ring_without_hopset_needs_many_hops(self):
        virt = ring_virtual(16)
        assert measure_hopbound(shortest_paths(virt)[0], virt,
                                eps=0.01) == 8

    def test_raises_when_unreachable(self):
        base = ring_virtual(8)
        # bogus 'augmented' graph missing edges entirely
        sparse = np.full((8, 8), INF)
        sparse[0, 1] = sparse[1, 0] = 1.0
        with pytest.raises(HopsetError):
            measure_hopbound(shortest_paths(base)[0], sparse, eps=0.1)

    def test_mismatched_vertices_raise(self):
        with pytest.raises(HopsetError):
            measure_hopbound(shortest_paths(ring_virtual(5))[0],
                             ring_virtual(6), eps=0.1)

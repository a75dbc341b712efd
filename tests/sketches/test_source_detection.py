"""Tests for [Nan14] Theorem-1 source detection: inequality (2), the
Remark-1 parent property (3), symmetry (footnote 8) and round model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import build_bfs_tree
from repro.exceptions import ParameterError
from repro.graphs import (
    INF,
    dijkstra_distances,
    hop_bounded_distances,
    random_connected,
)
from repro.hopsets import shortest_paths
from repro.sketches import build_virtual_graph_from_detection, detect_sources


@pytest.fixture(params=["weighted", "unit-weight"])
def graph(request, medium_random):
    """The guarantees on weighted edges, and on unit weights, where
    every rounded path length ties with many others."""
    if request.param == "weighted":
        return medium_random
    return random_connected(40, 0.1, max_weight=1, seed=2)


class TestGuarantee:
    def test_inequality_2(self, graph):
        """d^(B) <= d_uv <= (1+eps) d^(B) for every vertex/source pair."""
        sources = [0, 7, 19]
        B, eps = 6, 0.25
        result = detect_sources(graph, sources, B, eps)
        for s in sources:
            exact = hop_bounded_distances(graph, s, B)
            for u in graph.vertices():
                got = result.get(u, s)
                if exact[u] == INF:
                    assert got == INF
                else:
                    assert exact[u] <= got + 1e-9
                    assert got <= (1 + eps) * exact[u] + 1e-9

    def test_source_knows_itself_at_zero(self, graph):
        result = detect_sources(graph, [4], 3, 0.2)
        assert result.get(4, 4) == 0

    def test_hop_bound_respected(self, graph):
        """Vertices farther than B hops get no estimate."""
        result = detect_sources(graph, [0], 1, 0.2)
        neighbors = set(graph.neighbors(0)) | {0}
        for u in graph.vertices():
            if u not in neighbors:
                assert result.get(u, 0) == INF

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), eps=st.floats(0.05, 0.9))
    def test_property_random_graphs(self, seed, eps):
        g = random_connected(18, 0.25, max_weight=30, seed=seed)
        sources = [0, g.num_vertices // 2]
        B = 4
        result = detect_sources(g, sources, B, eps)
        for s in sources:
            exact = hop_bounded_distances(g, s, B)
            for u in g.vertices():
                got = result.get(u, s)
                if exact[u] < INF:
                    assert exact[u] <= got + 1e-9 <= \
                        (1 + eps) * exact[u] + 2e-9


class TestRemark1Parents:
    def test_parent_inequality_3(self, graph):
        """d_uv >= w(u, p) + d_pv with p = p_v(u)."""
        sources = [0, 9]
        B = 6
        result = detect_sources(graph, sources, B, 0.3)
        for u in graph.vertices():
            for s in sources:
                if result.get(u, s) == INF or u == s:
                    continue
                p = result.parent[u][s]
                assert p is not None
                assert graph.has_edge(u, p)
                dpv = result.get(p, s)
                assert result.get(u, s) >= \
                    graph.weight(u, p) + dpv - 1e-9

    def test_source_has_no_parent(self, graph):
        result = detect_sources(graph, [5], 4, 0.3)
        assert result.parent[5][5] is None


class TestSymmetry:
    def test_footnote_8_symmetric_between_sources(self, graph):
        sources = [0, 7, 19, 23]
        result = detect_sources(graph, sources, 8, 0.2)
        for u in sources:
            for v in sources:
                assert result.get(u, v) == pytest.approx(result.get(v, u))


class TestRounds:
    def test_rounds_grow_with_parameters(self, medium_random):
        tree = build_bfs_tree(medium_random, root=0)
        small = detect_sources(medium_random, [0], 2, 0.5, bfs_tree=tree)
        more_sources = detect_sources(medium_random, [0, 1, 2, 3], 2, 0.5,
                                      bfs_tree=tree)
        deeper = detect_sources(medium_random, [0], 8, 0.5, bfs_tree=tree)
        finer = detect_sources(medium_random, [0], 2, 0.1, bfs_tree=tree)
        assert more_sources.rounds > small.rounds
        assert deeper.rounds > small.rounds
        assert finer.rounds > small.rounds


class TestValidation:
    def test_bad_eps(self, triangle):
        with pytest.raises(ParameterError):
            detect_sources(triangle, [0], 2, 0.0)
        with pytest.raises(ParameterError):
            detect_sources(triangle, [0], 2, 1.0)

    def test_bad_hop_bound(self, triangle):
        with pytest.raises(ParameterError):
            detect_sources(triangle, [0], -1, 0.5)

    def test_bad_source(self, triangle):
        with pytest.raises(ParameterError):
            detect_sources(triangle, [9], 2, 0.5)


class TestVirtualGraphConstruction:
    def test_virtual_graph_edges_match_estimates(self, medium_random):
        sources = [0, 7, 19]
        result = detect_sources(medium_random, sources,
                                medium_random.num_vertices - 1, 0.2)
        weights = build_virtual_graph_from_detection(result)
        assert weights.shape == (3, 3)
        assert (np.diag(weights) == INF).all()
        assert (weights == weights.T).all()
        for i, u in enumerate(sources):
            for j, v in enumerate(sources):
                if u < v:
                    assert weights[i, j] == pytest.approx(result.get(u, v))

    def test_virtual_graph_dominates(self, medium_random):
        """Paper (12): d_G <= d_G' for the detection-based G'."""
        sources = [0, 7, 19, 30]
        result = detect_sources(medium_random, sources,
                                medium_random.num_vertices - 1, 0.2)
        dist = shortest_paths(build_virtual_graph_from_detection(result))[0]
        for i, u in enumerate(sources):
            exact = dijkstra_distances(medium_random, u)
            for j, v in enumerate(sources):
                assert dist[i, j] >= exact[v] - 1e-9

"""Tests for the Section-3 approximate pivots/clusters against the exact
oracle: inequalities (7), (9), (10), (17) and the structural claims."""

import math
import random

import numpy as np
import pytest

from repro.core import (
    SchemeParams,
    build_approx_clusters,
    compute_exact_clusters,
    sample_levels,
)
from repro.exceptions import SchemeError
from repro.graphs import (
    INF,
    all_pairs_distances,
    grid,
    random_connected,
    ring_of_cliques,
)
from repro.trees import tree_distance


def build_both(graph, k, seed):
    """Approximate system plus the exact oracle on the SAME hierarchy."""
    n = graph.num_vertices
    params = SchemeParams(n=n, k=k)
    hierarchy = sample_levels(n, params, random.Random(seed))
    approx = build_approx_clusters(graph, k, seed=seed,
                                   hierarchy=hierarchy)
    exact = compute_exact_clusters(graph, hierarchy)
    return approx, exact


GRAPHS = {
    "random": lambda: random_connected(40, 0.12, seed=17),
    "grid": lambda: grid(6, 6, seed=18),
    "cliques": lambda: ring_of_cliques(4, 7, seed=19),
}


@pytest.fixture(params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.mark.parametrize("k", [2, 3, 4])
class TestInvariants:
    def test_pivots_inequality_7(self, graph, k):
        """d_G(v, ẑ_i(v)) <= (1+eps) d_G(v, A_i)."""
        approx, exact = build_both(graph, k, seed=23)
        eps = approx.params.eps
        ap = all_pairs_distances(graph)
        for i in range(k):
            for v in graph.vertices():
                z = approx.pivot_of(v, i)
                exact_d = exact.pivots[i].dist[v]
                if exact_d == INF:
                    continue
                assert z is not None
                assert ap[v][z] <= (1 + eps) * exact_d + 1e-9
                # the reported value is an upper bound on the real
                # distance to the reported pivot and within (1+eps):
                d_hat = approx.pivot_distance(v, i)
                assert exact_d <= d_hat + 1e-9
                assert d_hat <= (1 + eps) * exact_d + 1e-9

    def test_sandwich_inequality_9(self, graph, k):
        """C_{6eps}(u) ⊆ C̃(u) ⊆ C(u)."""
        approx, exact = build_both(graph, k, seed=29)
        eps = approx.params.eps
        ap = all_pairs_distances(graph)
        for center, cluster in approx.clusters.items():
            i = cluster.level
            exact_members = set(exact.clusters[center].members())
            next_dist = (exact.pivots[i + 1].dist if i + 1 < k
                         else [INF] * graph.num_vertices)
            approx_members = set(cluster.members())
            assert approx_members <= exact_members, \
                f"C̃({center}) ⊄ C({center})"
            c6 = {v for v in graph.vertices()
                  if ap[center][v] < next_dist[v] / (1 + 6 * eps)}
            assert c6 <= approx_members, \
                f"C_6eps({center}) ⊄ C̃({center})"

    def test_value_inequality_17(self, graph, k):
        """d_G(u,v) <= b_v(u) <= (1+eps)^4 d_G(u,v)."""
        approx, _ = build_both(graph, k, seed=31)
        eps = approx.params.eps
        ap = all_pairs_distances(graph)
        for center, cluster in approx.clusters.items():
            for v, b in cluster.value.items():
                d = ap[center][v]
                assert d <= b + 1e-9
                assert b <= (1 + eps) ** 4 * d + 1e-9

    def test_tree_stretch_inequality_10(self, graph, k):
        """d_{C̃(u)}(u, v) <= (1+eps)^4 d_G(u, v) along the built tree."""
        approx, _ = build_both(graph, k, seed=37)
        eps = approx.params.eps
        ap = all_pairs_distances(graph)
        for center, cluster in approx.clusters.items():
            tree = cluster.tree()
            for v in cluster.members():
                d_tree = tree_distance(tree, graph.weight, center, v)
                assert d_tree <= (1 + eps) ** 4 * ap[center][v] + 1e-9

    def test_no_dropped_members(self, graph, k):
        """Claim 7 in action: every parent is a member of its cluster,
        so the build needs no repair."""
        approx, _ = build_both(graph, k, seed=41)
        approx.check_parents()


class TestStructure:
    def test_tree_edges_are_graph_edges(self, graph):
        approx, _ = build_both(graph, 3, seed=43)
        for center, cluster in approx.clusters.items():
            for v in cluster.members():
                p = cluster.parent[v]
                if p is not None:
                    assert graph.has_edge(v, p)

    def test_top_level_clusters_cover_v(self, graph):
        approx, _ = build_both(graph, 3, seed=47)
        k = approx.params.k
        top_centers = approx.hierarchy.centers_at(k - 1)
        for center in top_centers:
            assert len(approx.clusters[center]) == graph.num_vertices

    def test_every_vertex_is_a_center(self, graph):
        approx, _ = build_both(graph, 3, seed=53)
        assert set(approx.clusters) == set(graph.vertices())

    def test_overlap_claim2(self):
        g = random_connected(80, 0.08, seed=59)
        approx, _ = build_both(g, 3, seed=59)
        bound = 4 * 80 ** (1 / 3) * math.log(80)
        assert approx.max_overlap() <= 2 * bound

    def test_ledger_has_expected_phases(self, graph):
        approx, _ = build_both(graph, 4, seed=61)
        names = set(approx.ledger.breakdown())
        assert any(n.startswith("pivots/") for n in names)
        assert any(n.startswith("clusters/small") for n in names)
        assert any(n.startswith("large/phase1") for n in names)
        assert "large/preprocess-detection" in names
        assert "large/preprocess-hopset" in names

    def test_odd_k_has_middle_level_phase(self, graph):
        approx, _ = build_both(graph, 3, seed=67)
        names = set(approx.ledger.breakdown())
        assert any(n.startswith("clusters/middle-level") for n in names)

    def test_even_k_has_no_middle_level_phase(self, graph):
        approx, _ = build_both(graph, 4, seed=71)
        names = set(approx.ledger.breakdown())
        assert not any(n.startswith("clusters/middle") for n in names)

    def test_beta_recorded_when_large_scales_ran(self, graph):
        approx, _ = build_both(graph, 3, seed=73)
        assert approx.beta >= 1


@pytest.mark.parametrize("corruption", ["outside", "orphan", "center"])
def test_corrupt_parent_is_rejected(corruption):
    """``check_parents`` is Claim 7 as one vectorised check: one
    corrupted ``parent`` cell — a member pointing outside its cluster,
    a member with no parent, a center with one — is a
    :class:`SchemeError` naming the cluster and the vertex."""
    system = build_approx_clusters(random_connected(40, 0.12, seed=17), 3,
                                   seed=41)
    system.check_parents()
    sizes = np.diff(system.c_start)
    c = int(np.flatnonzero((sizes > 1) & (sizes < 40))[0])
    center = int(system.center[c])
    cells = np.arange(system.c_start[c], system.c_start[c + 1])
    members = system.member[cells]
    cell = int(cells[(members == center) == (corruption == "center")][0])
    parent = {"outside": min(set(range(40)) - set(members.tolist())),
              "orphan": -1,
              "center": int(members[members != center][0])}[corruption]
    system.parent[cell] = parent
    with pytest.raises(SchemeError, match=(
            f"cluster {center}: vertex {int(system.member[cell])} has "
            f"parent {parent}, which is not a member")):
        system.check_parents()


class TestDeterminism:
    def test_same_seed_same_system(self):
        g = random_connected(30, 0.15, seed=3)
        a = build_approx_clusters(g, 3, seed=11)
        b = build_approx_clusters(g, 3, seed=11)
        assert a.hierarchy.levels == b.hierarchy.levels
        assert set(a.clusters) == set(b.clusters)
        for center in a.clusters:
            assert a.clusters[center].value == b.clusters[center].value

    def test_different_seed_differs(self):
        g = random_connected(30, 0.15, seed=3)
        a = build_approx_clusters(g, 3, seed=11)
        b = build_approx_clusters(g, 3, seed=12)
        assert a.hierarchy.levels != b.hierarchy.levels


class TestEdgeCases:
    def test_k1_clusters_are_all_of_v(self):
        g = random_connected(15, 0.3, seed=5)
        approx = build_approx_clusters(g, 1, seed=5)
        for center, cluster in approx.clusters.items():
            assert len(cluster) == 15
            # values are exact distances at k=1 (pure Bellman-Ford)
        ap = all_pairs_distances(g)
        for center, cluster in approx.clusters.items():
            for v, b in cluster.value.items():
                assert b == pytest.approx(ap[center][v])

    def test_tiny_graph(self, triangle):
        approx = build_approx_clusters(triangle, 2, seed=1)
        assert set(approx.clusters) == {0, 1, 2}

    def test_disconnected_rejected(self):
        from repro.exceptions import DisconnectedGraphError
        from repro.graphs import WeightedGraph
        g = WeightedGraph(4)
        g.add_edge(0, 1, 1)
        g.add_edge(2, 3, 1)
        with pytest.raises(DisconnectedGraphError):
            build_approx_clusters(g, 2, seed=1)

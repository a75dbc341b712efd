"""Tests for distributed BFS and the Lemma-1 broadcast accounting."""

import pytest

from repro.congest import (
    Network,
    NodeContext,
    broadcast_all,
    broadcast_from_root,
    build_bfs_tree,
    convergecast,
    make_contexts,
    pipelined_rounds,
)
from repro.graphs import (
    grid,
    hop_distances,
    path,
    random_connected,
    ring_of_cliques,
    star_of_paths,
    weighted_small_world,
)
from repro.reference import simulate_flood_rounds

CONTEXT_ZOO = {
    "random-32": lambda: random_connected(32, 0.12, seed=817),
    "dense-28": lambda: random_connected(28, 0.35, seed=827),
    "grid-4x8": lambda: grid(4, 8, seed=839),
    "path-30": lambda: path(30, seed=853),
    "cliques-4x6": lambda: ring_of_cliques(4, 6, seed=857),
    "star-4x7": lambda: star_of_paths(4, 7, seed=859),
    "smallworld-30": lambda: weighted_small_world(30, seed=863),
}


@pytest.mark.parametrize("name", sorted(CONTEXT_ZOO))
def test_contexts_equal_per_link_lookups(name):
    """One pass over each node's adjacency gives the contexts the
    per-link ``Network.weight`` lookups gave, field for field."""
    net = Network(CONTEXT_ZOO[name]())
    expected = [NodeContext(node=u, neighbors=net.neighbors(u),
                            weights=[net.weight(u, v)
                                     for v in net.neighbors(u)])
                for u in range(net.num_nodes)]
    got = make_contexts(net)
    assert got == expected
    for ctx in got:
        assert ctx.neighbors == sorted(ctx.neighbors)
        assert all(type(w) is int for w in ctx.weights)


class TestBFS:
    def test_depths_match_hop_distances(self, any_graph):
        tree = build_bfs_tree(any_graph, root=0)
        expected = hop_distances(any_graph, 0)
        for v in any_graph.vertices():
            assert tree.depth[v] == expected[v]

    def test_parents_are_one_level_up(self, medium_random):
        tree = build_bfs_tree(medium_random, root=0)
        for v in medium_random.vertices():
            if v == 0:
                assert tree.parent[v] is None
            else:
                p = tree.parent[v]
                assert medium_random.has_edge(p, v)
                assert tree.depth[v] == tree.depth[p] + 1

    def test_rounds_close_to_eccentricity(self):
        g = path(8)
        tree = build_bfs_tree(g, root=0)
        assert tree.height == 7
        # flood needs ecc rounds (plus possibly 1 for late tie updates)
        assert 7 <= tree.rounds <= 9

    def test_children_and_path_to_root(self):
        g = path(5)
        tree = build_bfs_tree(g, root=2)
        kids = tree.children()
        assert sorted(kids[2]) == [1, 3]
        assert tree.path_to_root(0) == [0, 1, 2]

    def test_deterministic_parent_choice(self):
        g = grid(3, 3, seed=1)
        t1 = build_bfs_tree(g, root=0)
        t2 = build_bfs_tree(g, root=0)
        assert t1.parent == t2.parent


class TestPipelinedRounds:
    def test_zero_words_costs_depth_only(self):
        assert pipelined_rounds(0, 2, 5) == 5

    def test_ceil_division(self):
        assert pipelined_rounds(10, 3, 0) == 4
        assert pipelined_rounds(9, 3, 0) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            pipelined_rounds(1, 0, 1)


class TestLemma1:
    def test_broadcast_cost_linear_in_words(self):
        g = random_connected(20, 0.2, seed=5)
        tree = build_bfs_tree(g, root=0)
        small = broadcast_all(tree, [1] * 20)
        large = broadcast_all(tree, [10] * 20)
        assert large > small
        # M + D structure: doubling words adds ~M/c rounds
        assert large - small == 2 * ((200 - 20) // 2)

    def test_convergecast_cheaper_than_full_broadcast(self):
        g = random_connected(20, 0.2, seed=5)
        tree = build_bfs_tree(g, root=0)
        words = [2] * 20
        assert convergecast(tree, words) < broadcast_all(tree, words)

    def test_broadcast_from_root(self):
        g = path(6)
        tree = build_bfs_tree(g, root=0)
        assert broadcast_from_root(tree, 10) == 5 + 5

    def test_flood_simulation_delivers_everything(self):
        g = grid(3, 3, seed=2)
        net = Network(g)
        initial = {0: [("a", 1)], 4: [("b", 2)], 8: [("c", 3)]}
        rounds, seen = simulate_flood_rounds(net, initial)
        union = {("a", 1), ("b", 2), ("c", 3)}
        for node_seen in seen:
            assert node_seen == union
        # Lemma 1: O(M + D) — here M = 6 words, D = 4
        tree = build_bfs_tree(g, root=0)
        charged = broadcast_all(tree, [2 if u in initial else 0
                                       for u in range(9)])
        assert rounds <= charged + 4  # flood is within the scheduled charge

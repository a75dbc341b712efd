"""Differential harness: the forest kernel's columns vs the oracle.

:func:`build_forest_routing` (sweeps over all trees' pre-orders laid
end to end, emitting integer columns; a single tree is a one-tree
forest) must reproduce :func:`build_distributed_tree_routing_reference`
(per-splitter subtree materialization, per-splitter root-path walks)
*bit for bit*: every lazily materialised table and label, every word
count — the arithmetic ones too — the splitter list, the measured
subtree depth and every ledger charge, across random trees, chains,
degenerate splitter sets, custom ports, dense splitter samples and the
forests an actual cluster build produces.
"""

import random

import pytest

from repro.congest import Network
from repro.core import build_approx_clusters
from repro.core.tree_routing import (
    build_distributed_tree_routing,
    build_distributed_tree_routing_reference,
    build_forest_routing,
    build_forest_routing_reference,
    sample_splitters,
)
from repro.trees import RootedTree


def random_tree(n, seed, root=0):
    rng = random.Random(seed)
    parent = {root: None}
    names = [root] + [v for v in range(n + 5) if v != root][:n - 1]
    for idx in range(1, n):
        parent[names[idx]] = names[rng.randrange(idx)]
    return RootedTree(root, parent)


def chain_tree(n):
    return RootedTree(0, {i: (i - 1 if i else None) for i in range(n)})


def assert_schemes_identical(fast, ref):
    assert fast.splitters == ref.splitters
    assert fast.max_subtree_depth == ref.max_subtree_depth
    assert set(fast.tables) == set(ref.tables)
    for v in ref.tables:
        assert fast.tables[v] == ref.tables[v], f"table of {v}"
        assert fast.labels[v] == ref.labels[v], f"label of {v}"
    assert fast.max_table_words() == ref.max_table_words()
    assert fast.max_label_words() == ref.max_label_words()


class TestSingleTreeEquivalence:

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("prob", [0.0, 0.15, 0.5, 1.0])
    def test_random_trees(self, seed, prob):
        n = 4 + 3 * seed
        tree = random_tree(n, seed)
        splitters = sample_splitters(n + 5, prob, random.Random(seed + 1))
        ref = build_distributed_tree_routing_reference(tree, splitters)
        fast = build_distributed_tree_routing(tree, splitters)
        assert_schemes_identical(fast, ref)

    def test_chain_variants(self):
        for splitters in (set(), {5}, set(range(0, 32, 4)),
                          set(range(32))):
            tree = chain_tree(32)
            ref = build_distributed_tree_routing_reference(tree, splitters)
            fast = build_distributed_tree_routing(tree, splitters)
            assert_schemes_identical(fast, ref)

    def test_singleton_tree(self):
        tree = RootedTree(7, {7: None})
        ref = build_distributed_tree_routing_reference(tree, {7})
        fast = build_distributed_tree_routing(tree, {7})
        assert_schemes_identical(fast, ref)

    def test_splitters_outside_tree_ignored(self):
        tree = chain_tree(10)
        ref = build_distributed_tree_routing_reference(tree, {3, 7, 99})
        fast = build_distributed_tree_routing(tree, {3, 7, 99})
        assert_schemes_identical(fast, ref)
        assert fast.splitters == [0, 3, 7]

    def test_custom_ports_flow_through(self):
        tree = random_tree(20, 5)

        def port_of(u, v):
            return (u * 31 + v) % 97

        ref = build_distributed_tree_routing_reference(tree, {4, 9},
                                                       port_of=port_of)
        fast = build_distributed_tree_routing(tree, {4, 9},
                                              port_of=port_of)
        assert_schemes_identical(fast, ref)

    def test_routes_still_exact(self):
        tree = random_tree(30, 21)
        fast = build_distributed_tree_routing(tree, {2, 8, 14})
        vertices = list(tree.vertices())
        rnd = random.Random(3)
        for _ in range(40):
            s, t = rnd.choice(vertices), rnd.choice(vertices)
            assert fast.route(s, t) == tree.path_between(s, t)


class TestForestEquivalence:

    def _trees(self, seed=11):
        return {
            0: random_tree(25, seed, root=0),
            1: random_tree(20, seed + 1, root=3),
            2: chain_tree(15),
        }

    def test_forest_bit_identical(self):
        ref = build_forest_routing_reference(self._trees(), 30,
                                             random.Random(5))
        fast = build_forest_routing(self._trees(), 30, random.Random(5))
        assert fast.rounds == ref.rounds
        assert fast.splitter_count == ref.splitter_count
        assert fast.max_subtree_depth == ref.max_subtree_depth
        assert fast.max_overlap == ref.max_overlap
        for tid in ref.schemes:
            assert_schemes_identical(fast.schemes[tid], ref.schemes[tid])

    def test_cluster_forest_bit_identical(self, medium_random):
        """The forests the real pipeline builds, not just synthetic ones."""
        clusters = build_approx_clusters(medium_random, k=3, seed=2,
                                         detection_mode="exact")
        trees = {c: cl.tree() for c, cl in clusters.clusters.items()}
        network = Network(medium_random)
        ref = build_forest_routing_reference(
            trees, medium_random.num_vertices, random.Random(9),
            bfs_tree=clusters.bfs_tree, port_of=network.port_of)
        fast = build_forest_routing(
            trees, medium_random.num_vertices, random.Random(9),
            bfs_tree=clusters.bfs_tree, port_of=network.port_of)
        assert fast.rounds == ref.rounds
        for tid in ref.schemes:
            assert_schemes_identical(fast.schemes[tid], ref.schemes[tid])


    @pytest.mark.parametrize("gamma", [None, 4.0, 12.0, 40.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_parent_map_forest_matches_reference(self, seed, gamma):
        """What a construction passes — bare parent maps keyed by root,
        real ports — over sparse to saturated splitter samples (every
        vertex a splitter at the top): views, arithmetic word columns
        and all four ledger charges against the oracle's objects."""
        n = 40
        rng = random.Random(seed)
        trees = {}
        for root in rng.sample(range(n), 6):
            size = rng.randrange(1, n)
            members = [root] + rng.sample(
                [v for v in range(n) if v != root], size - 1)
            parent = {root: None}
            for idx in range(1, size):
                parent[members[idx]] = members[rng.randrange(idx)]
            trees[root] = parent

        def port_of(u, v):
            return (u * 31 + v) % 97

        ref = build_forest_routing_reference(
            {c: RootedTree(c, p) for c, p in trees.items()}, n,
            random.Random(seed), port_of=port_of, gamma=gamma)
        fast = build_forest_routing(trees, n, random.Random(seed),
                                    port_of=port_of, gamma=gamma)
        assert fast.splitter_count == ref.splitter_count
        assert fast.max_subtree_depth == ref.max_subtree_depth
        assert fast.max_overlap == ref.max_overlap
        assert [(p.name, p.rounds) for p in fast.ledger] == \
            [(p.name, p.rounds) for p in ref.ledger]
        assert list(fast.schemes) == sorted(ref.schemes)
        cols = fast.columns
        for tid, center in enumerate(cols.tree_center):
            sch = fast.schemes[center]
            assert_schemes_identical(sch, ref.schemes[center])
            assert list(sch.tree.parent_map().items()) == \
                list(trees[center].items())
            for v, s in cols.slot_of[tid].items():
                assert cols.slot_vertex[s] == v
                assert cols.slot_tree[s] == tid
                assert cols.slot_table_words[s] == sch.tables[v].words
                assert cols.slot_label_words[s] == sch.labels[v].words

    def test_views_are_built_once(self):
        report = build_forest_routing(self._trees(), 30, random.Random(5))
        assert report.schemes[1] is report.schemes[1]
        sch = report.schemes[1]
        v = next(iter(sch.tables))
        assert sch.tables[v] is sch.tables[v]
        assert sch.labels[v] is sch.labels[v]
        with pytest.raises(KeyError):
            sch.tables[10 ** 6]
        with pytest.raises(KeyError):
            report.schemes[10 ** 6]

    def test_empty_forest(self):
        ref = build_forest_routing_reference({}, 10, random.Random(1))
        fast = build_forest_routing({}, 10, random.Random(1))
        assert len(fast.schemes) == 0
        assert fast.rounds == ref.rounds
        assert fast.max_subtree_depth == ref.max_subtree_depth == 0
        assert fast.max_overlap == ref.max_overlap == 1


class TestEntryFromMap:
    """The precomputed parent_splitter → entry map behind entry_from."""

    def test_entry_from_agrees_with_linear_scan(self):
        tree = random_tree(40, 13)
        scheme = build_distributed_tree_routing(tree, set(range(0, 40, 5)))
        for v in tree.vertices():
            label = scheme.labels[v]
            seen = set()
            for entry in label.global_edges:
                if entry.parent_splitter in seen:
                    continue
                seen.add(entry.parent_splitter)
                assert label.entry_from(entry.parent_splitter) is entry
            assert label.entry_from(-123) is None

    def test_map_survives_dataclass_replace(self):
        import dataclasses
        tree = random_tree(40, 13)
        scheme = build_distributed_tree_routing(tree, set(range(0, 40, 5)))
        label = next(lab for lab in scheme.labels.values()
                     if lab.global_edges)
        assert label.entry_from(label.global_edges[0].parent_splitter)
        clone = dataclasses.replace(label, global_edges=())
        assert clone.entry_from(label.global_edges[0].parent_splitter) \
            is None

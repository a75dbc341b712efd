"""Differential harness: the forest kernel's columns vs the oracle.

:func:`build_forest_routing` (sweeps over all trees' pre-orders laid
end to end, emitting integer columns) must reproduce
:func:`~repro.reference.build_distributed_tree_routing_reference`
(per-splitter subtree materialization, per-splitter root-path walks)
*bit for bit*: every slot's table and label row against the oracle's
objects field by field, every word count — the arithmetic ones too —
the splitter set, the measured subtree depth and every ledger charge,
across random trees, chains, degenerate splitter sets, dense splitter
samples and the forests an actual cluster build produces.  Ports are
not compared: no column holds one.
"""

import random

import pytest

from repro.core import build_approx_clusters
from repro.core.tree_routing import (
    _forest_columns,
    build_forest_routing,
    sample_splitters,
)
from repro.reference import (
    build_distributed_tree_routing_reference,
    build_forest_routing_reference,
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


def one_tree_columns(tree, splitters):
    """The forest kernel on a one-tree forest with a given sample."""
    return _forest_columns({0: (tree.root, tree.parent_map())}, splitters)


def _name(x):
    return -1 if x is None else x


def _pooled(cols, row):
    """Pool row ``row`` as ``(entry, ((w, child), ...))``."""
    edges = range(cols.lp_start[row], cols.lp_start[row + 1])
    return cols.lp_entry[row], tuple((cols.lp_w[j], cols.lp_child[j])
                                     for j in edges)


def _tree_label(label):
    """A :class:`TreeLabel` as ``(entry, ((w, child), ...))``."""
    return label.entry, tuple((w, child)
                              for w, child, _port in label.path_edges)


def assert_columns_match(cols, tid, ref):
    """Tree ``tid`` of ``cols`` equals the oracle's objects, slot by
    slot and field by field."""
    rows = slice(cols.tree_start[tid], cols.tree_start[tid + 1])
    assert sorted(set(cols.t_splitter[rows])) == ref.splitters
    assert cols.tree_depth[tid] == ref.max_subtree_depth
    assert sorted(cols.slot_of[tid]) == sorted(ref.tables)
    for v, s in cols.slot_of[tid].items():
        table, label = ref.tables[v], ref.labels[v]
        assert cols.slot_vertex[s] == v and cols.slot_tree[s] == tid
        assert (cols.t_parent[s], cols.t_loc_entry[s], cols.t_loc_exit[s],
                cols.t_loc_parent[s], cols.t_loc_heavy[s],
                cols.t_splitter[s], cols.t_gentry[s], cols.t_gexit[s],
                cols.t_hsplit[s], cols.t_hportal[s]) == (
            _name(table.tree_parent), table.local.entry, table.local.exit,
            _name(table.local.parent), _name(table.local.heavy_child),
            table.splitter, table.global_entry, table.global_exit,
            _name(table.heavy_splitter), _name(table.heavy_portal)), \
            f"table of {v}"
        if table.heavy_portal_label is None:
            assert cols.t_hlab[s] == -1
        else:
            assert _pooled(cols, cols.t_hlab[s]) == \
                _tree_label(table.heavy_portal_label), f"portal of {v}"
        assert _pooled(cols, cols.l_local[s]) == _tree_label(label.local)
        assert cols.t_gentry[s] == label.global_entry
        assert [(cols.ge_psplit[j], cols.ge_csplit[j], cols.ge_portal[j],
                 _pooled(cols, cols.ge_plab[j]))
                for j in range(cols.l_ge_start[s], cols.l_ge_end[s])] == [
            (e.parent_splitter, e.child_splitter, e.portal,
             _tree_label(e.portal_label)) for e in label.global_edges], \
            f"label of {v}"
        assert cols.slot_table_words[s] == table.words
        assert cols.slot_label_words[s] == label.words


def assert_forests_match(fast, ref):
    assert fast.rounds == ref.rounds
    assert fast.splitter_count == ref.splitter_count
    assert fast.max_subtree_depth == ref.max_subtree_depth
    assert fast.max_overlap == ref.max_overlap
    assert [(p.name, p.rounds) for p in fast.ledger] == \
        [(p.name, p.rounds) for p in ref.ledger]
    cols = fast.columns
    assert list(cols.tree_center) == sorted(ref.schemes)
    for tid, center in enumerate(cols.tree_center):
        assert cols.tid_of[center] == tid
        assert_columns_match(cols, tid, ref.schemes[center])


class TestSingleTreeEquivalence:

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("prob", [0.0, 0.15, 0.5, 1.0])
    def test_random_trees(self, seed, prob):
        n = 4 + 3 * seed
        tree = random_tree(n, seed)
        splitters = sample_splitters(n + 5, prob, random.Random(seed + 1))
        ref = build_distributed_tree_routing_reference(tree, splitters)
        assert_columns_match(one_tree_columns(tree, splitters), 0, ref)

    def test_chain_variants(self):
        for splitters in (set(), {5}, set(range(0, 32, 4)),
                          set(range(32))):
            tree = chain_tree(32)
            ref = build_distributed_tree_routing_reference(tree, splitters)
            assert_columns_match(one_tree_columns(tree, splitters), 0, ref)

    def test_singleton_tree(self):
        tree = RootedTree(7, {7: None})
        ref = build_distributed_tree_routing_reference(tree, {7})
        assert_columns_match(one_tree_columns(tree, {7}), 0, ref)

    def test_splitters_outside_tree_ignored(self):
        tree = chain_tree(10)
        ref = build_distributed_tree_routing_reference(tree, {3, 7, 99})
        cols = one_tree_columns(tree, {3, 7, 99})
        assert_columns_match(cols, 0, ref)
        assert sorted(set(cols.t_splitter)) == [0, 3, 7]


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
        assert_forests_match(fast, ref)

    def test_cluster_forest_bit_identical(self, medium_random):
        """The forests the real pipeline builds, not just synthetic ones."""
        clusters = build_approx_clusters(medium_random, k=3, seed=2,
                                         detection_mode="exact")
        trees = {c: cl.tree() for c, cl in clusters.clusters.items()}
        ref = build_forest_routing_reference(
            trees, medium_random.num_vertices, random.Random(9),
            bfs_tree=clusters.bfs_tree)
        fast = build_forest_routing(
            trees, medium_random.num_vertices, random.Random(9),
            bfs_tree=clusters.bfs_tree)
        assert_forests_match(fast, ref)

    @pytest.mark.parametrize("gamma", [None, 4.0, 12.0, 40.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_parent_map_forest_matches_reference(self, seed, gamma):
        """What a construction passes — bare parent maps keyed by root
        — over sparse to saturated splitter samples (every vertex a
        splitter at the top): columns, arithmetic word columns and all
        four ledger charges against the oracle's objects."""
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

        ref = build_forest_routing_reference(
            {c: RootedTree(c, p) for c, p in trees.items()}, n,
            random.Random(seed), gamma=gamma)
        fast = build_forest_routing(trees, n, random.Random(seed),
                                    gamma=gamma)
        assert_forests_match(fast, ref)

    def test_empty_forest(self):
        ref = build_forest_routing_reference({}, 10, random.Random(1))
        fast = build_forest_routing({}, 10, random.Random(1))
        assert len(fast.columns.tree_center) == 0
        assert fast.rounds == ref.rounds
        assert fast.max_subtree_depth == ref.max_subtree_depth == 0
        assert fast.max_overlap == ref.max_overlap == 1

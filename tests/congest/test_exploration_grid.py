"""Seeded randomized differential grid: the CSR exploration kernels
against their dict-based oracles, every result field compared exactly.

``multi_source_exploration`` runs at four block sizes — one-row blocks
(``_DENSE_CELL_LIMIT = 0``), one and three rows per block (``n`` and
``3n``) and the default single block — over duplicate sources, INF and
finite per-vertex thresholds, and ``iterations`` in {0, 1, 2, 5, n},
each on graphs with small weights and with spread ones.
``nearest_source_exploration`` runs over the same sources, including
zero iterations.  Every graph carries one isolated vertex.  Small
weights make equal-distance ties (and thresholds met with equality)
common; spread weights make them rare, so a hop-bounded estimate
differs from the exact distance more often.
"""

import random

import pytest

from repro.congest import (
    JoinRule,
    bellman_ford,
    multi_source_exploration,
    nearest_source_exploration,
)
from repro.graphs import (
    INF,
    WeightedGraph,
    grid,
    random_connected,
    ring_of_cliques,
)
from repro.reference import (
    multi_source_exploration_reference,
    nearest_source_exploration_reference,
)

SEEDS = range(6)
MAX_WEIGHT = 6
WEIGHTS = {"ties": MAX_WEIGHT, "spread": 10_000}
CELL_LIMITS = {"one-row": lambda n: 0, "n": lambda n: n,
               "3n": lambda n: 3 * n, "default": None}


def _graph(seed, max_weight=MAX_WEIGHT):
    """A seeded graph from a rotating family, plus one isolated vertex
    (the last)."""
    rng = random.Random(seed)
    family = seed % 3
    if family == 0:
        base = random_connected(rng.randint(8, 28), 0.2,
                                max_weight=max_weight, seed=seed)
    elif family == 1:
        base = grid(rng.randint(2, 5), rng.randint(3, 6),
                    max_weight=max_weight, seed=seed)
    else:
        base = ring_of_cliques(rng.randint(2, 4), rng.randint(3, 5),
                               max_weight=max_weight, seed=seed)
    return WeightedGraph.from_edges(base.num_vertices + 1, base.edges())


def _sources(rng, n):
    """Random sources with duplicates, the isolated vertex among them."""
    picks = [rng.randrange(n - 1) for _ in range(rng.randint(1, 6))]
    return picks + picks[:2] + [n - 1]


def _iteration_counts(n):
    return (0, 1, 2, 5, n)


def _assert_same_exploration(fast, ref):
    assert fast.dist == ref.dist
    assert fast.parent == ref.parent
    assert fast.iterations == ref.iterations
    assert fast.rounds == ref.rounds
    assert fast.max_estimates_per_node == ref.max_estimates_per_node


def _assert_same_nearest(fast, ref):
    assert fast.dist == ref.dist
    assert [type(d) for d in fast.dist] == [type(d) for d in ref.dist]
    assert fast.source_of == ref.source_of
    assert fast.parent == ref.parent
    assert fast.iterations == ref.iterations
    assert fast.rounds == ref.rounds


@pytest.mark.parametrize("limit", sorted(CELL_LIMITS))
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("budgets", ["inf", "finite"])
@pytest.mark.parametrize("seed", SEEDS)
def test_multi_source_matches_oracle(seed, budgets, weights, limit,
                                     monkeypatch):
    max_weight = WEIGHTS[weights]
    graph = _graph(seed, max_weight)
    n = graph.num_vertices
    if CELL_LIMITS[limit] is not None:
        monkeypatch.setattr(bellman_ford, "_DENSE_CELL_LIMIT",
                            CELL_LIMITS[limit](n))
    rng = random.Random(1000 + seed)
    if budgets == "inf":
        threshold = [INF] * n
    else:
        threshold = [float(rng.randint(0, 4 * max_weight))
                     if rng.random() < 0.8 else INF for _ in range(n)]
    rule = JoinRule(threshold=threshold)
    sources = _sources(rng, n)
    for iterations in _iteration_counts(n):
        fast = multi_source_exploration(graph, sources, iterations, rule)
        ref = multi_source_exploration_reference(
            graph, sources, iterations, rule.accepts)
        _assert_same_exploration(fast, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_nearest_source_matches_oracle(seed):
    graph = _graph(seed)
    n = graph.num_vertices
    sources = _sources(random.Random(2000 + seed), n)
    for iterations in _iteration_counts(n):
        fast = nearest_source_exploration(graph, sources, iterations)
        ref = nearest_source_exploration_reference(
            graph, sources, iterations)
        _assert_same_nearest(fast, ref)


@pytest.mark.parametrize("case", ["none", "isolated", "isolated-twice",
                                  "all-rejected"])
def test_degenerate_sources(case):
    """No sources, only the isolated vertex, or every join rejected: an
    iteration that relays to no one is still executed and charged, and
    a source's own estimate counts toward ``max_estimates_per_node``
    only once it is a candidate target."""
    graph = _graph(0)
    n = graph.num_vertices
    sources = {"none": [], "isolated": [n - 1],
               "isolated-twice": [n - 1, n - 1],
               "all-rejected": [0, n - 1]}[case]
    threshold = 0.0 if case == "all-rejected" else INF
    rule = JoinRule(threshold=[threshold] * n)
    for iterations in (0, 1, 3):
        fast = multi_source_exploration(graph, sources, iterations, rule)
        _assert_same_exploration(
            fast, multi_source_exploration_reference(
                graph, sources, iterations, rule.accepts))
        _assert_same_nearest(
            nearest_source_exploration(graph, sources, iterations),
            nearest_source_exploration_reference(graph, sources,
                                                 iterations))
    if case == "all-rejected":
        assert fast.max_estimates_per_node == 0

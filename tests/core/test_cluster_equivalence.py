"""Differential grid for the vectorized cluster growing.

The cluster builders hand the exploration layer declarative
``JoinRule`` plans that the scatter-min kernel evaluates as fused
masked compares.  This grid pins that kernel bit-identical to:

* the **reference oracle** — ``multi_source_exploration_reference`` /
  ``detect_sources_reference`` fed the rule's scalar ``accepts`` as an
  opaque callback, i.e. the original dict-based loops;
* **itself in one-row blocks** — what the same build runs past
  ``_DENSE_CELL_LIMIT``, where the source rows advance in blocks.

"Bit-identical" covers pivots, the cluster columns and their dict
views (members, values, parents), Claim 7's parent check, the full
ledger round breakdown (wall-clock ``seconds``
are explicitly *not* compared) and beta.  The grid runs the workload
zoo, checks how the kernel blocked the rows (by spying on its block
helper) and the paper invariants (7)/(9)/(10)/(17).
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.congest import bellman_ford as bf
from repro.core import approx_clusters as ac
from repro.core import (
    SchemeParams,
    build_approx_clusters,
    build_forest_routing,
    compute_exact_clusters,
    sample_levels,
)
from repro.graphs import (
    INF,
    all_pairs_distances,
    grid,
    path,
    random_connected,
    ring_of_cliques,
    star_of_paths,
    weighted_small_world,
)
from repro.reference import (
    detect_sources_reference,
    multi_source_exploration_reference,
)
from repro.trees import tree_distance


# ----------------------------------------------------------------------
# Workload zoo: small enough for the oracle, varied enough to exercise
# every scale band (small / middle / large) across k in {2, 3, 4}.
# ----------------------------------------------------------------------
WORKLOADS = {
    "random-16": lambda: random_connected(16, 0.25, seed=811),
    "random-24": lambda: random_connected(24, 0.18, seed=813),
    "random-32": lambda: random_connected(32, 0.12, seed=817),
    "random-36": lambda: random_connected(36, 0.10, seed=819),
    "dense-20": lambda: random_connected(20, 0.45, seed=823),
    "dense-28": lambda: random_connected(28, 0.35, seed=827),
    "grid-5x5": lambda: grid(5, 5, seed=829),
    "grid-4x8": lambda: grid(4, 8, seed=839),
    "path-30": lambda: path(30, seed=853),
    "cliques-4x6": lambda: ring_of_cliques(4, 6, seed=857),
    "star-4x7": lambda: star_of_paths(4, 7, seed=859),
    "smallworld-30": lambda: weighted_small_world(30, seed=863),
}

KS = [2, 3, 4]

GRID = [(name, k) for name in sorted(WORKLOADS) for k in KS]


# ----------------------------------------------------------------------
# Reference shims
# ----------------------------------------------------------------------
def _reference_exploration(graph, sources, iterations, rule):
    return multi_source_exploration_reference(
        graph, sources, iterations, rule.accepts)


def _reference_detection(graph, sources, hop_bound, eps, bfs_tree=None,
                         join_rule=None):
    return detect_sources_reference(graph, sources, hop_bound, eps,
                                    bfs_tree=bfs_tree, join_rule=join_rule)


def build_system(graph, k, seed, monkeypatch=None, shims=()):
    """One cluster build; ``shims`` optionally replaces the exploration
    and/or detection the builders call (within a monkeypatch context)."""
    if shims:
        assert monkeypatch is not None
        for name, fn in shims:
            monkeypatch.setattr(ac, name, fn)
    try:
        return build_approx_clusters(graph, k, seed=seed)
    finally:
        if shims:
            monkeypatch.undo()


REFERENCE_SHIMS = (("multi_source_exploration", _reference_exploration),
                   ("detect_sources", _reference_detection))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Spies on the kernel's block helper, which explorations and
    detections share: the number of source rows in every block it
    advances."""
    rows = []
    advance = bf._explore_block

    def spy(view, weights, block, *rest):
        rows.append(len(block))
        return advance(view, weights, block, *rest)

    monkeypatch.setattr(bf, "_explore_block", spy)
    return rows


def assert_systems_equal(a, b):
    """Field-by-field bit-identity (everything except wall seconds)."""
    assert len(a.pivots) == len(b.pivots)
    for pa, pb in zip(a.pivots, b.pivots):
        assert pa.level == pb.level
        assert pa.exact == pb.exact
        assert pa.dist_hat == pb.dist_hat
        assert pa.pivot == pb.pivot
    for name in ("center", "level", "c_start", "member", "value",
                 "parent"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert set(a.clusters) == set(b.clusters)
    for u in a.clusters:
        ca, cb = a.clusters[u], b.clusters[u]
        assert ca.center == cb.center and ca.level == cb.level
        assert ca.value == cb.value
        assert ca.parent == cb.parent
    a.check_parents()
    b.check_parents()
    assert a.ledger.breakdown() == b.ledger.breakdown()
    assert a.ledger.total_rounds == b.ledger.total_rounds
    assert a.beta == b.beta


# ----------------------------------------------------------------------
# The main differential grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload,k", GRID,
                         ids=[f"{w}-k{k}" for w, k in GRID])
def test_vectorized_matches_reference(workload, k, monkeypatch):
    graph = WORKLOADS[workload]()
    fast = build_system(graph, k, seed=101)
    ref = build_system(graph, k, seed=101, monkeypatch=monkeypatch,
                       shims=REFERENCE_SHIMS)
    assert_systems_equal(fast, ref)


# ----------------------------------------------------------------------
# Block axis: all source rows in one block and one row per block build
# the same system
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload,k", GRID,
                         ids=[f"{w}-k{k}" for w, k in GRID])
def test_one_block_matches_row_blocks(workload, k, monkeypatch,
                                      kernel_calls):
    """Same build, every exploration in one block vs one-row blocks
    (the cell limit at 0)."""
    graph = WORKLOADS[workload]()
    one_block = build_system(graph, k, seed=107)
    assert max(kernel_calls) > 1
    del kernel_calls[:]
    monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", 0)
    row_blocks = build_system(graph, k, seed=107)
    assert kernel_calls and set(kernel_calls) == {1}
    assert_systems_equal(one_block, row_blocks)


# ----------------------------------------------------------------------
# Under the cell limit every exploration, detection and Phase 1 is a
# single block
# ----------------------------------------------------------------------
def test_vectorized_path_engaged(kernel_calls, count_calls):
    calls = count_calls(ac, "multi_source_exploration")
    detections = count_calls(ac, "detect_sources")
    phase1 = count_calls(ac, "virtual_exploration")
    graph = WORKLOADS["random-32"]()
    build_approx_clusters(graph, 3, seed=113)
    assert calls and phase1
    assert len(kernel_calls) == len(calls) + len(detections) + len(phase1)


def test_join_rule_scalar_semantics():
    rule = bf.JoinRule(threshold=[2.0, 5.0])
    assert rule.accepts(0, 1, 1.5) and not rule.accepts(0, 1, 2.0)
    assert rule.accepts(1, 1, 4.9)


def test_join_rule_is_one_threshold():
    """Every rule the paper applies is strict, so a rule is its
    threshold array and nothing else: there is no non-strict option."""
    assert [f.name for f in dataclasses.fields(bf.JoinRule)] == \
        ["threshold"]
    with pytest.raises(TypeError):
        bf.JoinRule(threshold=[2.0], strict=False)
    rule = bf.JoinRule(threshold=[INF])
    assert rule.accepts(0, 0, 1e300) and not rule.accepts(0, 0, INF)


# ----------------------------------------------------------------------
# Past the memory gate (``_DENSE_CELL_LIMIT``): exploration and
# detection, which share the kernel and its gate, in one-row blocks, on
# one slice of the grid
# ----------------------------------------------------------------------
GATED_SLICE = ["random-16", "random-24", "grid-5x5", "cliques-4x6"]


@pytest.fixture
def past_both_gates(monkeypatch):
    monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", 0)


class TestPastMemoryGates:

    @pytest.mark.parametrize("workload", GATED_SLICE)
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_reference(self, workload, k, past_both_gates,
                               monkeypatch):
        graph = WORKLOADS[workload]()
        gated = build_system(graph, k, seed=127)
        ref = build_system(graph, k, seed=127, monkeypatch=monkeypatch,
                           shims=REFERENCE_SHIMS)
        assert_systems_equal(gated, ref)

    def test_gated_kernels_serve(self, past_both_gates, kernel_calls,
                                 count_calls):
        detections = count_calls(ac, "detect_sources")
        graph = WORKLOADS["random-16"]()
        build_approx_clusters(graph, 2, seed=131)
        # one-row blocks: every exploration and every detection
        # advances once per source
        assert detections
        assert kernel_calls and set(kernel_calls) == {1}


@pytest.mark.parametrize("workload", GATED_SLICE)
@pytest.mark.parametrize("k", [2, 3])
def test_gated_build_matches_ungated_build(workload, k, monkeypatch):
    """The whole build past the gate (row-block exploration *and*
    row-block detection) is the build under it."""
    graph = WORKLOADS[workload]()
    fast = build_system(graph, k, seed=137)
    monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", 0)
    gated = build_system(graph, k, seed=137)
    assert_systems_equal(fast, gated)


# ----------------------------------------------------------------------
# Invariant spot checks on the vectorized output (the full invariant
# battery lives in test_approx_clusters.py; this pins the rule-driven
# build against the exact oracle directly within this grid)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["random-32", "cliques-4x6"])
def test_invariants_on_vectorized_build(workload):
    graph = WORKLOADS[workload]()
    k = 3
    n = graph.num_vertices
    params = SchemeParams(n=n, k=k)
    hierarchy = sample_levels(n, params, random.Random(139))
    approx = build_approx_clusters(graph, k, seed=139, hierarchy=hierarchy)
    exact = compute_exact_clusters(graph, hierarchy)
    eps = approx.params.eps
    ap = all_pairs_distances(graph)
    # (7) pivots
    for i in range(k):
        for v in graph.vertices():
            exact_d = exact.pivots[i].dist[v]
            if exact_d == INF:
                continue
            d_hat = approx.pivot_distance(v, i)
            assert exact_d <= d_hat + 1e-9
            assert d_hat <= (1 + eps) * exact_d + 1e-9
    for center, cluster in approx.clusters.items():
        i = cluster.level
        members = set(cluster.members())
        # (9) sandwich
        exact_members = set(exact.clusters[center].members())
        next_dist = (exact.pivots[i + 1].dist if i + 1 < k
                     else [INF] * n)
        assert members <= exact_members
        c6 = {v for v in graph.vertices()
              if ap[center][v] < next_dist[v] / (1 + 6 * eps)}
        assert c6 <= members
        # (17) values and (10) tree stretch
        tree = cluster.tree()
        for v, b in cluster.value.items():
            d = ap[center][v]
            assert d <= b + 1e-9
            assert b <= (1 + eps) ** 4 * d + 1e-9
            d_tree = tree_distance(tree, graph.weight, center, v)
            assert d_tree <= (1 + eps) ** 4 * d + 1e-9
    approx.check_parents()


# ----------------------------------------------------------------------
# The columns, their dict views and the exploration oracles agree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload,k", GRID,
                         ids=[f"{w}-k{k}" for w, k in GRID])
def test_columns_views_and_oracles_agree(workload, k, monkeypatch):
    """On the zoo: the overlap is one ``bincount`` over the columns and
    equals the views' counts and the forest's measured overlap; each
    cluster's views are its slice of the columns; and every small and
    middle level's clusters are the exploration oracles' dicts for the
    same call."""
    graph = WORKLOADS[workload]()
    n = graph.num_vertices
    explorations, detections = [], []
    explore, detect = ac.multi_source_exploration, ac.detect_sources

    def exploration_spy(*args):
        explorations.append(args)
        return explore(*args)

    def detection_spy(*args, **kwargs):
        detections.append((args, kwargs))
        return detect(*args, **kwargs)

    monkeypatch.setattr(ac, "multi_source_exploration", exploration_spy)
    monkeypatch.setattr(ac, "detect_sources", detection_spy)
    system = build_system(graph, k, seed=163)
    monkeypatch.undo()

    bincounts = []
    bincount = np.bincount

    def bincount_spy(*args, **kwargs):
        bincounts.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount_spy)
    counts = system.membership_counts()
    monkeypatch.undo()
    assert len(bincounts) == 1
    views = system.clusters
    assert list(views) == system.center.tolist()
    view_counts = [0] * n
    for c, cluster in enumerate(views.values()):
        cells = slice(system.c_start[c], system.c_start[c + 1])
        assert cluster.level == system.level[c]
        assert list(cluster.value) == cluster.members() \
            == system.member[cells].tolist()
        assert list(cluster.value.values()) == system.value[cells].tolist()
        assert [-1 if p is None else p for p in cluster.parent.values()] \
            == system.parent[cells].tolist()
        for v in cluster.value:
            view_counts[v] += 1
    assert counts.tolist() == view_counts
    assert system.max_overlap() == max(view_counts)
    forest = forest_of(system, n)
    assert forest.max_overlap == system.max_overlap()

    assert explorations
    for graph_arg, centers, budget, rule in explorations:
        oracle = multi_source_exploration_reference(
            graph_arg, centers, budget, rule.accepts)
        for u in centers:
            assert views[u].value == {
                v: row[u] for v, row in enumerate(oracle.dist) if u in row}
            assert views[u].parent == {
                v: row[u] for v, row in enumerate(oracle.parent)
                if u in row}
    for args, kwargs in detections:
        if kwargs.get("join_rule") is None:
            continue                  # the large levels' preprocessing
        oracle = detect_sources_reference(*args, **kwargs)
        for u in oracle.sources:
            assert views[u].value == {
                v: row[u] for v, row in enumerate(oracle.estimate)
                if u in row}
            assert views[u].parent == {
                v: row[u] for v, row in enumerate(oracle.parent)
                if u in row}


def forest_of(system, n):
    """The forest kernel straight on the system's columns."""
    return build_forest_routing(system.center, system.c_start,
                                system.member, system.parent, n,
                                random.Random(1))

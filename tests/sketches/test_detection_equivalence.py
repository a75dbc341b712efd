"""Differential harness: batched source detection against its oracle.

Every graph × parameter case runs both :func:`detect_sources`
(the batched ``|V'| × n`` matrix path over the exploration kernel,
``bellman_ford._explore_block``) and :func:`detect_sources_reference`
(the original per-source, per-scale loops), without and with a join
rule, and the results must be *bit-identical*: estimates, Remark-1
parents, the sorted source echo and the charged rounds.

Both sides apply the join rule while propagating: a cell the rule
rejects is never stored and never relayed.  The grids' rule is not
1-Lipschitz, so there pruning changes the result against filtering the
finished unfiltered matrix (:func:`post_filter`).  The build's own
middle-level rule is an exact pivot distance, and there the two agree
bit for bit (:class:`TestMiddleLevelJoin`).
"""

import numpy as np
import pytest

from repro.congest import bellman_ford as bf
from repro.congest.bellman_ford import JoinRule
from repro.core import approx_clusters as ac
from repro.graphs import (
    INF,
    WeightedGraph,
    grid,
    path,
    random_connected,
    ring_of_cliques,
)
from repro.pipeline import WORKLOADS
from repro.reference import detect_sources_reference
from repro.reference.detection import detection_dicts_reference
from repro.sketches import detect_sources


def _graph_cases():
    """~20 seeded graphs spanning the workload families, plus
    high-diameter ladders and unit weights, where many rows tie."""
    cases = []
    for seed in range(10):
        n = 16 + 3 * seed
        cases.append((f"random-{seed}",
                      random_connected(n, 4.5 / n, seed=seed)))
    for seed in (100, 101):
        cases.append((f"dense-{seed}",
                      random_connected(22, 0.3, max_weight=40, seed=seed)))
    cases.append(("grid", grid(5, 5, seed=7)))
    cases.append(("path", path(18, seed=9)))
    cases.append(("cliques", ring_of_cliques(4, 5, seed=10)))
    cases.append(("ladder", grid(2, 12, seed=11)))
    cases.append(("unit-grid", grid(5, 5, max_weight=1, seed=12)))
    cases.append(("unit-ladder", grid(2, 12, max_weight=1, seed=13)))
    cases.append(("unit-random",
                  random_connected(24, 4.5 / 24, max_weight=1, seed=14)))
    return cases


GRAPHS = _graph_cases()
GRAPH_IDS = [name for name, _ in GRAPHS]

#: A coarse eps, and the construction's own at k = 2 (1/(48 k^4)),
#: whose rounding unit eps / (2B) puts every rounded weight within
#: about 1e-4 of the integer one.
EPS = [0.25, 1 / 768]


def _assert_identical(fast, ref):
    assert fast.sources == ref.sources
    assert np.array_equal(fast.dist, ref.dist)
    assert np.array_equal(fast.par, ref.par)
    assert fast.estimate == ref.estimate
    assert fast.parent == ref.parent
    assert fast.rounds == ref.rounds
    assert fast.hop_bound == ref.hop_bound


def _join_rule(graph):
    """A rule that keeps every cell at a third of the vertices and
    cuts the others at 0 to 3 maximum edge weights."""
    scale = float(graph.max_weight())
    return JoinRule(threshold=[INF if v % 3 == 0 else scale * (v % 4)
                               for v in range(graph.num_vertices)])


def post_filter(result, rule):
    """``result``'s matrices with every cell ``rule`` rejects set to
    INF / −1, except each row's seeded cell: filtering the finished
    matrix instead of the propagation."""
    dist = result.dist.copy()
    par = result.par.copy()
    rejected = ~(dist < np.asarray(rule.threshold, dtype=np.float64))
    rejected[np.arange(len(result.sources)), result.sources] = False
    dist[rejected] = INF
    par[rejected] = -1
    return dist, par


def _assert_pruned(pruned, unfiltered, rule):
    """A pruned detection keeps a subset of the post-filtered cells, at
    values no smaller than the unfiltered ones; returns whether pruning
    changed the result."""
    dist, par = post_filter(unfiltered, rule)
    kept = pruned.dist < INF
    assert not (kept & ~(dist < INF)).any()
    assert (pruned.dist >= unfiltered.dist).all()
    return not (np.array_equal(pruned.dist, dist)
                and np.array_equal(pruned.par, par))


def _run_case(graph, sources, hop_bound, eps):
    """The unfiltered case, then the same case under :func:`_join_rule`;
    returns the unfiltered oracle result and whether the rule's pruning
    changed the result against :func:`post_filter`."""
    results = []
    rule = _join_rule(graph)
    for join_rule in (None, rule):
        ref = detect_sources_reference(graph, sources, hop_bound, eps,
                                       join_rule=join_rule)
        fast = detect_sources(graph, sources, hop_bound, eps,
                              join_rule=join_rule)
        _assert_identical(fast, ref)
        results.append(ref)
    return results[0], _assert_pruned(results[1], results[0], rule)


class TestDifferentialEquivalence:

    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_graphs(self, name, graph, eps):
        """The rule is not 1-Lipschitz: a rejected cell would have
        relayed estimates it accepts, so on every graph pruning the
        propagation keeps fewer cells than filtering the finished
        matrix."""
        n = graph.num_vertices
        _, changed = _run_case(graph, [0, n // 2, n - 1], 6, eps)
        assert changed, "pruning changes no cell"

    @pytest.mark.parametrize("name,graph", GRAPHS[:6], ids=GRAPH_IDS[:6])
    def test_parameter_grid(self, name, graph):
        """Hop bounds (including 0), eps extremes, many sources."""
        n = graph.num_vertices
        _run_case(graph, [0], 1, 0.5)
        _run_case(graph, [2], 0, 0.3)
        _run_case(graph, list(range(0, n, 4)), n, 0.1)
        _run_case(graph, list(range(n)), 3, 0.8)

    def test_duplicate_sources_collapse(self):
        graph = random_connected(20, 0.2, seed=3)
        ref, _ = _run_case(graph, [4, 4, 9, 9, 9], 5, 0.3)
        assert ref.sources == [4, 9]

    def test_matrix_limit_fallback_identical(self, monkeypatch):
        """Over the memory gate the matrix advances in blocks of source
        rows.  Blocks of one row, of two (the last one short) and of
        all rows but one must each match the oracle, with and without
        a join rule."""
        graph = random_connected(24, 0.2, seed=21)
        sources = [0, 4, 9, 11, 16, 20, 23]
        rule = JoinRule(threshold=[INF if v % 3 == 0 else 20.0 * (v % 4)
                                   for v in range(24)])
        blocks = []
        advance = bf._explore_block

        def counted(view, weights, block, *rest):
            blocks.append(len(block))
            return advance(view, weights, block, *rest)

        monkeypatch.setattr(bf, "_explore_block", counted)
        n = graph.num_vertices
        for rows in (1, 2, len(sources) - 1):
            monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", rows * n)
            whole, short = divmod(len(sources), rows)
            cells = []
            for join_rule in (None, rule):
                del blocks[:]
                ref = detect_sources_reference(graph, sources, 7, 0.3,
                                               join_rule=join_rule)
                fast = detect_sources(graph, sources, 7, 0.3,
                                      join_rule=join_rule)
                _assert_identical(fast, ref)
                assert blocks == [rows] * whole + [short][:short]
                cells.append(sum(map(len, fast.estimate)))
            assert cells[1] < cells[0], "the rule drops cells"

    def test_value_types_match_reference(self):
        """Rounded values are floats, except a source's own int 0.

        The oracle packs its dicts into the result's matrices, so its
        own types are read off :func:`detection_dicts_reference`, and
        the production dict views must rebuild those dicts item for
        item, type for type: `==` cannot distinguish ``5`` from
        ``5.0``, so the differential checks alone would miss a type
        drift on either side.
        """
        graph = random_connected(18, 0.25, seed=12)
        rule = JoinRule(threshold=[9.0 + v for v in range(18)])
        for join_rule in (None, rule):
            _, estimate, parent = detection_dicts_reference(
                graph, [0, 9], 6, 0.3, join_rule=join_rule)
            fast = detect_sources(graph, [0, 9], 6, 0.3,
                                  join_rule=join_rule)
            for u, row in enumerate(estimate):
                items = list(fast.estimate[u].items())
                assert items == list(row.items())
                assert [type(x) for _, x in items] == \
                    [type(x) for x in row.values()]
                assert list(fast.parent[u].items()) == \
                    list(parent[u].items())
                for s, value in row.items():
                    # the source's own cell is never relaxed: the
                    # initialization's int 0
                    want = int if u == s else float
                    assert type(value) is want
                    assert type(fast.get(u, s)) is want


class TestPastMatrixGate:
    """Past ``bellman_ford._DENSE_CELL_LIMIT`` the matrix advances in
    blocks of ``max(1, limit // n)`` source rows, the exploration's
    rule; each block against the oracle.
    """

    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("name,graph", GRAPHS[::3],
                             ids=GRAPH_IDS[::3])
    def test_row_blocks_match_oracle(self, name, graph, eps, monkeypatch):
        n = graph.num_vertices
        monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", 2 * n)
        _run_case(graph, [0, n // 2, n - 1], 6, eps)
        _run_case(graph, list(range(0, n, 5)), n, eps)

    def test_block_rows_derived_from_limit(self, monkeypatch):
        graph = path(6, seed=1)
        n = graph.num_vertices
        blocks = []
        advance = bf._explore_block

        def counted(view, weights, block, *rest):
            blocks.append(len(block))
            return advance(view, weights, block, *rest)

        monkeypatch.setattr(bf, "_explore_block", counted)
        sources = [0, 1, 2, 3, 4]
        # (limit, blocks): below one row still advances one row at a
        # time; one cell short of three rows gives blocks of two; the
        # whole matrix within the limit is one advance
        for limit, want in ((1, [1] * 5), (n - 1, [1] * 5),
                            (3 * n - 1, [2, 2, 1]),
                            (5 * n - 1, [4, 1]), (5 * n, [5])):
            monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", limit)
            del blocks[:]
            _run_case(graph, sources, 4, 0.3)
            # one detection without the join rule, one under it
            assert blocks == want * 2, limit


def _unit_weights(graph):
    """``graph``'s edges, every one at weight 1."""
    unit = WeightedGraph(graph.num_vertices)
    for u, v, _w in graph.edges():
        unit.add_edge(u, v, 1)
    return unit


class TestMiddleLevelJoin:
    """The odd-k middle level's threshold is the exact distance to
    ``A_{(k+1)/2}``: 1-Lipschitz along edges, and rounded weights are
    no lighter than true ones, so a rejected cell can only offer
    rejected candidates.  Pruning the propagation then gives the bytes
    of the unfiltered detection followed by one mask."""

    @pytest.mark.parametrize("family", sorted(WORKLOADS))
    def test_pruned_equals_post_filtered(self, family, monkeypatch):
        calls, thresholds = [], []
        detect = ac.detect_sources
        advance = bf._explore_block

        def spy(*args, **kwargs):
            result = detect(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        def advanced(view, weights, rows, iterations, thr, *rest):
            thresholds.append(thr)
            return advance(view, weights, rows, iterations, thr, *rest)

        monkeypatch.setattr(ac, "detect_sources", spy)
        monkeypatch.setattr(bf, "_explore_block", advanced)
        for k in (3, 5, 7):
            for n, unit in ((64, False), (256, False), (64, True),
                            (256, True)):
                graph = WORKLOADS[family](n, 1)
                if unit:
                    graph = _unit_weights(graph)
                del calls[:], thresholds[:]
                ac.build_approx_clusters(graph, k, seed=1)
                middle = [call for call in calls
                          if call[1].get("join_rule") is not None]
                case = (family, k, n, unit)
                assert len(middle) == 1, case
                args, kwargs, result = middle[0]
                rule = kwargs["join_rule"]
                # the kernel gets the rule itself, not an all-INF plan
                want = np.asarray(rule.threshold, dtype=np.float64)
                assert np.isfinite(want).any(), case
                assert any(np.array_equal(thr, want)
                           for thr in thresholds), case
                unfiltered = detect(*args, **dict(kwargs, join_rule=None))
                dist, par = post_filter(unfiltered, rule)
                assert np.array_equal(result.dist, dist), case
                assert np.array_equal(result.par, par), case
                assert result.rounds == unfiltered.rounds, case

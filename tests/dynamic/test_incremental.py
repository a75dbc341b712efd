"""IncrementalBuilder differential grid: both strategies, a cache hit
and a scratch build, must be bit-identical to a from-scratch
``SchemePipeline`` build on an order-exact copy of the mutated graph —
one mutation at a time, and as a flap series that walks one builder
through both."""

import random

import pytest

from repro.dynamic import (
    STRATEGIES,
    IncrementalBuilder,
    TopologyFeed,
    graph_fingerprint,
)
from repro.exceptions import DisconnectedGraphError
from repro.pipeline import SchemePipeline, make_workload


def artifact_bytes(artifact):
    bufs = artifact.export_buffers()
    return (repr(bufs.meta), repr(bufs.manifest), bufs.payload)


def scratch_build(graph, k, seed):
    """Ground truth: a cold pipeline run on a copy of the graph."""
    copy = graph.copy()
    assert graph_fingerprint(copy) == graph_fingerprint(graph)
    pipe = SchemePipeline().graph(copy).params(k).seed(seed)
    flat = pipe.compile("flat")
    dense = pipe.compile("dense")
    return flat, dense, pipe.build().rounds


def assert_matches_scratch(report, graph, k, seed):
    flat, dense, rounds = scratch_build(graph, k, seed)
    assert artifact_bytes(report.compiled) == artifact_bytes(flat)
    assert artifact_bytes(report.dense) == artifact_bytes(dense)
    assert report.rounds == rounds


def nth_edge(graph, i):
    edges = sorted(graph.edges())
    return edges[i % len(edges)]


# -- mutation scripts ---------------------------------------------------
# Each receives the feed and returns the rebuild's expected fallback
# reason: every one of them misses the cache.


def jitter_one(feed):
    u, v, w = nth_edge(feed.graph, 5)
    feed.update_edge_weight(u, v, w + 3)
    return "weights-changed"


def jitter_batch(count):
    def mutate(feed):
        rng = random.Random(count)
        edges = sorted(feed.graph.edges())
        rng.shuffle(edges)
        for i, (u, v, w) in enumerate(edges[:count]):
            delta = (i % 5) - 2 or 1  # mixed increases and decreases
            feed.update_edge_weight(u, v, max(1, w + delta))
        return "weights-changed"
    return mutate


def decrease_one(feed):
    for u, v, w in sorted(feed.graph.edges()):
        if w > 1:
            feed.update_edge_weight(u, v, w - 1)
            return "weights-changed"
    u, v, w = nth_edge(feed.graph, 0)  # all-unit graph: bump one up
    feed.update_edge_weight(u, v, w + 1)
    return "weights-changed"


def remove_edge(feed):
    graph = feed.graph
    for u, v, _w in sorted(graph.edges()):
        graph.remove_edge(u, v)
        if graph.is_connected():
            graph.add_edge(u, v, _w)
            feed.fail_edge(u, v)
            return "topology-changed"
        graph.add_edge(u, v, _w)
    pytest.skip("no removable edge keeps the graph connected")


def remove_readd(feed):
    graph = feed.graph
    for u, v, w in sorted(graph.edges()):
        graph.remove_edge(u, v)
        ok = graph.is_connected()
        graph.add_edge(u, v, w)
        if ok:
            feed.fail_edge(u, v)
            feed.restore_edge(u, v, w)
            return "topology-changed"
    pytest.skip("no removable edge keeps the graph connected")


def add_edge(feed):
    graph = feed.graph
    for u in graph.vertices():
        for v in graph.vertices():
            if u < v and not graph.has_edge(u, v):
                feed.restore_edge(u, v, 4)
                return "topology-changed"
    pytest.skip("graph is complete")


def bump_max_weight(feed):
    u, v, w = max(sorted(feed.graph.edges()), key=lambda e: e[2])
    feed.update_edge_weight(u, v, w * 2)
    return "weights-changed"


SCENARIOS = [
    ("grid-jitter-1", "grid", 49, 2, 7, jitter_one),
    ("grid-remove-edge", "grid", 49, 2, 7, remove_edge),
    ("random-jitter-1", "random", 60, 2, 3, jitter_one),
    ("random-jitter-8", "random", 60, 2, 3, jitter_batch(8)),
    ("random-jitter-64", "random", 60, 2, 3, jitter_batch(64)),
    ("random-decrease", "random", 60, 3, 9, decrease_one),
    ("random-remove-readd", "random", 60, 2, 3, remove_readd),
    ("random-add-edge", "random", 60, 2, 3, add_edge),
    ("smallworld-jitter-8", "smallworld", 48, 2, 5, jitter_batch(8)),
    ("smallworld-max-weight", "smallworld", 48, 2, 5, bump_max_weight),
    ("cliques-jitter-1", "cliques", 40, 2, 1, jitter_one),
    ("star-add-edge", "star", 40, 2, 2, add_edge),
]


@pytest.mark.parametrize(
    "workload,n,k,seed,mutate",
    [s[1:] for s in SCENARIOS],
    ids=[s[0] for s in SCENARIOS])
def test_rebuild_bit_identical_to_scratch(workload, n, k, seed, mutate):
    graph = make_workload(workload, n, seed=seed).graph
    feed = TopologyFeed(graph)
    builder = IncrementalBuilder(feed, k=k, seed=seed)
    initial = builder.build()
    assert initial.strategy == "initial"
    assert_matches_scratch(initial, graph, k, seed)

    reason = mutate(feed)
    report = builder.rebuild()
    assert (report.strategy, report.fallback_reason) == ("full", reason), \
        report.summary()
    assert_matches_scratch(report, graph, k, seed)

    # the feed baseline advanced: an immediate rebuild is a cache hit
    again = builder.rebuild()
    assert again.strategy == "reuse" and not again.cache_hit
    assert artifact_bytes(again.compiled) == \
        artifact_bytes(report.compiled)


# -- flap series ---------------------------------------------------------
#: One workload per parity of k (odd k adds the middle-level detection
#: call to the large-scale one).  n = 200 is the harness's scale; the
#: series there is its spike/restore pattern.  Each names an edge the
#: construction's support recorder, since removed, certified as never
#: winning a relaxation: an increase on it used to skip the
#: construction, and is now a scratch build like any other cache miss.
FLAP_WORKLOADS = [("random", 200, 2, 5, (8, 52)),
                  ("geometric", 80, 3, 2, (0, 64))]
FLAP_DELTA = 25
SPARE_DELTA = 1
FLAP_CYCLES = 2


@pytest.mark.parametrize("workload,n,k,seed,spare", FLAP_WORKLOADS,
                         ids=[f"{w}-{n}-k{k}"
                              for w, n, k, _, _ in FLAP_WORKLOADS])
def test_flap_series_over_every_strategy(workload, n, k, seed, spare):
    graph = make_workload(workload, n, seed=seed).graph
    feed = TopologyFeed(graph)
    # cache_size=1: the restore's fingerprint matches the evicted
    # baseline generation, so both flap halves must actually rebuild
    builder = IncrementalBuilder(feed, k=k, seed=seed, cache_size=1)
    builder.build()
    # neither flapped edge is a heaviest one: the series is weight
    # churn, not a change of the graph's weight range
    heaviest = graph.max_weight()
    cu, cv = spare
    cw = graph.weight(cu, cv)
    su, sv, sw = next((u, v, w) for u, v, w in sorted(graph.edges())
                      if w + FLAP_DELTA <= heaviest and (u, v) != spare)

    def step(u, v, w):
        feed.update_edge_weight(u, v, w)
        report = builder.rebuild()
        assert (report.strategy, report.fallback_reason) == \
            ("full", "weights-changed"), report.summary()
        assert_matches_scratch(report, graph, k, seed)
        return report

    for _cycle in range(FLAP_CYCLES):
        step(su, sv, sw + FLAP_DELTA)
        step(su, sv, sw)

    # the formerly certified edge: its increase re-runs the construction
    before = builder.current.construction
    spiked = step(cu, cv, cw + SPARE_DELTA)
    assert spiked.construction is not before
    # cache_size=1 evicted the pre-spike entry, so the restore rebuilds
    # too (with room in the cache it is a reuse — see
    # test_formerly_certified_increase_is_full)
    step(cu, cv, cw)

    # an untouched feed is a reuse
    again = builder.rebuild()
    assert again.strategy == "reuse" and not again.cache_hit
    assert_matches_scratch(again, graph, k, seed)

    assert remove_edge(feed) == "topology-changed"
    report = builder.rebuild()
    assert report.strategy == "full"
    assert report.fallback_reason == "topology-changed"
    assert_matches_scratch(report, graph, k, seed)

    # dispatch counters: the series visited both strategies, and every
    # full build is one the steps above asked for
    by_strategy = builder.stats()["by_strategy"]
    assert by_strategy == {"initial": 1, "reuse": 1,
                           "full": 2 * FLAP_CYCLES + 3}
    assert set(by_strategy) - {"initial"} == set(STRATEGIES)


#: More edges the removed support recorder certified (k = 2).
FORMERLY_CERTIFIED = [("random", 60, 5, (8, 58)),
                      ("random", 80, 3, (2, 22))]


@pytest.mark.parametrize("workload,n,seed,edge", FORMERLY_CERTIFIED,
                         ids=[f"{w}-{n}-k2"
                              for w, n, _, _ in FORMERLY_CERTIFIED])
def test_formerly_certified_increase_is_full(workload, n, seed, edge):
    graph = make_workload(workload, n, seed=seed).graph
    feed = TopologyFeed(graph)
    builder = IncrementalBuilder(feed, k=2, seed=seed)
    initial = builder.build()
    u, v = edge
    w = graph.weight(u, v)

    feed.update_edge_weight(u, v, w + 1)
    report = builder.rebuild()
    assert (report.strategy, report.fallback_reason) == \
        ("full", "weights-changed"), report.summary()
    assert report.construction is not initial.construction
    assert_matches_scratch(report, graph, 2, seed)

    # flap back: the previous fingerprint is cached
    feed.update_edge_weight(u, v, w)
    back = builder.rebuild()
    assert back.strategy == "reuse" and back.cache_hit
    assert back.entry is initial.entry
    assert_matches_scratch(back, graph, 2, seed)

    # a decrease misses the cache like any other weight change
    eu, ev, ew = next(e for e in sorted(graph.edges()) if e[2] > 1)
    feed.update_edge_weight(eu, ev, ew - 1)
    drop = builder.rebuild()
    assert (drop.strategy, drop.fallback_reason) == \
        ("full", "weights-changed"), drop.summary()
    assert_matches_scratch(drop, graph, 2, seed)


def test_harness_churn_edge_certificate_is_always_false():
    """``benchmarks/e2e/harness.py`` (``start_churn``) picks its churn
    edge through ``builder.current.recorder.certifies_increase``.  This
    pins that read until the harness revision (ROADMAP item 1) drops
    it; the test goes with ``BuildEntry.recorder`` then."""
    graph = make_workload("grid", 36, seed=4).graph
    builder = IncrementalBuilder(TopologyFeed(graph), k=2, seed=4,
                                 cache_size=1)
    builder.build()
    recorder = builder.current.recorder
    assert not any(recorder.certifies_increase(u, v, w, w + FLAP_DELTA)
                   for u, v, w in graph.edges())


class TestReuseCache:

    @pytest.fixture()
    def setup(self):
        graph = make_workload("random", 60, seed=3).graph
        feed = TopologyFeed(graph)
        builder = IncrementalBuilder(feed, k=2, seed=3)
        builder.build()
        return graph, feed, builder

    def test_flap_hits_cache(self, setup):
        graph, feed, builder = setup
        u, v, w = nth_edge(graph, 7)
        feed.update_edge_weight(u, v, w + 40)
        spike = builder.rebuild()
        assert spike.strategy == "full"
        feed.update_edge_weight(u, v, w)
        restore = builder.rebuild()
        assert restore.strategy == "reuse" and restore.cache_hit
        assert_matches_scratch(restore, graph, 2, 3)
        # spike again: the spiked entry is cached too
        feed.update_edge_weight(u, v, w + 40)
        respike = builder.rebuild()
        assert respike.strategy == "reuse" and respike.cache_hit
        assert artifact_bytes(respike.compiled) == \
            artifact_bytes(spike.compiled)

    def test_lru_eviction(self, setup):
        graph, feed, builder = setup
        builder = IncrementalBuilder(TopologyFeed(graph), k=2, seed=3,
                                     cache_size=1)
        feed = builder.feed
        builder.build()
        u, v, w = nth_edge(graph, 7)
        feed.update_edge_weight(u, v, w + 40)
        builder.rebuild()  # evicts the baseline entry
        assert builder.stats()["cache_entries"] == 1
        feed.update_edge_weight(u, v, w)
        restore = builder.rebuild()
        assert restore.strategy != "reuse"  # evicted: must rebuild
        assert_matches_scratch(restore, graph, 2, 3)


class TestNodeFailure:

    def test_disconnecting_failure_keeps_state_then_rejoins(self):
        graph = make_workload("cliques", 40, seed=1).graph
        feed = TopologyFeed(graph)
        builder = IncrementalBuilder(feed, k=2, seed=1)
        builder.build()
        before = builder.current

        victim = max(graph.vertices(), key=graph.degree)
        removed = feed.fail_node(victim)
        assert removed and graph.degree(victim) == 0

        # scratch agrees the graph is unbuildable...
        with pytest.raises(DisconnectedGraphError):
            scratch_build(graph, 2, 1)
        # ...and the incremental rebuild fails the same way, leaving
        # the last good generation installed and the feed intact
        with pytest.raises(DisconnectedGraphError):
            builder.rebuild()
        assert builder.current is before
        assert feed.pending().topology_changed

        for u, v, w in removed:
            feed.restore_edge(u, v, w)
        report = builder.rebuild()
        assert report.strategy == "full"
        assert report.fallback_reason == "topology-changed"
        assert_matches_scratch(report, graph, 2, 1)


class TestStats:

    def test_counters_and_fallback_rate(self):
        graph = make_workload("grid", 36, seed=4).graph
        feed = TopologyFeed(graph)
        builder = IncrementalBuilder(feed, k=2, seed=4)
        builder.build()
        stats = builder.stats()
        assert stats["rebuilds"] == 0 and stats["fallback_rate"] == 0.0

        u, v, w = nth_edge(graph, 0)
        feed.update_edge_weight(u, v, w + 1)   # weight-only
        builder.rebuild()
        remove_edge(feed)                      # topology -> full
        builder.rebuild()
        stats = builder.stats()
        assert stats["rebuilds"] == 2
        assert stats["by_strategy"] == {"initial": 1, "reuse": 0,
                                        "full": 2}
        assert stats["fallback_rate"] == 1.0

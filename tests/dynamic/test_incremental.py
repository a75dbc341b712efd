"""IncrementalBuilder differential grid: every strategy must be
bit-identical to a from-scratch ``SchemePipeline`` build on the mutated
graph — one mutation at a time, and as a flap series that walks one
builder through all three strategies.  The grid runs with and without
numpy — CI re-executes this file after uninstalling numpy."""

import random

import pytest

import repro.core.approx_clusters as approx_clusters
from repro.core import DenseRoutingPlane
from repro.dynamic import STRATEGIES, IncrementalBuilder, TopologyFeed
from repro.exceptions import DisconnectedGraphError
from repro.pipeline import SchemePipeline, make_workload


def artifact_bytes(artifact):
    bufs = artifact.export_buffers()
    return (repr(bufs.meta), repr(bufs.manifest), bufs.payload)


def scratch_build(graph, k, seed):
    """Ground truth: a cold pipeline run on a copy of the graph."""
    pipe = SchemePipeline().graph(graph.copy()).params(k).seed(seed)
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
# Each receives the feed and returns the set of acceptable strategies.


def jitter_one(feed):
    u, v, w = nth_edge(feed.graph, 5)
    feed.update_edge_weight(u, v, w + 3)
    return {"full", "compile-only"}


def jitter_batch(count):
    def mutate(feed):
        rng = random.Random(count)
        edges = sorted(feed.graph.edges())
        rng.shuffle(edges)
        for i, (u, v, w) in enumerate(edges[:count]):
            delta = (i % 5) - 2 or 1  # mixed increases and decreases
            feed.update_edge_weight(u, v, max(1, w + delta))
        return {"full", "compile-only"}
    return mutate


def decrease_one(feed):
    for u, v, w in sorted(feed.graph.edges()):
        if w > 1:
            feed.update_edge_weight(u, v, w - 1)
            return {"full"}
    u, v, w = nth_edge(feed.graph, 0)  # all-unit graph: bump one up
    feed.update_edge_weight(u, v, w + 1)
    return {"full", "compile-only"}


def remove_edge(feed):
    graph = feed.graph
    for u, v, _w in sorted(graph.edges()):
        graph.remove_edge(u, v)
        if graph.is_connected():
            graph.add_edge(u, v, _w)
            feed.fail_edge(u, v)
            return {"full"}
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
            return {"full"}
    pytest.skip("no removable edge keeps the graph connected")


def add_edge(feed):
    graph = feed.graph
    for u in graph.vertices():
        for v in graph.vertices():
            if u < v and not graph.has_edge(u, v):
                feed.restore_edge(u, v, 4)
                return {"full"}
    pytest.skip("graph is complete")


def bump_max_weight(feed):
    u, v, w = max(sorted(feed.graph.edges()), key=lambda e: e[2])
    feed.update_edge_weight(u, v, w * 2)
    # scale grid may shift (forbidding compile-only) or stay inside the
    # same power-of-two band (the sharper per-grid guard may certify)
    return {"full", "compile-only"}


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

    expected = mutate(feed)
    report = builder.rebuild()
    assert report.strategy in expected, report.summary()
    assert_matches_scratch(report, graph, k, seed)

    # the feed baseline advanced: an immediate rebuild is a cache hit
    again = builder.rebuild()
    assert again.strategy == "reuse" and not again.cache_hit
    assert artifact_bytes(again.compiled) == \
        artifact_bytes(report.compiled)


# -- flap series ---------------------------------------------------------
#: Workloads with edges the construction never commits (so compile-only
#: has something to certify), one per parity of k: odd k adds the
#: middle-level detection call to the large-scale one.  n = 200 is the
#: harness's scale; the series there is its spike/restore pattern.
FLAP_WORKLOADS = [("random", 200, 2, 5), ("geometric", 80, 3, 2)]
FLAP_DELTA = 25
SPARE_DELTA = 1   #: never-committed edges are heavy: little headroom
FLAP_CYCLES = 2


def pick_edges(graph, recorder):
    """``(supported, spare)``: the first sorted edge the construction
    committed as a winner (its spike can never certify, its restore is
    a decrease — both halves of its flap must re-run the cluster
    phase), and the first it never committed.  Neither is a heaviest
    edge: a spike past the graph's maximum weight could move the
    detection scale grids."""
    supported = spare = None
    heaviest = graph.max_weight()
    for u, v, w in sorted(graph.edges()):
        if recorder.certifies_increase(u, v, w, w + 1):
            if w + SPARE_DELTA <= heaviest:
                spare = spare or (u, v, w)
        elif w + FLAP_DELTA <= heaviest:
            supported = supported or (u, v, w)
    assert supported and spare, "pick a workload with both kinds of edge"
    return supported, spare


@pytest.mark.parametrize("workload,n,k,seed", FLAP_WORKLOADS,
                         ids=[f"{w}-{n}-k{k}"
                              for w, n, k, _ in FLAP_WORKLOADS])
def test_flap_series_over_every_strategy(workload, n, k, seed,
                                         monkeypatch):
    graph = make_workload(workload, n, seed=seed).graph
    feed = TopologyFeed(graph)

    detections = []
    plain = approx_clusters.detect_sources

    def counted(*args, **kwargs):
        detections.append(None)
        return plain(*args, **kwargs)

    # cache_size=1: the restore's fingerprint matches the evicted
    # baseline generation, so both flap halves must actually rebuild
    builder = IncrementalBuilder(feed, k=k, seed=seed, cache_size=1)
    with monkeypatch.context() as patch:
        patch.setattr(approx_clusters, "detect_sources", counted)
        builder.build()
    recorder = builder.current.recorder
    # single-unit support: each detection call committed at its one
    # rounding unit (the calls differ in eps, hence in unit) — a
    # return of the scale sweep would record 12-15 units per call
    rounded_units = {unit for bucket in recorder.units.values()
                     for unit in bucket if unit is not None}
    assert len(rounded_units) == len(detections) > 0
    (su, sv, sw), (cu, cv, cw) = pick_edges(graph, recorder)

    def step(u, v, w, strategy):
        feed.update_edge_weight(u, v, w)
        report = builder.rebuild()
        assert report.strategy == strategy, report.summary()
        assert_matches_scratch(report, graph, k, seed)
        return report

    for _cycle in range(FLAP_CYCLES):
        spike = step(su, sv, sw + FLAP_DELTA, "full")
        assert spike.fallback_reason == f"edge-({su},{sv})-in-support"
        restore = step(su, sv, sw, "full")
        assert restore.fallback_reason == "weight-decrease-present"

    # a spare edge's spike is certified from that support: the
    # construction objects are reused, only the artifacts recompile
    before = builder.current.construction
    certified = step(cu, cv, cw + SPARE_DELTA, "compile-only")
    assert certified.construction is before
    # its restore is a decrease, which nothing certifies
    step(cu, cv, cw, "full")

    # an untouched feed (and, with room in the cache, a flap back to a
    # built generation — TestReuseCache) is a reuse
    again = builder.rebuild()
    assert again.strategy == "reuse"
    assert_matches_scratch(again, graph, k, seed)

    assert remove_edge(feed) == {"full"}
    report = builder.rebuild()
    assert report.strategy == "full"
    assert report.fallback_reason == "topology-changed"
    assert_matches_scratch(report, graph, k, seed)

    # dispatch counters: the series visited all three strategies, and
    # every full build is one the steps above asked for
    by_strategy = builder.stats()["by_strategy"]
    assert by_strategy == {"initial": 1, "reuse": 1, "compile-only": 1,
                           "full": 2 * FLAP_CYCLES + 2}
    assert set(by_strategy) - {"initial"} == set(STRATEGIES)


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
        assert spike.strategy in ("compile-only", "full")
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


class TestCompileOnly:

    def test_certified_increase_skips_construction(self):
        graph = make_workload("random", 80, seed=3).graph
        feed = TopologyFeed(graph)
        builder = IncrementalBuilder(feed, k=2, seed=3)
        builder.build()
        recorder = builder.current.recorder
        certified = None
        for u, v, w in sorted(graph.edges()):
            if recorder.certifies_increase(u, v, w, w + 1):
                certified = (u, v, w)
                break
        assert certified is not None, \
            "seed produced no certifiable edge; pick another seed"
        u, v, w = certified
        construction_before = builder.current.construction
        feed.update_edge_weight(u, v, w + 1)
        report = builder.rebuild()
        assert report.strategy == "compile-only", report.summary()
        assert report.construction is construction_before
        assert_matches_scratch(report, graph, 2, 3)

    def test_uncertified_increase_falls_back(self):
        graph = make_workload("random", 60, seed=3).graph
        feed = TopologyFeed(graph)
        builder = IncrementalBuilder(feed, k=2, seed=3)
        builder.build()
        recorder = builder.current.recorder
        uncertified = None
        for u, v, w in sorted(graph.edges()):
            if not recorder.certifies_increase(u, v, w, w + 50):
                uncertified = (u, v, w)
                break
        assert uncertified is not None
        u, v, w = uncertified
        feed.update_edge_weight(u, v, w + 50)
        report = builder.rebuild()
        assert report.strategy == "full"
        assert report.fallback_reason == f"edge-({u},{v})-in-support"
        assert_matches_scratch(report, graph, 2, 3)


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
        # the jitter is compile-only if the transcript certifies it
        # and a full build (with the reason) if not
        full = stats["by_strategy"]["full"]
        assert full + stats["by_strategy"]["compile-only"] == 2
        assert stats["fallback_rate"] == pytest.approx(full / 2)

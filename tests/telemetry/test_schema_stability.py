"""Snapshot-schema stability for every consumer migrated onto the
shared registry.

The migration contract of this PR: ``BrokerMetrics``, the pool, the
loadgen and the rebuild path now *store* their numbers in registry
instruments, but every pre-existing read-side API keeps its exact
shape.  These tests pin those shapes so a future instrument rename
can't silently break bench scripts or dashboards.
"""

import asyncio

import pytest

from repro.pipeline import SchemePipeline
from repro.server.broker import RequestBroker
from repro.server.loadgen import (
    LOADGEN_SERIES,
    broker_targets,
    run_closed_loop,
    run_open_loop,
)
from repro.server.metrics import PERCENTILES, BrokerMetrics
from repro.telemetry import MetricsRegistry, parse_exposition


def run(coro, timeout=60.0):
    """asyncio.run with a watchdog so a wedged broker fails fast."""
    async def timed():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(timed())


#: The broker snapshot schema callers (CLI, bench_traffic, dashboards)
#: rely on.  ``queue_wait`` and ``service`` are the additive keys of
#: this PR — everything else predates it and must never change shape.
BROKER_SNAPSHOT_KEYS = {
    "submitted", "completed", "failed", "cancelled", "dispatches",
    "fused_pairs", "mean_fused_size", "batch_size_hist", "swaps",
    "generation", "generation_windows", "queue_depth", "latency",
    "queue_wait", "service", "swap_latency",
}

LATENCY_SUMMARY_KEYS = {"count", "window", "mean_ms", "max_ms"} | {
    f"p{int(q)}_ms" for q in PERCENTILES}


@pytest.fixture(scope="module")
def compiled():
    return (SchemePipeline().workload("grid", 25).params(2).seed(3)
            .compile())


class TestBrokerSnapshotSchema:
    def test_snapshot_keys(self):
        m = BrokerMetrics()
        assert set(m.snapshot()) == BROKER_SNAPSHOT_KEYS

    def test_latency_summaries_keep_percentile_keys(self):
        m = BrokerMetrics()
        m.record_window([0.010], queue_waits=[0.004],
                        service_seconds=0.006)
        snap = m.snapshot()
        for key in ("latency", "queue_wait", "service"):
            assert set(snap[key]) == LATENCY_SUMMARY_KEYS, key
        assert snap["latency"]["count"] == 1

    def test_queue_wait_plus_service_decomposes_latency(self):
        m = BrokerMetrics()
        m.record_window([0.010], queue_waits=[0.004],
                        service_seconds=0.006)
        snap = m.snapshot()
        total = (snap["queue_wait"]["mean_ms"]
                 + snap["service"]["mean_ms"])
        assert total == pytest.approx(snap["latency"]["mean_ms"],
                                      rel=1e-6)

    def test_live_broker_populates_split(self, compiled):
        async def go():
            async with RequestBroker(router=compiled) as broker:
                await broker.route_batch([(0, 7), (3, 12)])
                return broker.metrics.snapshot()
        snap = run(go())
        # one batch submission -> one completion, decomposed once
        assert snap["completed"] == 1
        assert snap["queue_wait"]["count"] == 1
        assert snap["service"]["count"] == 1
        # queue wait and service time are both real (non-negative) and
        # bounded by the end-to-end latency
        assert snap["queue_wait"]["max_ms"] <= \
            snap["latency"]["max_ms"] + 1e-6

    def test_counters_visible_in_registry(self):
        registry = MetricsRegistry()
        m = BrokerMetrics(registry=registry)
        for _ in range(3):
            m.record_submit()
        m.record_window([0.001], queue_waits=[0.0],
                        service_seconds=0.001)
        text = registry.render()
        assert 'repro_broker_requests_total{event="submitted"} 3' \
            in text
        assert "repro_broker_latency_seconds_count 1" in text


class TestPoolStatsSchema:
    def test_pool_stats_keys(self, compiled):
        from repro.serving import RouterPool
        with RouterPool(compiled, workers=2) as pool:
            pool.route_many([(0, 7), (3, 12), (5, 9)])
            stats = pool.stats()
        assert set(stats) == {"role", "workers", "generation",
                              "dispatches", "pairs", "shards",
                              "swaps", "swap_failures"}
        assert stats["role"] == "route"
        assert stats["pairs"] == 3
        assert stats["swaps"] == 0

    def test_pool_reports_into_shared_registry(self, compiled):
        from repro.serving import RouterPool
        registry = MetricsRegistry()
        with RouterPool(compiled, workers=2,
                        registry=registry) as pool:
            pool.route_many([(0, 7)])
            text = registry.render()
        assert 'repro_pool_pairs_total{role="route"} 1' in text
        assert 'repro_pool_workers{role="route"} 2' in text


class TestLoadgenSchema:
    def test_loadgen_series_names_pinned(self):
        assert LOADGEN_SERIES == ("repro_loadgen_requests_total",
                                  "repro_loadgen_latency_seconds")

    def test_report_dict_schema_unchanged(self, compiled):
        async def go():
            async with RequestBroker(router=compiled) as broker:
                return await run_closed_loop(
                    broker_targets(broker), compiled.num_vertices,
                    clients=2, requests_per_client=3)
        report = run(go())
        record = report.to_dict()
        assert set(record) == {"mode", "op", "mix", "seed", "requests",
                               "errors", "duration_seconds",
                               "achieved_rps", "latency", "clients"}
        assert record["requests"] == 6

    def test_shared_registry_series_match_cli_names(self, compiled):
        """The regression pin of satellite (f): the loadgen, the CLI
        and bench_traffic all report through the same registry, so the
        rendered series names are LOADGEN_SERIES by construction."""
        registry = MetricsRegistry()

        async def go():
            async with RequestBroker(router=compiled) as broker:
                await run_closed_loop(
                    broker_targets(broker), compiled.num_vertices,
                    clients=2, requests_per_client=3,
                    registry=registry)
                await run_open_loop(
                    broker_targets(broker), compiled.num_vertices,
                    rps=500.0, total_requests=5, registry=registry)
        run(go())
        assert set(registry.names()) == set(LOADGEN_SERIES)
        text = registry.render()
        assert ('repro_loadgen_requests_total{mode="closed",'
                'op="route",mix="uniform",outcome="ok"} 6') in text
        assert ('repro_loadgen_requests_total{mode="open",'
                'op="route",mix="uniform",outcome="ok"} 5') in text

    def test_private_registry_created_when_none_given(self, compiled):
        async def go():
            async with RequestBroker(router=compiled) as broker:
                return await run_closed_loop(
                    broker_targets(broker), compiled.num_vertices,
                    clients=1, requests_per_client=2)
        report = run(go())
        assert report.registry is not None
        assert set(report.registry.names()) == set(LOADGEN_SERIES)


class TestRebuildReportSchema:
    def test_stage_seconds_and_strategy_counter(self):
        from repro.dynamic import IncrementalBuilder, TopologyFeed
        from repro.pipeline import make_workload

        graph = make_workload("random", 40, seed=3).graph
        feed = TopologyFeed(graph)
        registry = MetricsRegistry()
        builder = IncrementalBuilder(feed, k=2, seed=3,
                                     registry=registry)
        report = builder.build()
        assert report.strategy == "initial"
        assert set(report.stage_seconds) <= {"classify", "construct",
                                             "install"}
        assert "construct" in report.stage_seconds
        assert all(s >= 0 for s in report.stage_seconds.values())

        u, v, w = sorted(graph.edges())[0]
        feed.update_edge_weight(u, v, w + 40)
        report2 = builder.rebuild()
        assert "classify" in report2.stage_seconds
        assert report2.strategy != "initial"

        text = registry.render()
        assert 'strategy="initial"' in text
        assert 'stage="construct"' in text
        # the builder's whole family set, and its strategy vocabulary
        fams = parse_exposition(text)
        assert {name for name in fams
                if name.startswith("repro_rebuild_")} == {
            "repro_rebuild_strategy_total",
            "repro_rebuild_stage_seconds_total"}
        samples = [dict(labels) for labels in
                   fams["repro_rebuild_strategy_total"].samples]
        assert {labels["strategy"] for labels in samples} <= {
            "initial", "reuse", "full"}
        assert {labels["reason"] for labels in samples} <= {
            "none", "topology-changed", "weights-changed"}

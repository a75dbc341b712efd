#!/usr/bin/env python3
"""Quickstart: the build → compile → serve lifecycle.

Builds the Elkin–Neiman compact routing scheme through the staged
pipeline facade, compiles it into the dense routing plane (the served
artifact), round-trips it through disk, and serves a batch of queries
from the loaded tables — next to the paper's guarantees, measured.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro.analysis import evaluate_routing
from repro.core import load_artifact, sample_pairs
from repro.pipeline import SchemePipeline

N, K, SEED = 80, 3, 42


def main() -> None:
    print(f"Configuring the pipeline: random workload, n={N}, k={K} "
          f"(stretch bound 4k-5 = {4 * K - 5})")
    pipeline = (SchemePipeline()
                .workload("random", N)
                .params(K)
                .seed(SEED))

    print("Stage 1 — build (the only expensive stage)...")
    built = pipeline.build()
    scheme = built.scheme
    print(f"  {built.summary().splitlines()[0]}")
    print(f"  construction cost : {built.rounds:,} CONGEST rounds "
          f"(measured)")
    print(f"  routing tables    : max {scheme.max_table_words()} words "
          f"(avg {scheme.average_table_words():.1f})")
    print(f"  labels            : max {scheme.max_label_words()} words\n")

    print("Stage 2 — compile to a graph-detached artifact...")
    dense = pipeline.compile()
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "scheme.cra"
        dense.save(artifact)
        print(f"  saved {artifact.name}: {artifact.stat().st_size} "
              f"bytes for n={dense.num_vertices}, "
              f"k={dense.k}")
        served = load_artifact(artifact)
    print(f"  loaded back: {served!r}\n")

    print("Stage 3 — serve (batch API, no graph, no reconstruction):")
    demo_pairs = [(0, N - 1), (3, 57), (12, 33), (70, 7)]
    for route in served.route_many(demo_pairs):
        path = " -> ".join(map(str, route.path[:6]))
        if len(route.path) > 6:
            path += f" ... ({route.hops} hops)"
        live = scheme.route(route.source, route.target)
        assert route.path == live.path and route.weight == live.weight
        print(f"  {route.source:>3} -> {route.target:<3}: {path}")
        print(f"        weight {route.weight:.0f} vs shortest "
              f"{live.exact_distance:.0f}  (stretch "
              f"{live.stretch:.3f}, found at level "
              f"{route.found_level}, tree of {route.tree_center})")

    print("\nEvaluating stretch over 500 random pairs "
          "(batch serve path)...")
    report = evaluate_routing(scheme.graph, served, sample=500, seed=1)
    print(f"  {report}")
    print(f"  paper bound: 4k-5 + o(1) = {4 * K - 5} + o(1)")
    assert report.max_stretch <= 4 * K - 5 + 1.0
    print("  OK: measured stretch within the paper's guarantee")

    import random
    pairs = sample_pairs(N, 1000, random.Random(3))
    assert [r.weight for r in served.route_many(pairs)] == \
        [scheme.route(u, v).weight for u, v in pairs]
    print("  OK: compiled artifact bit-identical to the live scheme "
          f"on {len(pairs)} more pairs")

    print("\nStage 4 — scale out: sharded serving pool...")
    from repro.serving import RouterPool
    with RouterPool(served, workers=2) as pool:
        pooled = pool.route_many(pairs)
        print(f"  {pool!r}")
    assert pooled == served.route_many(pairs)
    print(f"  OK: {len(pairs)} queries served from "
          f"{2} worker processes, bit-identical to in-process serving")

    print("\nStage 5 — stream it: async broker with micro-batch "
          "coalescing...")
    import asyncio
    from repro.server import RequestBroker

    async def streaming_clients() -> None:
        # 16 concurrent clients each look up single pairs; the broker
        # fuses whatever arrives inside the window into one
        # route_many call per dispatch
        async with RequestBroker(router=served, max_batch=64,
                                 max_wait_ms=1.0) as broker:
            stream = pairs[:160]
            results = await asyncio.gather(
                *(broker.route(u, v) for u, v in stream))
            assert list(results) == served.route_many(stream)
            snap = broker.metrics.snapshot()
            print(f"  {broker!r}")
            print(f"  {snap['submitted']} concurrent lookups served "
                  f"by {snap['dispatches']} fused dispatches "
                  f"(mean fused size {snap['mean_fused_size']}, "
                  f"p50 {snap['latency']['p50_ms']:.2f}ms)")

    asyncio.run(streaming_clients())
    print("  OK: streamed lookups bit-identical to batch serving")
    print("  (serve it over TCP: python -m repro serve scheme.cra "
          "--port 8642)")

    print("\nStage 6 — live control plane: mutate, rebuild "
          "incrementally, publish, hot-swap...")
    from repro.dynamic import (ArtifactRegistry, IncrementalBuilder,
                               TopologyFeed)
    from repro.serving import RouterPool

    graph = pipeline.build().scheme.graph
    feed = TopologyFeed(graph)
    builder = IncrementalBuilder(feed, k=K, seed=SEED)
    builder.build()  # adopts the initial topology

    with tempfile.TemporaryDirectory() as tmp:
        registry = ArtifactRegistry(Path(tmp) / "registry")
        gen0 = registry.publish(served, fingerprint=feed.fingerprint(),
                                note="initial topology")

        # a link degrades: rebuild only what soundness requires
        u, v, w = next(iter(graph.edges()))
        feed.update_edge_weight(u, v, w + 30)
        report = builder.rebuild()
        print(f"  rebuild: {report.summary()}")
        gen1 = registry.publish(report.dense,
                                fingerprint=feed.fingerprint(),
                                note=f"link ({u},{v}) degraded")
        print(f"  registry: {gen0.describe()}")
        print(f"            {gen1.describe()}")

        # hot-swap the serving pool: in-flight batches finish on the
        # old generation, later batches serve the new one
        with RouterPool(served, workers=2) as pool:
            swap_ms = pool.swap(registry.load(gen1.generation)) * 1e3
            generation, routes = pool.route_many_tagged(pairs[:20])
            assert routes == report.compiled.route_many(pairs[:20])
            print(f"  hot-swap OK in {swap_ms:.1f}ms: pool serves "
                  f"generation {generation}, zero dropped batches")
        print(f"  incremental stats: {builder.stats()}")
    print("  (inspect a registry: python -m repro registry list DIR)")

    print("\nStage 7 — watch it run: one telemetry plane across "
          "build, serve, and swap...")
    from repro.telemetry import (MetricsRegistry, Tracer,
                                 format_span_tree, set_tracer)

    tracer = Tracer(sample_every=1)   # debug rate: trace everything
    set_tracer(tracer)
    try:
        asyncio.run(streaming_clients())
    finally:
        set_tracer(None)
    spans = tracer.export()
    chain = [s for s in spans
             if s["trace_id"] == spans[0]["trace_id"]]
    print("  one request's connected trace "
          f"({len(spans)} spans recorded):")
    for line in format_span_tree(chain).splitlines():
        print(f"    {line}")

    metrics = MetricsRegistry()
    built.scheme.ledger.publish(metrics)
    exposition = [line for line in metrics.render().splitlines()
                  if line.startswith("repro_build_rounds_total")]
    print(f"  build CostLedger as /metrics series "
          f"({len(exposition)} per-phase round counters):")
    for line in exposition[:4]:
        print(f"    {line}")
    print("  (live: python -m repro serve scheme.cra --port 8642 "
          "--metrics-port 9100 --trace-jsonl trace.jsonl,")
    print("   then: python -m repro telemetry snapshot --port 9100 "
          "--summary; python -m repro telemetry tail trace.jsonl)")


if __name__ == "__main__":
    main()

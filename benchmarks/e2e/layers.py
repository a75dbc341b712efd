"""The traced run's layer probes: one rung per layer between the dense
kernel and the wire, on the run's own artifact and request stream.

Each probe is a call into a layer's public function with a harness span
around it.  Rates are pairs per second so the rungs divide: every rung
is printed as a multiple of the one below it.
"""

from __future__ import annotations

import asyncio
import cProfile
import pstats
import statistics
import time
from typing import Dict, List

from harness import GRAPH_SEED, closed_loop
from server_proc import MAX_BATCH, MAX_WAIT_MS

from repro.core import DenseRoutingPlane
from repro.pipeline import SchemePipeline
from repro.server import RequestBroker, protocol
from repro.serving import RouterPool

#: Pairs routed per kernel rung, in calls of the broker's window budget.
LADDER_PAIRS = 16384

#: Requests the codec and wire-size probe encodes and decodes.
CODEC_REQUESTS = 1024


def _flatten(requests, limit: int) -> List:
    pairs = []
    for request in requests:
        pairs.extend(request)
        if len(pairs) >= limit:
            break
    return pairs[:limit]


def _rate(route_many, batches) -> float:
    start = time.perf_counter()
    done = 0
    for batch in batches:
        done += len(route_many(batch))
    return done / (time.perf_counter() - start)


async def open_loop(clients, stream, rate: int, duration_s: float, ops,
                    spans) -> Dict[str, float]:
    """Requests due every ``1/rate`` s whatever the replies do; latency
    counts from when a request was *due*, and how late the generator ran
    is reported next to it."""
    latencies: List[float] = []
    lags: List[float] = []
    failed = 0

    async def fire(client, request, due: float) -> None:
        nonlocal failed
        try:
            await client.route_batch(request)
        except Exception:
            failed += 1
            return
        latencies.append(time.perf_counter() - due)

    tasks = []
    with spans.span("serve.open_loop", rate=rate):
        start = time.perf_counter()
        for index in range(int(rate * duration_s)):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(
                fire(clients[index % len(clients)], stream.take(), due)))
        await asyncio.gather(*tasks)
    ops.count(len(tasks), failed, "open-loop requests")
    return {"server.open_p50_ms": statistics.median(latencies) * 1e3,
            "server.loadgen_lag_ms": statistics.median(lags) * 1e3}


def codec_probe(requests, dense, spans) -> Dict[str, float]:
    """Encode and decode the workload's own frames, both directions,
    exactly as client and server do; wire bytes are exact."""
    requests = requests[:CODEC_REQUESTS]
    answers = [dense.route_many(request) for request in requests]
    wire = 0
    with spans.span("server.codec", requests=len(requests)):
        start = time.perf_counter()
        for index, (request, routes) in enumerate(zip(requests, answers)):
            payload = protocol.encode_request("R", str(index), request)
            wire += len(protocol.encode_frame(payload))
            decoded = protocol.decode_request(payload)
            reply = protocol.encode_ok(
                decoded.request_id,
                [protocol.encode_route_result(r) for r in routes])
            wire += len(protocol.encode_frame(reply))
            response = protocol.decode_response(reply)
            for result, (u, v) in zip(response.fields, request):
                protocol.decode_route_result(result, u, v)
        elapsed = time.perf_counter() - start
    return {"server.codec_us_per_req": elapsed / len(requests) * 1e6,
            "server.wire_bytes_per_req": wire / len(requests)}


async def probe_layers(wl, plan, rig, churn, stream, samples, ops,
                       spans) -> Dict[str, float]:
    out: Dict[str, float] = {}
    dense, flat = churn.dense, churn.compiled
    requests = rig.inputs.requests

    # -- a count that repeats exactly: calls of one build + compile ----
    pipeline = (SchemePipeline().workload(wl.family, plan.n)
                .params(wl.k).seed(GRAPH_SEED))
    profile = cProfile.Profile()
    with spans.span("core.build_profiled"):
        profile.enable()
        pipeline.build()
        pipeline.compile("dense")
        profile.disable()
    out["core.build_py_calls"] = pstats.Stats(profile).total_calls

    # -- artifact file round trip ---------------------------------------
    path = rig.workdir / "probe.cra"
    with spans.span("core.save"):
        start = time.perf_counter()
        dense.save(path)
        out["core.save_s"] = time.perf_counter() - start
    with spans.span("core.load"):
        start = time.perf_counter()
        DenseRoutingPlane.load(path)
        out["core.load_s"] = time.perf_counter() - start

    # -- the serve ladder, kernel to wire -------------------------------
    pairs = _flatten(requests, LADDER_PAIRS)
    batches = [pairs[at:at + MAX_BATCH]
               for at in range(0, len(pairs), MAX_BATCH)]
    with spans.span("core.flat_route_many"):
        out["core.flat_route_many_pairs_s"] = _rate(flat.route_many,
                                                    batches)
    with spans.span("core.dense_route_many"):
        out["core.dense_route_many_pairs_s"] = _rate(dense.route_many,
                                                     batches)
    with spans.span("core.dense_route_bulk"):
        out["core.dense_bulk_pairs_s"] = _rate(dense.route_many, [pairs])
    singles = [[pair] for pair in pairs[:2048]]
    with spans.span("core.dense_route_single"):
        out["core.dense_call_us"] = 1e6 / _rate(dense.route_many, singles)
    with spans.span("serving.pool1"):
        with RouterPool(dense, workers=1) as pool:
            pool.route_many(batches[0])          # workers attached
            out["serving.pool1_pairs_s"] = _rate(pool.route_many, batches)
    broker = RequestBroker(router=dense, max_batch=MAX_BATCH,
                           max_wait_ms=MAX_WAIT_MS)
    async with broker:
        done, elapsed, _ = await closed_loop(
            [broker, broker], stream, wl.inflight, plan.segment_s / 2,
            ops, spans, "server.broker_in_process", trace_requests=False)
    out["server.broker_pairs_s"] = done / elapsed

    out.update(codec_probe(requests, dense, spans))

    # -- the live server's own counters and the open-loop probe ---------
    stats = await rig.clients[0].stats()
    out["server.broker_fill"] = stats["mean_fused_size"]
    out["server.broker_queue_wait_ms"] = stats["queue_wait.p50_ms"]
    out["server.broker_service_ms"] = stats["service.p50_ms"]
    out.update(await open_loop(rig.clients, stream, wl.open_rate,
                               plan.segment_s, ops, spans))

    # -- what the request spans cost: ABAB saturated segments -----------
    rates = {True: [], False: []}
    for index in range(4):
        traced = index % 2 == 0
        done, elapsed, _ = await closed_loop(
            rig.clients, stream, wl.inflight, plan.segment_s / 2, ops,
            spans, "serve.overhead_probe", trace_requests=traced)
        rates[traced].append(done / elapsed)
    out["telemetry.traced_over_untraced"] = (
        statistics.mean(rates[True]) / statistics.mean(rates[False]))

    ladder = [(name, out[name]) for name in (
        "core.dense_bulk_pairs_s", "core.dense_route_many_pairs_s",
        "core.flat_route_many_pairs_s", "serving.pool1_pairs_s",
        "server.broker_pairs_s")]
    ladder.append(("served_pairs_s (TCP, this run, as measured)",
                   statistics.median(samples.served_pairs_s)))
    notes = ["-- serve ladder, pairs/s (x = multiple of the rung below)"]
    for (name, rate), below in zip(ladder, ladder[1:] + [None]):
        notes.append(f"{name:<44} {rate:>12.6g}"
                     + (f"  {rate / below[1]:8.2f}x" if below else ""))
    out["notes"] = notes
    return out

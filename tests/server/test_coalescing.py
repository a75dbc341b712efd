"""Coalescing-window edge cases and metrics accounting.

The windows under test: a window of exactly 1 (no concurrency — the
timer closes it alone), ``max_batch`` hit exactly (no over-fill, no
starvation), ``max_batch=1`` (coalescing disabled: dispatch count ==
submission count), empty flush (close with nothing pending), and the
fused-batch-size histogram / latency reservoir that make the broker
observable.  One test pins, in counts rather than timings, what a
served request may cost the event loop: work per window, not per
request.
"""

import asyncio
from fractions import Fraction

import pytest
from server_helpers import run

from repro.server import RequestBroker, TrafficServer, protocol
from repro.server.metrics import LatencyRecorder, percentile


def test_window_of_one_lone_request(compiled):
    """A single request with nobody else around is dispatched alone
    after the wait window — it must not wait for a full batch."""
    async def main():
        async with RequestBroker(router=compiled, max_batch=64,
                                 max_wait_ms=1.0) as broker:
            route = await broker.route(0, 7)
            snap = broker.metrics.snapshot()
            assert snap["dispatches"] == 1
            assert snap["batch_size_hist"] == {"1": 1}
            return route
    assert run(main()) == compiled.route(0, 7)


def test_max_batch_hit_exactly(compiled, query_pairs):
    """Submitting exactly max_batch pairs at once closes the window
    immediately (one fused dispatch, no timer wait)."""
    k = 16
    pairs = query_pairs[:k]

    async def main():
        # huge wait: if the window didn't close on size, this would
        # stall for 10s and the watchdog would flag it
        async with RequestBroker(router=compiled, max_batch=k,
                                 max_wait_ms=10_000.0) as broker:
            futures = [asyncio.ensure_future(broker.route(u, v))
                       for u, v in pairs]
            results = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=5.0)
            hist = broker.metrics.snapshot()["batch_size_hist"]
            assert hist.get(str(k)) == 1
            return list(results)

    assert run(main()) == compiled.route_many(pairs)


def test_max_batch_one_never_coalesces(compiled, query_pairs):
    """max_batch=1: every submission is its own dispatch — the
    benchmark's no-coalescing baseline is real."""
    pairs = query_pairs[:20]

    async def main():
        async with RequestBroker(router=compiled, max_batch=1,
                                 max_wait_ms=5.0) as broker:
            results = await asyncio.gather(
                *(broker.route(u, v) for u, v in pairs))
            snap = broker.metrics.snapshot()
            assert snap["dispatches"] == len(pairs)
            assert set(snap["batch_size_hist"]) == {"1"}
            return list(results)

    assert run(main()) == compiled.route_many(pairs)


def test_zero_wait_greedy_drain(compiled, query_pairs):
    """max_wait_ms=0 grabs whatever is already queued — concurrent
    submissions still coalesce, but nothing ever sleeps on a timer."""
    pairs = query_pairs[:64]

    async def main():
        async with RequestBroker(router=compiled, max_batch=64,
                                 max_wait_ms=0.0) as broker:
            results = await asyncio.gather(
                *(broker.route(u, v) for u, v in pairs))
            snap = broker.metrics.snapshot()
            # far fewer dispatches than submissions: coalescing worked
            # purely off queue pressure
            assert snap["dispatches"] < len(pairs)
            assert snap["fused_pairs"] == len(pairs)
            return list(results)

    assert run(main()) == compiled.route_many(pairs)


def test_empty_flush_on_close(compiled):
    """Opening and closing an idle broker dispatches nothing."""
    async def main():
        broker = RequestBroker(router=compiled)
        await broker.aclose()
        assert broker.metrics.snapshot()["dispatches"] == 0
        # close before any submit: lanes never started, still clean
        assert broker.closed
    run(main())


def test_oversized_submission_dispatches_alone(compiled, query_pairs):
    """A single client batch larger than max_batch is never split —
    it forms its own oversized window."""
    pairs = query_pairs[:40]

    async def main():
        async with RequestBroker(router=compiled, max_batch=8,
                                 max_wait_ms=0.0) as broker:
            results = await broker.route_batch(pairs)
            hist = broker.metrics.snapshot()["batch_size_hist"]
            assert hist == {str(len(pairs)): 1}
            return results

    assert run(main()) == compiled.route_many(pairs)


def test_metrics_latency_accounting(compiled, query_pairs):
    async def main():
        async with RequestBroker(router=compiled, max_batch=16,
                                 max_wait_ms=0.5) as broker:
            await asyncio.gather(*(broker.route(u, v)
                                   for u, v in query_pairs[:50]))
            snap = broker.metrics.snapshot()
            assert snap["submitted"] == 50
            assert snap["completed"] == 50
            assert snap["failed"] == 0
            lat = snap["latency"]
            assert lat["count"] == 50
            assert lat["window"] == 50  # nothing evicted yet
            assert 0 < lat["p50_ms"] <= lat["p95_ms"] <= lat["p99_ms"]
            assert lat["max_ms"] >= lat["p99_ms"]
    run(main())


def test_burst_costs_per_window_not_per_request(compiled, query_pairs,
                                                monkeypatch):
    """512 single-pair requests fired in one burst over 2 connections
    with ``max_batch=128``: a handful of fused dispatches, asyncio
    Tasks in proportion to the windows (a Task per frame would be
    > 512), and at most one ``transport.write`` per window and
    connection (a write per reply would be 512)."""
    per_conn = 256
    pairs = (query_pairs * 3)[:2 * per_conn]
    tasks_created = []
    server_writes = []

    def counting_factory(loop, coro, **kwargs):
        tasks_created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def main():
        broker = RequestBroker(router=compiled, max_batch=128,
                               max_wait_ms=50.0)
        async with TrafficServer(broker, port=0) as server:
            port = server.port
            transport_type = asyncio.selector_events \
                ._SelectorSocketTransport
            plain_write = transport_type.write

            def counted_write(transport, data):
                # the accepted side of a connection is the one whose
                # local port is the listener's
                if transport.get_extra_info("sockname")[1] == port:
                    server_writes.append(len(data))
                return plain_write(transport, data)

            monkeypatch.setattr(transport_type, "write", counted_write)
            asyncio.get_running_loop().set_task_factory(
                counting_factory)
            conns = [await asyncio.open_connection("127.0.0.1", port)
                     for _ in range(2)]
            for c, (_, writer) in enumerate(conns):
                mine = pairs[c * per_conn:(c + 1) * per_conn]
                writer.write(b"".join(
                    protocol.encode_frame(protocol.encode_request(
                        "R", str(i), [pair]))
                    for i, pair in enumerate(mine)))
            replies = []
            for reader, _ in conns:
                for _ in range(per_conn):
                    replies.append(await protocol.read_frame(reader))
            for _, writer in conns:
                writer.close()
                await writer.wait_closed()
            return replies, broker.metrics.snapshot()

    replies, snap = run(main())
    # every request answered, in order, with the in-process bytes
    expected = compiled.route_many(pairs)
    for index, (payload, pair, route) in enumerate(
            zip(replies, pairs, expected)):
        response = protocol.decode_response(payload)
        assert response.ok and response.request_id == \
            str(index % per_conn)
        assert protocol.decode_route_result(
            response.fields[0], *pair) == route
    windows = snap["dispatches"]
    assert snap["fused_pairs"] == len(pairs)
    assert windows <= 8
    assert len(tasks_created) < 32, len(tasks_created)
    assert len(server_writes) <= 2 * windows, (server_writes, windows)


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(samples, 50) == 5.0
    assert percentile(samples, 95) == 10.0
    assert percentile(samples, 99) == 10.0
    assert percentile([7.0], 50) == 7.0


def _reference_nearest_rank(samples, q):
    """Textbook nearest-rank in exact arithmetic: the smallest sample
    whose rank r satisfies 100 * r / n >= q (rank 1 for q = 0)."""
    n = len(samples)
    rank = 1
    while rank < n and Fraction(100) * rank / n < Fraction(str(q)):
        rank += 1
    return samples[rank - 1]


def test_percentile_matches_reference_across_grid():
    """Property check: exact integer-arithmetic rank agrees with a
    reference nearest-rank over window sizes and q values, including
    the boundary cases float arithmetic gets wrong (e.g. a float
    ``n * q / 100`` of 98.99999... ceiling to the wrong rank)."""
    qs = [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9,
          100.0, 33.3, 66.6]
    for n in list(range(1, 65)) + [100, 127, 128, 1000, 10_000]:
        samples = [float(i) for i in range(1, n + 1)]
        for q in qs:
            assert percentile(samples, q) == \
                _reference_nearest_rank(samples, q), (n, q)


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0], -0.1)
    with pytest.raises(ValueError):
        percentile([1.0], 100.1)


def test_latency_recorder_window_bound():
    rec = LatencyRecorder(window=10)
    for i in range(100):
        rec.observe(i / 1000.0)
    assert rec.count == 100
    assert len(rec) == 10
    summary = rec.summary()
    # count is all-time; window is the population the stats cover
    assert summary["count"] == 100
    assert summary["window"] == 10
    # only the last 10 samples (90..99 ms) are in the window
    assert summary["p50_ms"] >= 90.0

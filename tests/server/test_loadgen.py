"""Load generator: seeded determinism, both loop modes, both targets.

The loadgen is itself a measurement instrument, so the tests pin what
makes measurements trustworthy: pair mixes replay exactly under one
seed, closed-loop issues exactly ``clients × requests`` requests,
open-loop honours the arrival schedule and reports queueing in its
latencies, and reports carry the JSON schema CI asserts on.
"""

import asyncio
import random

import pytest

from server_helpers import run

from repro.exceptions import ParameterError
from repro.server import RequestBroker, TrafficServer
from repro.server.loadgen import (
    HOTSPOT_EXPONENT,
    PAIR_MIXES,
    broker_targets,
    make_mix,
    mix_hotspot,
    mix_uniform,
    run_closed_loop,
    run_open_loop,
    tcp_targets,
)

#: Keys every load report must carry (CI asserts this schema on the
#: smoke burst too — keep in sync with ``LoadReport.to_dict``).
REPORT_SCHEMA = {"mode", "op", "mix", "seed", "requests", "errors",
                 "duration_seconds", "achieved_rps", "latency"}

LATENCY_SCHEMA = {"count", "window", "mean_ms", "max_ms", "p50_ms",
                  "p95_ms", "p99_ms"}


@pytest.mark.parametrize("mix", sorted(PAIR_MIXES))
def test_mixes_are_seeded_and_in_range(mix, compiled):
    n = compiled.num_vertices
    a = make_mix(mix, n, seed=7)
    b = make_mix(mix, n, seed=7)
    draws_a = [a() for _ in range(200)]
    draws_b = [b() for _ in range(200)]
    assert draws_a == draws_b, "same seed must replay the same pairs"
    assert all(0 <= u < n and 0 <= v < n for u, v in draws_a)
    c = make_mix(mix, n, seed=8)
    assert [c() for _ in range(200)] != draws_a


def _randrange_uniform(n, rng):
    """The uniform mix as ``randrange`` draws: the oracle for the
    inlined rejection loop."""
    def draw():
        return rng.randrange(n), rng.randrange(n)
    return draw


def _search_hotspot(n, rng):
    """The hotspot mix with a hand-written binary search and
    ``randrange`` targets: the oracle for ``bisect`` and the inlined
    loop."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    cum = []
    acc = 0.0
    for r in range(n):
        acc += 1.0 / (r + 1) ** HOTSPOT_EXPONENT
        cum.append(acc)

    def draw():
        x = rng.random() * acc
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return ranks[lo], rng.randrange(n)
    return draw


@pytest.mark.parametrize("mix, oracle", [(mix_uniform, _randrange_uniform),
                                         (mix_hotspot, _search_hotspot)])
@pytest.mark.parametrize("n", [1, 2, 3, 200, 256, 1000, 4097])
def test_mix_draws_equal_randrange_draws(mix, oracle, n):
    """Same seed, same pairs, and the stream left in the same state:
    at powers of two and one past, where the rejection loop's bit
    count changes."""
    for seed in range(5):
        fast, slow = random.Random(seed), random.Random(seed)
        draw, expected = mix(n, fast), oracle(n, slow)
        assert [draw() for _ in range(3000)] \
            == [expected() for _ in range(3000)], seed
        assert fast.getstate() == slow.getstate(), seed


@pytest.mark.parametrize("mix", sorted(PAIR_MIXES))
def test_mix_over_no_vertices_raises(mix):
    with pytest.raises((ParameterError, ValueError)):
        make_mix(mix, 0, seed=1)


def test_hotspot_mix_skews_sources(compiled):
    n = compiled.num_vertices
    draw = make_mix("hotspot", n, seed=3)
    sources = [draw()[0] for _ in range(2000)]
    counts = sorted((sources.count(v) for v in set(sources)),
                    reverse=True)
    # Zipf: the hottest source dominates a uniform share by a lot
    assert counts[0] > 3 * (2000 / n)


def test_repeated_mix_has_small_working_set(compiled):
    n = compiled.num_vertices
    draw = make_mix("repeated", n, seed=3)
    assert len({draw() for _ in range(500)}) <= 32


def test_unknown_mix_raises(compiled):
    with pytest.raises(ParameterError):
        make_mix("nope", compiled.num_vertices, 0)


def test_closed_loop_counts_and_schema(compiled):
    async def main():
        async with RequestBroker(router=compiled, max_batch=32,
                                 max_wait_ms=0.2) as broker:
            return await run_closed_loop(
                broker_targets(broker), compiled.num_vertices,
                clients=6, requests_per_client=15, seed=5)

    report = run(main())
    assert report.requests == 6 * 15
    assert report.errors == 0
    record = report.to_dict()
    assert REPORT_SCHEMA <= set(record)
    assert LATENCY_SCHEMA <= set(record["latency"])
    assert record["clients"] == 6
    assert record["latency"]["count"] == 90
    assert record["latency"]["window"] == 90
    assert record["achieved_rps"] > 0


def test_open_loop_poisson_schema(compiled):
    async def main():
        async with RequestBroker(router=compiled, max_batch=32,
                                 max_wait_ms=0.2) as broker:
            return await run_open_loop(
                broker_targets(broker), compiled.num_vertices,
                rps=3000.0, total_requests=120, seed=5)

    report = run(main())
    assert report.requests == 120
    assert report.errors == 0
    record = report.to_dict()
    assert REPORT_SCHEMA <= set(record)
    assert record["target_rps"] == 3000.0
    # arrivals are externally paced: the run cannot finish faster than
    # the schedule's last arrival
    assert report.duration_seconds >= 120 / 3000.0 * 0.2


def test_estimate_op(estimation):
    async def main():
        async with RequestBroker(estimator=estimation, max_batch=32,
                                 max_wait_ms=0.2) as broker:
            return await run_closed_loop(
                broker_targets(broker), estimation.num_vertices,
                clients=4, requests_per_client=10, op="estimate",
                seed=2)

    report = run(main())
    assert report.requests == 40 and report.errors == 0
    assert report.op == "estimate"


def test_tcp_targets_against_live_server(compiled, estimation):
    """The loadgen drives a real server over sockets — the CI smoke
    path in miniature."""
    async def main():
        broker = RequestBroker(router=compiled, estimator=estimation,
                               max_batch=32, max_wait_ms=0.2)
        async with TrafficServer(broker, port=0) as server:
            report = await run_closed_loop(
                tcp_targets(port=server.port), compiled.num_vertices,
                clients=4, requests_per_client=10, seed=9)
        return report

    report = run(main())
    assert report.requests == 40
    assert report.errors == 0

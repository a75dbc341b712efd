"""Traffic load generator: open-loop and closed-loop drivers.

Benchmarking a serving front-end honestly needs *both* classic load
shapes:

* **closed-loop** — N concurrent clients, each issuing its next
  request only after the previous one returns (optionally after a
  think time).  Throughput is the system's self-paced capacity at that
  concurrency; latency can never explode because arrival slows with
  the server.
* **open-loop** — requests arrive by an external Poisson process at a
  target RPS regardless of completions, the shape real user traffic
  has.  Latency percentiles under open-loop load are the honest ones:
  queueing delay shows up instead of being absorbed by the arrival
  process.

Both modes draw their query pairs from seeded **pair mixes**
(:data:`PAIR_MIXES`): ``uniform`` over all pairs, ``hotspot`` with
Zipf-distributed sources (a few talkers dominate, so one fused window
repeats sources and pairs), and ``repeated`` cycling a small working
set (cache-friendly; stresses coalescing dedup-free fast paths).
Seeded, so every run replays the same request sequence.

Targets are duck-typed: anything with ``route_batch`` /
``estimate_batch`` coroutines — an in-process
:class:`~repro.server.broker.RequestBroker` or a
:class:`~repro.server.tcp.TrafficClient` per simulated client.  The
module is also runnable against a live server::

    python -m repro.server.loadgen --host 127.0.0.1 --port 8642 \\
        --mode closed --clients 16 --requests 50 --out report.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from dataclasses import field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dataclass import dataclass
from ..exceptions import ParameterError
from ..telemetry.registry import MetricsRegistry
from .metrics import LatencyRecorder

#: Series the load generator registers — pinned by a regression test
#: so every report prints identical names (they all read the same
#: shared registry).
LOADGEN_SERIES = ("repro_loadgen_requests_total",
                  "repro_loadgen_latency_seconds")

#: Zipf exponent for the hotspot mix (s=1.1: heavy but not degenerate).
HOTSPOT_EXPONENT = 1.1

#: Working-set size of the repeated mix.
REPEATED_POOL = 32


# ----------------------------------------------------------------------
# Pair mixes
# ----------------------------------------------------------------------
def mix_uniform(n: int, rng: random.Random
                ) -> Callable[[], Tuple[int, int]]:
    """Sources and targets uniform over ``[0, n)``."""
    def draw() -> Tuple[int, int]:
        return rng.randrange(n), rng.randrange(n)
    return draw


def mix_hotspot(n: int, rng: random.Random
                ) -> Callable[[], Tuple[int, int]]:
    """Zipf-distributed sources (rank ``r`` with weight ``1/r^s``) over
    a seeded vertex permutation, uniform targets — per-user burst
    traffic where a few sources dominate."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    weights = [1.0 / (r + 1) ** HOTSPOT_EXPONENT for r in range(n)]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)

    def draw() -> Tuple[int, int]:
        x = rng.random() * acc
        # binary search over the cumulative weights
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return ranks[lo], rng.randrange(n)
    return draw


def mix_repeated(n: int, rng: random.Random
                 ) -> Callable[[], Tuple[int, int]]:
    """Cycle a small seeded working set of pairs — the cache-friendly
    extreme (duplicate pairs inside one coalescing window are common)."""
    pool = [(rng.randrange(n), rng.randrange(n))
            for _ in range(min(REPEATED_POOL, max(1, n)))]

    def draw() -> Tuple[int, int]:
        return pool[rng.randrange(len(pool))]
    return draw


#: Mix name -> factory(n, rng) -> draw().
PAIR_MIXES: Dict[str, Callable] = {
    "uniform": mix_uniform,
    "hotspot": mix_hotspot,
    "repeated": mix_repeated,
}


def make_mix(name: str, n: int, seed: int) -> Callable[[], Tuple[int, int]]:
    try:
        factory = PAIR_MIXES[name]
    except KeyError:
        raise ParameterError(
            f"unknown pair mix {name!r}; choose from "
            f"{sorted(PAIR_MIXES)}") from None
    return factory(n, random.Random(seed))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """One load run, JSON-able via :meth:`to_dict`."""

    mode: str                  #: "closed" or "open"
    op: str                    #: "route" or "estimate"
    mix: str
    seed: int
    requests: int = 0
    errors: int = 0
    duration_seconds: float = 0.0
    achieved_rps: float = 0.0
    target_rps: Optional[float] = None   #: open-loop only
    clients: Optional[int] = None        #: closed-loop only
    latency: Dict = field(default_factory=dict)
    #: The registry the run reported into (not serialized).
    registry: Optional[MetricsRegistry] = None

    def to_dict(self) -> Dict:
        out = {
            "mode": self.mode,
            "op": self.op,
            "mix": self.mix,
            "seed": self.seed,
            "requests": self.requests,
            "errors": self.errors,
            "duration_seconds": round(self.duration_seconds, 6),
            "achieved_rps": round(self.achieved_rps, 1),
            "latency": self.latency,
        }
        if self.target_rps is not None:
            out["target_rps"] = self.target_rps
        if self.clients is not None:
            out["clients"] = self.clients
        return out

    def format(self) -> str:
        lat = self.latency
        shape = (f"{self.clients} clients" if self.mode == "closed"
                 else f"{self.target_rps} rps target")
        return (f"[{self.mode}/{self.op}/{self.mix}] {shape}: "
                f"{self.requests} reqs in "
                f"{self.duration_seconds:.2f}s = "
                f"{self.achieved_rps:.0f} rps, p50 "
                f"{lat.get('p50_ms', 0):.2f}ms p95 "
                f"{lat.get('p95_ms', 0):.2f}ms p99 "
                f"{lat.get('p99_ms', 0):.2f}ms "
                f"({self.errors} errors)")


def _instruments(registry: Optional[MetricsRegistry], mode: str,
                 op: str, mix: str):
    """Loadgen telemetry on a shared (or fresh) registry.

    Returns ``(registry, recorder, ok, err)``: the recorder mirrors
    into ``repro_loadgen_latency_seconds`` and the counters are the
    ``outcome``-labeled children of ``repro_loadgen_requests_total`` —
    the exact series names in :data:`LOADGEN_SERIES`.
    """
    registry = registry if registry is not None else MetricsRegistry()
    requests = registry.counter(
        LOADGEN_SERIES[0], "load-generator requests by outcome",
        labelnames=("mode", "op", "mix", "outcome"))
    latency = registry.histogram(
        LOADGEN_SERIES[1], "load-generator request latency",
        labelnames=("mode", "op", "mix"))
    recorder = LatencyRecorder(
        instrument=latency.labels(mode=mode, op=op, mix=mix))
    ok = requests.labels(mode=mode, op=op, mix=mix, outcome="ok")
    err = requests.labels(mode=mode, op=op, mix=mix, outcome="error")
    return registry, recorder, ok, err


async def _issue(target, op: str, pair: Tuple[int, int],
                 recorder: LatencyRecorder, clock) -> bool:
    """One request round-trip; records latency, returns success."""
    start = clock()
    if op == "route":
        await target.route_batch([pair])
    else:
        await target.estimate_batch([pair])
    recorder.observe(clock() - start)
    return True


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
async def run_closed_loop(target_factory, n: int, *,
                          clients: int = 16,
                          requests_per_client: int = 100,
                          op: str = "route", mix: str = "uniform",
                          seed: int = 0, think_ms: float = 0.0,
                          batch_size: int = 1,
                          registry: Optional[MetricsRegistry] = None
                          ) -> LoadReport:
    """N self-paced clients, each issuing ``requests_per_client``
    requests of ``batch_size`` pairs with ``think_ms`` pause between.

    ``target_factory`` is an async callable returning a per-client
    target (e.g. a fresh :class:`TrafficClient`, or the shared broker
    wrapped so ``aclose`` is a no-op).  Pass ``registry`` to report
    through a shared telemetry registry (series names in
    :data:`LOADGEN_SERIES`); a private one is created otherwise and
    returned on the report.
    """
    registry, recorder, ok_count, err_count = _instruments(
        registry, "closed", op, mix)
    errors = 0
    loop = asyncio.get_running_loop()
    clock = loop.time

    async def one_client(client_id: int) -> int:
        nonlocal errors
        draw = make_mix(mix, n, seed * 100003 + client_id)
        target = await target_factory()
        think = think_ms / 1000.0
        done = 0
        try:
            for _ in range(requests_per_client):
                pairs = [draw() for _ in range(batch_size)]
                start = clock()
                try:
                    if op == "route":
                        await target.route_batch(pairs)
                    else:
                        await target.estimate_batch(pairs)
                    recorder.observe(clock() - start)
                    ok_count.inc()
                    done += 1
                except Exception:
                    err_count.inc()
                    errors += 1
                if think:
                    await asyncio.sleep(think)
        finally:
            aclose = getattr(target, "aclose", None)
            if aclose is not None:
                await aclose()
        return done

    start = clock()
    counts = await asyncio.gather(
        *(one_client(c) for c in range(clients)))
    elapsed = max(clock() - start, 1e-9)
    total = sum(counts)
    return LoadReport(
        mode="closed", op=op, mix=mix, seed=seed, clients=clients,
        requests=total, errors=errors, duration_seconds=elapsed,
        achieved_rps=total / elapsed, latency=recorder.summary(),
        registry=registry)


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
async def run_open_loop(target_factory, n: int, *,
                        rps: float = 500.0,
                        total_requests: int = 1000,
                        op: str = "route", mix: str = "uniform",
                        seed: int = 0, connections: int = 4,
                        registry: Optional[MetricsRegistry] = None
                        ) -> LoadReport:
    """Poisson arrivals at ``rps``: inter-arrival gaps are seeded
    ``Expovariate(rps)`` draws, and every arrival fires as its own task
    whether or not earlier ones finished — queueing delay is *in* the
    measured latency, which is the point of open-loop load.

    ``connections`` targets are opened up front and arrivals round-robin
    over them (one multiplexed connection would serialize at the
    writer; per-arrival connections would measure connect cost).
    ``registry`` works as in :func:`run_closed_loop`.
    """
    registry, recorder, ok_count, err_count = _instruments(
        registry, "open", op, mix)
    errors = 0
    loop = asyncio.get_running_loop()
    clock = loop.time
    arrival_rng = random.Random(seed ^ 0x5EED)
    draw = make_mix(mix, n, seed)
    targets = [await target_factory() for _ in range(connections)]
    tasks: List[asyncio.Task] = []

    async def fire(target, pair) -> None:
        nonlocal errors
        try:
            await _issue(target, op, pair, recorder, clock)
            ok_count.inc()
        except Exception:
            err_count.inc()
            errors += 1

    start = clock()
    next_at = start
    try:
        for i in range(total_requests):
            next_at += arrival_rng.expovariate(rps)
            delay = next_at - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(
                fire(targets[i % connections], draw())))
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        for target in targets:
            aclose = getattr(target, "aclose", None)
            if aclose is not None:
                await aclose()
    elapsed = max(clock() - start, 1e-9)
    done = total_requests - errors
    return LoadReport(
        mode="open", op=op, mix=mix, seed=seed, target_rps=rps,
        requests=done, errors=errors, duration_seconds=elapsed,
        achieved_rps=done / elapsed, latency=recorder.summary(),
        registry=registry)


# ----------------------------------------------------------------------
# Target factories
# ----------------------------------------------------------------------
def broker_targets(broker):
    """Share one in-process broker across all simulated clients."""
    class _Shared:
        route_batch = staticmethod(broker.route_batch)
        estimate_batch = staticmethod(broker.estimate_batch)

    async def factory():
        return _Shared()
    return factory


def tcp_targets(host: str = "127.0.0.1", port: int = 0,
                unix_path: Optional[str] = None):
    """One fresh protocol connection per simulated client."""
    from .tcp import TrafficClient

    async def factory():
        return await TrafficClient.connect(host, port, unix_path)
    return factory


# ----------------------------------------------------------------------
# CLI: drive a live server
# ----------------------------------------------------------------------
async def _main_async(args) -> Dict:
    from .tcp import TrafficClient

    factory = tcp_targets(args.host, args.port, args.unix)
    probe = await factory()
    info = await probe.info()
    await probe.aclose()
    n_key = f"{'routing' if args.op == 'route' else 'estimation'}.n"
    if n_key not in info:
        raise ParameterError(
            f"server does not serve {args.op!r} (INFO: {info})")
    n = int(info[n_key])
    registry = MetricsRegistry()
    if args.mode == "closed":
        report = await run_closed_loop(
            factory, n, clients=args.clients,
            requests_per_client=args.requests, op=args.op,
            mix=args.mix, seed=args.seed, think_ms=args.think_ms,
            batch_size=args.batch_size, registry=registry)
    else:
        report = await run_open_loop(
            factory, n, rps=args.rps, total_requests=args.requests,
            op=args.op, mix=args.mix, seed=args.seed,
            connections=args.connections, registry=registry)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive a repro traffic server with synthetic load")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--unix", default=None,
                        help="unix socket path (overrides host/port)")
    parser.add_argument("--mode", choices=["closed", "open"],
                        default="closed")
    parser.add_argument("--op", choices=["route", "estimate"],
                        default="route")
    parser.add_argument("--mix", choices=sorted(PAIR_MIXES),
                        default="uniform")
    parser.add_argument("--clients", type=int, default=16,
                        help="closed-loop concurrent clients")
    parser.add_argument("--requests", type=int, default=100,
                        help="per-client (closed) or total (open)")
    parser.add_argument("--rps", type=float, default=500.0,
                        help="open-loop target arrival rate")
    parser.add_argument("--connections", type=int, default=4,
                        help="open-loop connection pool size")
    parser.add_argument("--think-ms", type=float, default=0.0)
    parser.add_argument("--batch-size", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--print-metrics", action="store_true",
                        help="also print the run's telemetry series "
                             "(exposition text, same names the "
                             "benchmarks report)")
    args = parser.parse_args(argv)
    report = asyncio.run(_main_async(args))
    record = report.to_dict()
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    print(json.dumps(record, indent=2))
    if args.print_metrics and report.registry is not None:
        print(report.registry.render(), end="")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

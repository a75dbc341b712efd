"""One run of one workload: set-up, interleaved timed repeats, checks.

A run drives the program through its whole lifecycle and nothing but
its public API (``SchemePipeline``, ``IncrementalBuilder`` /
``TopologyFeed`` / ``ArtifactRegistry``, ``TrafficServer`` in a child
process / ``TrafficClient``): build -> compile -> change-to-served ->
TCP serve.  Every timed end-to-end metric is sampled once per *round*,
rounds back to back, so a slow stretch of the machine cannot land on one
metric alone; each sample runs on the core :mod:`quiet` found quietest;
the reported value is the fast end of the samples (lower octile of
times, upper octile of rates) because the noise only adds time, and
CPU-bound results are scaled by the run's floor of the reference kernel
(README.md, "The estimator, and why").

What ``--seed`` drives and what it does not: the *traffic* (the request
stream, the verification pairs) comes from the seed.  The graph, the
construction seed, the oracle sources and the churned edge are part of
the workload's definition, like ``n``: measured here, build time moves
10-20% between random graphs of one size and a rebuild 2x between
edges, far more than any bound, and ``rounds`` / table words / label
words / stretch are only exact counts on a pinned graph.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from quiet import KERNEL_REFERENCE_S, QuietCores, pin_process
from server_proc import MAX_WAIT_MS, ServerChild
from spans import SpanLog

from repro.core import DenseRoutingPlane
from repro.dynamic import ArtifactRegistry, IncrementalBuilder, TopologyFeed
from repro.graphs.shortest_paths import dijkstra_distances
from repro.pipeline import SchemePipeline, make_workload
from repro.server import TrafficClient
from repro.server.loadgen import PAIR_MIXES

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: Seed of the graph generator and of every sampling step of the
#: construction — part of the workload, not of ``--seed`` (see above).
GRAPH_SEED = 7

#: Distinct pairs in the request pool the segments cycle through.
POOL_PAIRS = 32768

#: Exact-distance oracle: Dijkstra from this many evenly spaced sources
#: to every vertex.
ORACLE_SOURCES = 32

#: Pairs checked over TCP against the new generation after every swap.
VERIFY_PAIRS = 256

#: Requests in flight on the second connection across every swap.
TRICKLE_INFLIGHT = 4

#: The churn series flaps one pinned edge between its weight and this
#: much more: spike, restore, spike again.  The builder keeps one cached
#: build (``cache_size=1``), so neither state is ever a ``reuse`` hit
#: timing a dict lookup, and every spike (every restore) is the same
#: work.  A monotone walk is not: measured here, its dirty set shrinks
#: step by step (114 -> 27 rebuilt sources over 12 steps) as the edge
#: leaves the shortest paths, so its samples trend instead of repeating.
FLAP_DELTA = 25

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Compiles timed per round (see ``timed_compiles``).
COMPILE_REPEATS = 3

#: A run always makes at least this many rounds, however slow.
MIN_ROUNDS = 4

#: Length of one saturated segment; an unloaded one is half of it.
SEGMENT_S = 0.3

#: A saturated segment is cut into buckets this long, each a sample of
#: ``served_pairs_s`` (see ``bucket_rates``).
BUCKET_S = 0.05

#: Share of ``--seconds`` a run may spend waiting for a quiet core.
QUIET_WAIT_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    family: str       #: ``repro.pipeline.WORKLOADS`` key
    n: int
    k: int
    batch: int        #: pairs per request
    mix: str          #: ``repro.server.loadgen.PAIR_MIXES`` key
    inflight: int     #: per connection, saturated: enough that the
                      #: broker's 128-pair windows fill without its timer
    open_rate: int    #: requests/s of the traced open-loop probe


#: Why each was chosen is recorded in BENCHMARK.json (and README.md).
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("build-random-k3", "random", 300, 3, 1, "uniform", 64, 2000),
    Workload("churn-grid-k2", "grid", 256, 2, 1, "uniform", 64, 2000),
    Workload("serve-single-uniform", "random", 200, 3, 1, "uniform", 64,
             2000),
    Workload("serve-batch-hotspot", "random", 200, 3, 64, "hotspot", 4,
             200),
)}


@dataclass
class Plan:
    measure_s: float      #: rounds start while this much has not passed
    rounds: Optional[int]  #: exactly this many instead (the smoke test)
    segment_s: float      #: saturated segment; unloaded is half of it
    n: int                #: requested vertices (the smoke test shrinks it)
    trace: bool


class Ops:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 10:
            self.reasons.append(f"{what} ({failed}/{attempted})")


def floor_of(values: List[float]) -> float:
    """Lower octile: with a dozen samples, between the fastest and the
    second fastest.  The noise only ever adds time, so the fast end of
    the samples is the part of them that repeats."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=8)[0]


def ceiling_of(values: List[float]) -> float:
    """Upper octile, for rates: the mirror image of :func:`floor_of`,
    and the same share of the samples as the kernel's floor takes."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=8)[6]


def flap_estimate(samples: "Samples") -> float:
    """Spikes and restores are different work (a restore dirties more
    sources), so each direction gets its own floor and the metric is
    their mean: one change of a spike-and-restore incident."""
    by_direction: Dict[bool, List[float]] = {}
    for seconds, detail in zip(samples.change_to_served_s,
                               samples.rebuilds):
        by_direction.setdefault(detail["spike"], []).append(seconds)
    return statistics.mean(floor_of(values)
                           for values in by_direction.values())


def write_atomically(path: Path, text: str) -> None:
    """Runs of one workload may end together (the smoke test starts
    several); each replaces the file whole."""
    scratch = path.with_name(f"{path.name}.{os.getpid()}")
    scratch.write_text(text)
    os.replace(scratch, path)


def artifact_digest(artifact) -> Tuple[str, int]:
    """``(sha256 over header and payload, payload bytes)`` — the digests
    are equal iff the saved files are."""
    bufs = artifact.export_buffers()
    digest = hashlib.sha256(repr((bufs.meta, bufs.manifest)).encode())
    digest.update(bufs.payload)
    return digest.hexdigest(), len(bufs.payload)


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    graph: object
    requests: List[List[Tuple[int, int]]]
    verify_pairs: List[Tuple[int, int]]
    oracle: Dict[int, List[float]]     #: source -> exact distances
    generate_s: float


def make_inputs(wl: Workload, n: int, seed: int, spans: SpanLog) -> Inputs:
    with spans.span("graphs.generate"):
        start = time.perf_counter()
        graph = make_workload(wl.family, n, GRAPH_SEED).graph
        generate_s = time.perf_counter() - start
    nv = graph.num_vertices
    with spans.span("loadgen.make_requests"):
        # The mix's own set-up (which sources are hot) is the
        # workload's, drawn from GRAPH_SEED; the arrivals are --seed's.
        # Measured: with the hot set drawn from --seed too, the hotspot
        # workload's rate moved 65k -> 72k pairs/s between seeds.
        rng = random.Random(GRAPH_SEED)
        draw = PAIR_MIXES[wl.mix](nv, rng)
        rng.seed(seed)
        requests = [[draw() for _ in range(wl.batch)]
                    for _ in range(max(8, POOL_PAIRS // wl.batch))]
        rng = random.Random(seed + 1)
        verify_pairs = [(rng.randrange(nv), rng.randrange(nv))
                        for _ in range(VERIFY_PAIRS)]
    with spans.span("graphs.oracle"):
        step = max(1, nv // ORACLE_SOURCES)
        oracle = {s: dijkstra_distances(graph, s)
                  for s in list(range(0, nv, step))[:ORACLE_SOURCES]}
    return Inputs(graph, requests, verify_pairs, oracle, generate_s)


@dataclass
class Rig:
    """Everything one set-up leaves standing."""

    inputs: Inputs
    registry: ArtifactRegistry
    generation: int               #: registry generation being served
    child: ServerChild
    clients: List[TrafficClient]
    workdir: Path


async def set_up(wl: Workload, plan: Plan, seed: int, workdir: Path,
                 server_cpu: int, spans: SpanLog) -> Rig:
    """Inputs, one scratch build + compile, publish, server, clients."""
    inputs = make_inputs(wl, plan.n, seed, spans)
    pipeline = (SchemePipeline().workload(wl.family, plan.n)
                .params(wl.k).seed(GRAPH_SEED))
    with spans.span("core.build"):
        pipeline.build()
    with spans.span("core.compile"):
        dense = pipeline.compile("dense")
    workdir.mkdir(parents=True)
    registry = ArtifactRegistry(workdir / "registry")
    with spans.span("dynamic.publish"):
        record = registry.publish(dense)
    child = ServerChild(str(workdir / "server.stderr"), server_cpu)
    try:
        with spans.span("server.spawn_start"):
            port = await child.call("start", str(registry.root),
                                    record.generation)
        clients = []
        with spans.span("client.connect"):
            for _ in range(2):
                clients.append(await TrafficClient.connect(port=port))
            await clients[0].ping()
    except BaseException:
        child.kill()
        raise
    return Rig(inputs, registry, record.generation, child, clients,
               workdir)


async def tear_down(rig: Rig, ops: Ops) -> Tuple[int, dict]:
    """Close clients *first* (see README: a shutdown with connections
    open prints CancelledError tracebacks from ``tcp.py``), stop the
    child, check it left nothing behind.  Returns its stderr line count
    and last usage report."""
    for client in rig.clients:
        await client.aclose()
    await asyncio.sleep(0.05)     # let the server finish its handlers
    usage = await rig.child.call("report")
    exit_code = await rig.child.stop()
    stderr_lines = rig.child.stderr_lines()
    ops.check(exit_code == 0, f"server child exit code {exit_code}")
    shutil.rmtree(rig.workdir)
    return stderr_lines, usage


# ----------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------
@dataclass
class Samples:
    build_s: List[float] = field(default_factory=list)
    compile_flat_s: List[float] = field(default_factory=list)
    compile_dense_s: List[float] = field(default_factory=list)
    change_to_served_s: List[float] = field(default_factory=list)
    served_pairs_s: List[float] = field(default_factory=list)
    unloaded_p50_ms: List[float] = field(default_factory=list)
    saturated_latencies_s: List[float] = field(default_factory=list)
    ledgers: List[Dict[str, float]] = field(default_factory=list)
    rebuilds: List[dict] = field(default_factory=list)
    noisy: int = 0                 #: samples taken with no quiet core
    server_cpu_s: float = 0.0      #: over the saturated segments
    loadgen_cpu_s: float = 0.0
    saturated_pairs: int = 0

    @property
    def compile_s(self) -> List[float]:
        return [flat_s + dense_s for flat_s, dense_s
                in zip(self.compile_flat_s, self.compile_dense_s)]


@dataclass
class Reference:
    """What every repeat build must reproduce exactly."""

    rounds: int
    table_words_max: int
    label_words_max: int
    flat_digest: str
    dense_digest: str
    flat_bytes: int
    dense_bytes: int
    round_bound: float
    stretch_max: float = 0.0


def timed_build(wl: Workload, plan: Plan, spans: SpanLog):
    pipeline = (SchemePipeline().workload(wl.family, plan.n)
                .params(wl.k).seed(GRAPH_SEED))
    with spans.span("core.build") as sp:
        start = time.perf_counter()
        report = pipeline.build()
        build_s = time.perf_counter() - start
    if sp is not None:
        # the program's own phase clock, replayed as child spans
        at = sp["start"]
        for phase, seconds in \
                report.scheme.ledger.seconds_breakdown().items():
            spans.add(f"ledger:{phase}", at, at + seconds, sp["id"])
            at += seconds
    return pipeline, report, build_s


def timed_compiles(pipeline: SchemePipeline, report, spans: SpanLog):
    """``compile("flat")`` + ``compile("dense")`` on the build, then
    :data:`COMPILE_REPEATS` - 1 more of the two calls the pipeline makes
    for them (it caches, so it cannot be asked twice): a compile is a
    tenth of a build, and one sample a round left ``compile_s`` twice as
    noisy as ``build_s``.  Returns the pipeline's artifacts and
    ``[(flat_s, dense_s), ...]``."""
    timings = []
    with spans.span("core.compile"):
        start = time.perf_counter()
        with spans.span("core.compile_flat"):
            flat = pipeline.compile("flat")
        mid = time.perf_counter()
        with spans.span("core.compile_dense"):
            dense = pipeline.compile("dense")
        timings.append((mid - start, time.perf_counter() - mid))
    for _ in range(COMPILE_REPEATS - 1):
        with spans.span("core.compile"):
            start = time.perf_counter()
            with spans.span("core.compile_flat"):
                again = report.scheme.compile()
            mid = time.perf_counter()
            with spans.span("core.compile_dense"):
                DenseRoutingPlane.from_compiled(again)
            timings.append((mid - start, time.perf_counter() - mid))
    return flat, dense, timings


def check_build(report, flat, dense, reference: Optional[Reference],
                ops: Ops) -> Reference:
    """Paper bounds on this build, and equality with the first one."""
    construction = report.construction
    params = report.params
    ops.check(construction.max_table_words
              <= params.table_size_bound_words,
              f"table words {construction.max_table_words} over bound")
    ops.check(construction.max_label_words
              <= params.label_size_bound_words,
              f"label words {construction.max_label_words} over bound")
    flat_digest, flat_bytes = artifact_digest(flat)
    dense_digest, dense_bytes = artifact_digest(dense)
    mine = Reference(
        rounds=report.rounds,
        table_words_max=construction.max_table_words,
        label_words_max=construction.max_label_words,
        flat_digest=flat_digest, dense_digest=dense_digest,
        flat_bytes=flat_bytes, dense_bytes=dense_bytes,
        round_bound=construction.paper_round_bound)
    if reference is None:
        return mine
    ops.check(mine.rounds == reference.rounds,
              f"rounds {mine.rounds} != first build's {reference.rounds}")
    ops.check(mine.flat_digest == reference.flat_digest
              and mine.dense_digest == reference.dense_digest,
              "artifact bytes differ between repeat builds")
    return reference


def measure_stretch(dense, inputs: Inputs, bound: float, ops: Ops
                    ) -> float:
    """Max route weight over exact distance on the oracle's pairs."""
    pairs = [(s, t) for s, dist in inputs.oracle.items()
             for t in range(len(dist)) if t != s]
    worst = 1.0
    for (s, t), route in zip(pairs, dense.route_many(pairs)):
        worst = max(worst, route.weight / inputs.oracle[s][t])
    ops.check(worst <= bound, f"stretch {worst:.4f} over bound {bound:.4f}")
    return worst


class RequestStream:
    """Cycles the seeded request pool; every segment continues where
    the last one stopped."""

    def __init__(self, requests) -> None:
        self._requests = requests
        self._next = 0

    def take(self):
        request = self._requests[self._next]
        self._next = (self._next + 1) % len(self._requests)
        return request


async def closed_loop(clients, stream: RequestStream, inflight: int,
                      duration_s: float, ops: Ops, spans: SpanLog,
                      name: str, keep: Optional[list] = None,
                      trace_requests: bool = True,
                      stamps: Optional[list] = None):
    """``inflight`` requests per connection for ``duration_s``; returns
    ``(pairs_answered, elapsed_s, latencies_s)``.  ``keep`` collects
    ``(request, routes)`` for a later field-for-field comparison,
    ``stamps`` when each answer arrived, in seconds from the start."""
    latencies: List[float] = []
    pairs_done = 0
    failed = 0
    with spans.span(name, inflight=inflight * len(clients)) as sp:
        parent = sp["id"] if sp is not None and trace_requests else None
        start = time.perf_counter()
        deadline = start + duration_s

        async def worker(client) -> None:
            nonlocal pairs_done, failed
            while True:
                sent = time.perf_counter()
                if sent >= deadline:
                    return
                request = stream.take()
                try:
                    routes = await client.route_batch(request)
                except Exception:     # typed ERR or transport error
                    failed += 1
                    continue
                done = time.perf_counter()
                latencies.append(done - sent)
                pairs_done += len(request)
                if stamps is not None:
                    stamps.append(done - start)
                if keep is not None:
                    keep.append((request, routes))
                # every 16th request of a traced segment gets a span
                if parent is not None and len(latencies) % 16 == 0:
                    spans.add("client.route_batch", sent, done, parent)

        await asyncio.gather(*(worker(client) for client in clients
                               for _ in range(inflight)))
        elapsed = time.perf_counter() - start
    ops.count(len(latencies) + failed, failed, f"{name} requests")
    return pairs_done, elapsed, latencies


@dataclass
class Churn:
    """The live series: one builder, one pinned in-support edge."""

    builder: IncrementalBuilder
    edge: Tuple[int, int]
    base_weight: int
    spiked: bool
    initial_build_s: float
    broker_generation: int       #: as ``INFO`` reports it
    compiled: object             #: flat scheme of the served generation
    dense: object


def start_churn(wl: Workload, rig: Rig, reference: Reference, ops: Ops,
                spans: SpanLog) -> Churn:
    """Recorded initial build (in no end-to-end metric) and the edge."""
    feed = TopologyFeed(rig.inputs.graph.copy())
    builder = IncrementalBuilder(feed, k=wl.k, seed=GRAPH_SEED,
                                 cache_size=1)
    with spans.span("dynamic.initial_build"):
        initial = builder.build()
    ops.check(artifact_digest(initial.dense)[0] == reference.dense_digest,
              "incremental initial build differs from the scratch build")
    # The first edge, in a pinned shuffle, that the recorded transcript
    # does not certify as unused: its flap takes the splice path.  The
    # spike must stay under the graph's maximum weight, which pins the
    # detection scale grids.
    graph = feed.graph
    ceiling = graph.max_weight() - FLAP_DELTA
    edges = sorted(graph.edges())
    random.Random(GRAPH_SEED).shuffle(edges)
    recorder = builder.current.recorder
    u, v, w = next(
        ((u, v, w) for u, v, w in edges if w <= ceiling
         and not recorder.certifies_increase(u, v, w, w + FLAP_DELTA)),
        edges[0])
    return Churn(builder, (u, v), w, False, initial.duration_s, 0,
                 initial.compiled, initial.dense)


async def churn_step(rig: Rig, churn: Churn, stream: RequestStream,
                     ops: Ops, spans: SpanLog) -> Tuple[float, dict]:
    """One weight change, timed from the mutation to the first route
    answered by the new generation; then the correctness checks."""
    trickle_client = rig.clients[1]
    trickle: List[Tuple[list, list]] = []
    stop = False
    trickle_failed = 0

    async def trickle_worker() -> None:
        nonlocal trickle_failed
        while not stop:
            request = stream.take()
            try:
                trickle.append(
                    (request, await trickle_client.route_batch(request)))
            except Exception:
                trickle_failed += 1

    workers = [asyncio.ensure_future(trickle_worker())
               for _ in range(TRICKLE_INFLIGHT)]
    await asyncio.sleep(0)          # the trickle is in flight
    old_dense = churn.dense
    churn.spiked = not churn.spiked
    weight = churn.base_weight + (FLAP_DELTA if churn.spiked else 0)
    with spans.span("churn.step") as sp:
        start = time.perf_counter()
        churn.builder.feed.update_edge_weight(*churn.edge, weight)
        with spans.span("dynamic.rebuild"):
            report = churn.builder.rebuild()
            dense = report.dense
        rebuilt = time.perf_counter()
        with spans.span("dynamic.publish"):
            record = rig.registry.publish(
                dense, fingerprint=report.fingerprint)
        published = time.perf_counter()
        load_s, swap_s = await rig.child.call("swap", record.generation)
        if sp is not None:
            spans.add("server.load_verify", published,
                      published + load_s, sp["id"])
            spans.add("server.swap", published + load_s,
                      published + load_s + swap_s, sp["id"])
        expected = churn.broker_generation + 1
        with spans.span("client.info"):
            while int((await rig.clients[0].info())["generation"]) \
                    != expected:
                await asyncio.sleep(0)
        probe = rig.inputs.verify_pairs[0]
        with spans.span("client.route"):
            first = await rig.clients[0].route(*probe)
        served = time.perf_counter()
    stop = True
    await asyncio.gather(*workers)
    rig.registry.retire(rig.generation)
    rig.generation = record.generation
    churn.broker_generation = expected
    churn.compiled, churn.dense = report.compiled, dense

    # after the swap: the new generation's compiled scheme, exactly
    verify = rig.inputs.verify_pairs
    answers = [first]
    for at in range(0, len(verify), 64):
        answers.extend(await rig.clients[0].route_batch(verify[at:at + 64]))
    wanted = report.compiled.route_many([probe] + verify)
    wrong = sum(1 for got, want in zip(answers, wanted) if got != want)
    ops.count(len(wanted), wrong, "post-swap answers")
    # across the swap: every answer is the old or the new generation's
    pairs = [pair for request, _ in trickle for pair in request]
    got = [route for _, routes in trickle for route in routes]
    old = old_dense.route_many(pairs) if pairs else []
    new = dense.route_many(pairs) if pairs else []
    wrong = sum(1 for g, a, b in zip(got, old, new) if g != a and g != b)
    ops.count(len(trickle) + trickle_failed, trickle_failed,
              "trickle requests across the swap")
    ops.count(len(got), wrong, "trickle answers across the swap")
    sources = report.reused_clusters + report.rebuilt_clusters
    return served - start, {
        "strategy": report.strategy,
        "spike": churn.spiked,
        "rebuild_s": rebuilt - start,
        "publish_s": published - rebuilt,
        "load_verify_s": load_s,
        "swap_s": swap_s,
        "reused_share": report.reused_clusters / sources if sources
        else 0.0}


async def verify_segment(rig: Rig, wl: Workload, churn: Churn,
                         stream: RequestStream, plan: Plan, ops: Ops,
                         spans: SpanLog) -> None:
    """Every answer of one full saturated segment, field for field,
    against in-process ``route_many`` on the served generation."""
    kept: List[Tuple[list, list]] = []
    await closed_loop(rig.clients, stream, wl.inflight, plan.segment_s / 2,
                      ops, spans, "serve.verify", keep=kept)
    pairs = [pair for request, _ in kept for pair in request]
    got = [route for _, routes in kept for route in routes]
    wanted = churn.compiled.route_many(pairs)
    wrong = sum(1 for g, w in zip(got, wanted) if g != w)
    ops.count(len(got), wrong, "TCP answers vs in-process route_many")


def bucket_rates(stamps: List[float], elapsed_s: float, batch: int
                 ) -> List[float]:
    """Pairs per second in each whole :data:`BUCKET_S` of a saturated
    segment but the first (the pipeline is still filling).  A segment
    is cut up because the machine's slow stretches can be shorter than
    it: the reference kernel is 10 ms and finds the gaps between them, a
    0.3 s segment straddles them, and the speed correction then divides
    a rate the fast state never set by a kernel time it did."""
    counts = [0] * int(elapsed_s / BUCKET_S)
    for stamp in stamps:
        at = int(stamp / BUCKET_S)
        if at < len(counts):
            counts[at] += 1
    rates = [count * batch / BUCKET_S for count in counts[1:]]
    return rates or [len(stamps) * batch / elapsed_s]


async def serve_segments(wl: Workload, plan: Plan, rig: Rig,
                         stream: RequestStream, samples: Samples, ops: Ops,
                         spans: SpanLog) -> None:
    """One saturated and one unloaded segment."""
    before = await rig.child.call("report")
    loadgen_cpu = time.process_time()
    stamps: List[float] = []
    done, elapsed, latencies = await closed_loop(
        rig.clients, stream, wl.inflight, plan.segment_s, ops, spans,
        "serve.saturated", stamps=stamps)
    samples.loadgen_cpu_s += time.process_time() - loadgen_cpu
    after = await rig.child.call("report")
    samples.server_cpu_s += after["cpu_s"] - before["cpu_s"]
    samples.saturated_pairs += done
    samples.served_pairs_s.extend(bucket_rates(stamps, elapsed, wl.batch))
    samples.saturated_latencies_s.extend(latencies)
    # One request in flight in all: with one per connection, two 64-pair
    # requests fill the broker's 128-pair window whenever they happen to
    # arrive together, and the median flips between 1 ms and 3 ms from
    # run to run.
    _, _, latencies = await closed_loop(
        rig.clients[:1], stream, 1, plan.segment_s / 2, ops, spans,
        "serve.unloaded")
    samples.unloaded_p50_ms.append(statistics.median(latencies) * 1e3)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def place(cores: QuietCores, rig: Rig, samples: Samples,
          for_server: bool = False) -> None:
    """Before a sample: the process that does the work — this one, or
    the server for the serve segments — gets the quietest core, the
    other process the other core."""
    quiet_cpu, other_cpu, quiet = cores.acquire()
    samples.noisy += not quiet
    if for_server:
        quiet_cpu, other_cpu = other_cpu, quiet_cpu
    os.sched_setaffinity(0, {quiet_cpu})
    pin_process(rig.child.process.pid, other_cpu)


def plan_for(wl: Workload, seconds: float, trace: bool,
             rounds: Optional[int], segment_s: Optional[float],
             n: Optional[int]) -> Plan:
    # the traced run spends the other half on the layer probes
    return Plan(measure_s=seconds / 2 if trace else seconds, rounds=rounds,
                segment_s=SEGMENT_S if segment_s is None else segment_s,
                n=wl.n if n is None else n, trace=trace)


async def run_workload(wl: Workload, seed: int, plan: Plan,
                       started: float, import_s: float) -> dict:
    """Returns ``{"ops", "end_to_end", "per_layer"}``; per-layer values
    beyond the free ones are only filled in on a traced run."""
    ops = Ops()
    spans = SpanLog(enabled=plan.trace, run_id=f"{wl.name}-{seed}")
    cores = QuietCores(QUIET_WAIT_SHARE * plan.measure_s)
    cores.settle()
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    rig = None
    try:
        # -- set-up, several times; the last one stays -----------------
        setup_s: List[float] = []
        generate_s: List[float] = []
        stderr_lines = 0
        for attempt in range(SETUP_REPEATS):
            if rig is not None:
                lines, _ = await tear_down(rig, ops)
                stderr_lines += lines
                rig = None
            _, other, _ = cores.acquire()
            gc.collect()
            with spans.span("setup", attempt=attempt):
                start = time.perf_counter()
                rig = await set_up(wl, plan, seed, run_dir / f"s{attempt}",
                                   other, spans)
                setup_s.append(time.perf_counter() - start)
            generate_s.append(rig.inputs.generate_s)

        samples = Samples()
        stream = RequestStream(rig.inputs.requests)
        reference = None
        churn = None
        info = await rig.clients[0].info()
        ops.check(int(info["routing.n"]) == rig.inputs.graph.num_vertices,
                  "INFO reports another vertex count")
        # warm-up: connections, broker lanes, first windows
        await closed_loop(rig.clients, stream, wl.inflight,
                          plan.segment_s / 2, ops, spans, "serve.warmup",
                          trace_requests=False)

        measure_start = time.perf_counter()
        rounds = 0
        while (rounds < plan.rounds if plan.rounds is not None
               else rounds < MIN_ROUNDS or time.perf_counter()
               - measure_start < plan.measure_s):
            rounds += 1
            with spans.span("round", index=rounds):
                place(cores, rig, samples)
                gc.collect()
                pipeline, report, build_s = timed_build(wl, plan, spans)
                samples.build_s.append(build_s)
                samples.ledgers.append(
                    report.scheme.ledger.seconds_breakdown())

                place(cores, rig, samples)
                flat, dense, timings = timed_compiles(pipeline, report,
                                                      spans)
                for flat_s, dense_s in timings:
                    samples.compile_flat_s.append(flat_s)
                    samples.compile_dense_s.append(dense_s)
                reference = check_build(report, flat, dense, reference,
                                        ops)
                if churn is None:
                    reference.stretch_max = measure_stretch(
                        dense, rig.inputs, report.params.stretch_bound,
                        ops)
                    churn = start_churn(wl, rig, reference, ops, spans)
                del pipeline, report, flat, dense

                place(cores, rig, samples)
                gc.collect()
                step_s, detail = await churn_step(rig, churn, stream, ops,
                                                  spans)
                samples.change_to_served_s.append(step_s)
                samples.rebuilds.append(detail)

                place(cores, rig, samples, for_server=True)
                await serve_segments(wl, plan, rig, stream, samples, ops,
                                     spans)
        measure_s = time.perf_counter() - measure_start

        await verify_segment(rig, wl, churn, stream, plan, ops, spans)

        layers: Dict[str, float] = {}
        notes: List[str] = []
        if plan.trace:
            from layers import probe_layers
            # the pool rung's worker inherits this process's affinity
            os.sched_setaffinity(0, cores.cpus)
            layers = await probe_layers(wl, plan, rig, churn, stream,
                                        samples, ops, spans)
            notes = layers.pop("notes")

        harness_rss_kb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        lines, usage = await tear_down(rig, ops)
        stderr_lines += lines
        rig = None
    except BaseException:
        if rig is not None:
            rig.child.kill()
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # CPU-bound results are stated for a machine whose reference kernel
    # takes KERNEL_REFERENCE_S: the run's estimate, scaled by the run's
    # floor of the kernel (see quiet.py and README).  Of the unloaded
    # latency only the part over the broker's timer is CPU-bound: an
    # unloaded request waits out its window, which no machine state
    # stretches.
    kernel_floor_s = floor_of(cores.samples)
    speed = KERNEL_REFERENCE_S / kernel_floor_s
    end_to_end = {
        "setup_s": statistics.median(setup_s) * speed,
        "build_s": floor_of(samples.build_s) * speed,
        "compile_s": floor_of(samples.compile_s) * speed,
        "change_to_served_s": flap_estimate(samples) * speed,
        "served_pairs_s": ceiling_of(samples.served_pairs_s) / speed,
        "unloaded_p50_ms": MAX_WAIT_MS + speed * (
            floor_of(samples.unloaded_p50_ms) - MAX_WAIT_MS),
        "peak_rss_mb": max(harness_rss_kb, usage["maxrss_kb"]) / 1024.0,
        "rounds": reference.rounds,
        "stretch_max": reference.stretch_max,
        "table_words_max": reference.table_words_max,
        "label_words_max": reference.label_words_max,
    }
    layers.update(ledger_layers(samples, reference))
    layers.update(dynamic_layers(samples, churn))
    layers.update({
        "graphs.generate_s": statistics.median(generate_s),
        "core.compile_flat_s": floor_of(samples.compile_flat_s),
        "core.compile_dense_s": floor_of(samples.compile_dense_s),
        "core.flat_bytes": reference.flat_bytes,
        "core.dense_bytes": reference.dense_bytes,
        "server.cpu_us_per_pair":
            samples.server_cpu_s / samples.saturated_pairs * 1e6,
        "server.loadgen_cpu_us_per_pair":
            samples.loadgen_cpu_s / samples.saturated_pairs * 1e6,
        "server.tcp_p99_ms": statistics.quantiles(
            samples.saturated_latencies_s, n=100)[98] * 1e3,
        "harness.rounds": rounds,
        "harness.noisy_samples": samples.noisy,
        "harness.speed_correction": speed,
        "harness.kernel_floor_ms": kernel_floor_s * 1e3,
        "harness.kernel_median_ms":
            statistics.median(cores.samples) * 1e3,
        "harness.quiesce_s": cores.waited_s,
        "harness.import_s": import_s,
        "harness.measure_s": measure_s,
        "harness.server_stderr_lines": stderr_lines,
        "harness.run_s": time.perf_counter() - started,
    })
    OUT_DIR.mkdir(exist_ok=True)
    if plan.trace:
        write_atomically(OUT_DIR / f"{wl.name}.spans.jsonl",
                         spans.dump())
    write_atomically(
        OUT_DIR / f"{wl.name}.samples.json",
        json.dumps({"seed": seed, "setup_s": setup_s,
                    "calib_s": cores.samples,
                    "spike": [d["spike"] for d in samples.rebuilds],
                    **{name: getattr(samples, name) for name in (
                        "build_s", "compile_s", "change_to_served_s",
                        "served_pairs_s", "unloaded_p50_ms")}}) + "\n")
    return {"ops": ops, "end_to_end": end_to_end, "per_layer": layers,
            "notes": notes}


def _phase_group(phase: str) -> str:
    if phase.startswith("clusters/"):
        return "congest.explore_s"
    if phase == "large/preprocess-detection":
        return "sketches.detect_s"
    if phase == "large/preprocess-hopset":
        return "hopsets.build_s"
    if phase.startswith("trees/"):
        return "core.trees_s"
    return "core.other_phases_s"


def ledger_layers(samples: Samples, reference: Reference
                  ) -> Dict[str, float]:
    """The program's own per-phase clock (``CostLedger``), grouped by
    the module that spends it; median over the repeat builds."""
    groups = ("congest.explore_s", "sketches.detect_s", "hopsets.build_s",
              "core.trees_s", "core.other_phases_s")
    per_build = []
    for ledger, build_s in zip(samples.ledgers, samples.build_s):
        row = dict.fromkeys(groups, 0.0)
        for phase, seconds in ledger.items():
            row[_phase_group(phase)] += seconds
        row["core.unaccounted_s"] = build_s - sum(ledger.values())
        per_build.append(row)
    out = {name: statistics.median(row[name] for row in per_build)
           for name in groups + ("core.unaccounted_s",)}
    out["congest.round_bound_ratio"] = (reference.rounds
                                        / reference.round_bound)
    return out


def dynamic_layers(samples: Samples, churn: Churn) -> Dict[str, float]:
    steps = samples.rebuilds

    def median_of(key: str) -> float:
        return statistics.median(step[key] for step in steps)

    return {
        "dynamic.initial_build_s": churn.initial_build_s,
        "dynamic.record_overhead_ratio":
            churn.initial_build_s / statistics.median(samples.build_s),
        "dynamic.rebuild_s": median_of("rebuild_s"),
        "dynamic.publish_s": median_of("publish_s"),
        "dynamic.load_verify_s": median_of("load_verify_s"),
        "dynamic.swap_s": median_of("swap_s"),
        "dynamic.reused_sources_share": median_of("reused_share"),
        "dynamic.strategy_clusters_share":
            sum(step["strategy"] == "clusters" for step in steps)
            / len(steps),
    }

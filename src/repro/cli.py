"""Command-line interface: ``python -m repro <command>``.

Commands
--------
build      Build the routing scheme on a generated workload, print the
           construction report, and optionally compile + save the
           served artifact, the dense routing plane
           (``--out scheme.cra``).
query      Load a saved artifact (dense routing or estimation) and
           answer pairs — from ``--pairs-file``, ``--pair u v`` flags,
           or stdin — without reconstructing anything.  ``--workers N``
           serves the batch from a sharded process pool; ``--out FILE``
           switches to batch-file mode and writes one tab-separated
           result per line instead of pretty-printing.
serve      Load artifacts and serve them to concurrent clients over
           TCP (or a unix socket) through the async request broker:
           micro-batch coalescing (``--max-batch``/``--max-wait-ms``),
           optional sharded pool backend (``--workers``), graceful
           SIGINT/SIGTERM shutdown, metrics snapshot on exit.
bench-traffic
           Drive a broker (in-process, over a loaded or freshly built
           artifact) with the load generator: closed-loop clients and
           open-loop Poisson arrivals, coalescing vs a
           one-dispatch-per-request baseline.
route      Build, then route one packet and print the path and stretch.
table1     Regenerate Table 1 on a workload.
estimate   Build the Theorem-6 sketches and answer distance queries;
           ``--out`` saves the compiled estimation artifact.
bounds     Print the analytic Table-1 round models for given (n, k, D).

Construction commands run through the staged
:class:`repro.pipeline.SchemePipeline` facade and echo the *actual*
workload size next to the requested ``--n`` (``grid``/``cliques``/
``star`` round it); ``query`` exercises the serve half of the
build/serve split on its own.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .exceptions import ParameterError, ReproError
from .analysis import (
    GraphScale,
    evaluate_estimation,
    evaluate_routing,
    generate_table1,
    model_table,
)
from .core.compiled import CompiledScheme, load_artifact
from .core.dense import DenseRoutingPlane
from .pipeline import WORKLOADS, SchemePipeline
from .serving import RouterPool

#: Number of random demo pairs ``query`` serves when given none.
_QUERY_DEMO_PAIRS = 5


def _pipeline(args: argparse.Namespace) -> SchemePipeline:
    """The shared staged configuration every build command uses."""
    return (SchemePipeline()
            .workload(args.graph, args.n)
            .params(args.k)
            .seed(args.seed))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", choices=sorted(WORKLOADS),
                        default="random", help="workload family")
    parser.add_argument("--n", type=int, default=64,
                        help="approximate number of vertices (the "
                             "report echoes the actual count)")
    parser.add_argument("--k", type=int, default=3,
                        help="stretch/size tradeoff parameter")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (construction + workload)")


def cmd_build(args: argparse.Namespace) -> int:
    pipeline = _pipeline(args)
    built = pipeline.build()
    graph = built.scheme.graph
    line = f"workload={args.graph} n={graph.num_vertices} m={graph.num_edges}"
    if built.requested_n is not None \
            and built.requested_n != graph.num_vertices:
        line += f" (requested n={built.requested_n})"
    print(line)
    print(built.construction.summary())
    if args.phases:
        print("\nper-phase round breakdown:")
        print(built.scheme.ledger.format_table())
    if args.evaluate:
        stretch = evaluate_routing(graph, built.scheme,
                                   sample=args.evaluate,
                                   seed=args.seed)
        print(f"\n{stretch}")
    if args.out:
        dense = pipeline.compile()
        dense.save(args.out)
        size = Path(args.out).stat().st_size
        from .core.compiled import FORMAT_VERSION
        print(f"\ncompiled artifact: {args.out} ({size} bytes, "
              f"format v{FORMAT_VERSION}, kind={dense.kind}, "
              f"n={dense.num_vertices}, k={dense.k}); "
              f"serve it with `python -m repro query {args.out}`")
    return 0


def _load_served(path) -> Tuple[object, bool]:
    """``(artifact, is_routing)`` for a file the serve commands accept:
    a dense routing plane or a compiled estimation."""
    artifact = load_artifact(path)
    if isinstance(artifact, CompiledScheme):
        raise ParameterError(
            f"{path} holds a flat CompiledScheme, the oracle the dense "
            "plane is held to, not a served artifact; write the dense "
            "plane with `repro build --out FILE`")
    return artifact, isinstance(artifact, DenseRoutingPlane)


def _read_pairs(args: argparse.Namespace, n: int,
                seed: int) -> List[Tuple[int, int]]:
    """Query pairs from --pairs-file, --pair flags, stdin, or a demo."""
    pairs: List[Tuple[int, int]] = []
    if args.pairs_file:
        for line in Path(args.pairs_file).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            u, v = line.split()
            pairs.append((int(u), int(v)))
        return pairs
    if args.pair:
        return [(u, v) for u, v in args.pair]
    try:
        piped = None if sys.stdin.isatty() else sys.stdin.read()
    except OSError:  # no usable stdin (e.g. captured test harness)
        piped = None
    if piped:
        for line in piped.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                u, v = line.split()
                pairs.append((int(u), int(v)))
        if pairs:
            return pairs
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n))
            for _ in range(_QUERY_DEMO_PAIRS)]


def _serve_pairs(artifact, routing: bool, pairs, args
                 ) -> Tuple[List, str]:
    """Answer the batch in-process or through a sharded pool."""
    if args.workers:
        with RouterPool(artifact, workers=args.workers) as pool:
            results = (pool.route_many(pairs) if routing
                       else pool.estimate_many(pairs))
            mode = f"pool of {pool.workers} workers"
    else:
        results = (artifact.route_many(pairs) if routing
                   else artifact.estimate_many(pairs))
        mode = "in-process"
    return results, mode


def cmd_query(args: argparse.Namespace) -> int:
    artifact, routing = _load_served(args.artifact)
    n = artifact.num_vertices
    kind = artifact.kind
    print(f"artifact={args.artifact} kind={kind} n={n} k={artifact.k} "
          f"(construction paid: "
          f"{artifact.meta.get('construction_rounds', '?')} rounds)")
    pairs = _read_pairs(args, n, args.seed)
    if not pairs:
        print("no query pairs supplied")
        return 1
    results, mode = _serve_pairs(artifact, routing, pairs, args)
    if args.out:
        # batch-file mode: machine-readable TSV, no per-query chatter
        with open(args.out, "w") as fh:
            if routing:
                fh.write("# source\ttarget\tweight\thops\tpath\n")
                for r in results:
                    fh.write(f"{r.source}\t{r.target}\t{r.weight:.17g}"
                             f"\t{r.hops}\t"
                             f"{'-'.join(map(str, r.path))}\n")
            else:
                fh.write("# u\tv\testimate\n")
                for (u, v), est in zip(pairs, results):
                    fh.write(f"{u}\t{v}\t{est:.17g}\n")
        print(f"wrote {len(results)} results to {args.out}")
    elif routing:
        for result in results:
            path = " -> ".join(map(str, result.path[:8]))
            if len(result.path) > 8:
                path += f" ... ({result.hops} hops)"
            print(f"  route {result.source:>4} -> {result.target:<4}: "
                  f"weight {result.weight:.0f}, level "
                  f"{result.found_level}, tree {result.tree_center}, "
                  f"path {path}")
    else:
        for (u, v), estimate in zip(pairs, results):
            print(f"  dist({u},{v}) ~ {estimate:.0f}")
    print(f"served {len(pairs)} queries from the artifact via {mode} "
          "(no reconstruction)")
    return 0


def _broker_from_artifacts(paths, args, registry=None):
    """Load 1–2 artifacts, optionally wrap each in a RouterPool, and
    front them with one RequestBroker (closed by broker.aclose())."""
    from .server import pooled_broker

    router = estimator = None
    for path in paths:
        artifact, routing = _load_served(path)
        if (router if routing else estimator) is not None:
            raise ParameterError(
                f"two {'routing' if routing else 'estimation'} "
                f"artifacts given ({path}); serve takes at most one "
                "of each")
        if routing:
            router = artifact
        else:
            estimator = artifact
    return pooled_broker(router, estimator, workers=args.workers,
                         max_batch=args.max_batch,
                         max_wait_ms=args.max_wait_ms,
                         max_pending=args.max_pending,
                         registry=registry)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the traffic server until SIGINT/SIGTERM, then drain."""
    import asyncio
    import json

    from .server import TrafficServer
    from .telemetry import MetricsRegistry, Tracer, set_tracer

    trace_handle = None
    if args.trace_jsonl:
        trace_handle = open(args.trace_jsonl, "a", encoding="utf-8")
        set_tracer(Tracer(sink=trace_handle,
                          sample_every=args.trace_sample))

    async def run() -> None:
        registry = MetricsRegistry()
        broker = _broker_from_artifacts(args.artifact, args,
                                        registry=registry)
        server = TrafficServer(broker, host=args.host, port=args.port,
                               unix_path=args.unix,
                               metrics_port=args.metrics_port,
                               registry=registry)
        await server.start()
        server.install_signal_handlers()
        kinds = [k for k, b in (("routing", broker.router),
                                ("estimation", broker.estimator))
                 if b is not None]
        backend = (f"pool of {args.workers} workers" if args.workers
                   else "in-process")
        extras = ""
        if server.metrics_port is not None:
            extras = (f", metrics on http://{args.host}:"
                      f"{server.metrics_port}/metrics")
        if args.trace_jsonl:
            extras += f", trace -> {args.trace_jsonl}"
        print(f"serving {'+'.join(kinds)} on {server.address} "
              f"({backend}, max_batch={broker.max_batch}, "
              f"max_wait_ms={args.max_wait_ms:g}{extras}); "
              "Ctrl-C for graceful shutdown", flush=True)
        await server.serve_forever()
        print("shutdown: drained; broker metrics:")
        print(json.dumps(broker.metrics.snapshot(), indent=2))

    try:
        asyncio.run(run())
    finally:
        if trace_handle is not None:
            set_tracer(None)
            trace_handle.close()
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Live introspection: scrape a serving process or render traces.

    ``snapshot`` fetches ``/metrics`` from a server started with
    ``serve --metrics-port`` and prints the exposition text (optionally
    one-line-per-family with ``--summary``); ``tail`` renders a JSONL
    trace file (``serve --trace-jsonl``, or a tracer sink in your own
    process) as indented span trees, optionally following appends.
    """
    import asyncio
    import json
    import time as _time

    from .telemetry import parse_exposition
    from .telemetry.http import scrape
    from .telemetry.trace import format_span_tree, read_jsonl

    if args.verb == "snapshot":
        text = asyncio.run(scrape(args.host, args.port))
        if args.summary:
            for name, fam in sorted(parse_exposition(text).items()):
                total = sum(v for labels, v in fam.samples.items()
                            if not any(k == "__series__"
                                       for k, _ in labels))
                print(f"{name} ({fam.kind}): {len(fam.samples)} "
                      f"series, sum={total:g}")
        else:
            print(text, end="")
        return 0
    if args.verb == "tail":
        records = read_jsonl(args.file)
        if args.limit and len(records) > args.limit:
            records = records[-args.limit:]
        if records:
            print(format_span_tree(records))
        if not args.follow:
            return 0
        with open(args.file, "r", encoding="utf-8") as handle:
            handle.seek(0, 2)
            try:
                while True:
                    line = handle.readline()
                    if not line:
                        _time.sleep(0.2)
                        continue
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    print(format_span_tree([record]), flush=True)
            except KeyboardInterrupt:
                pass
        return 0
    raise ParameterError(f"unhandled telemetry verb {args.verb!r}")


def cmd_bench_traffic(args: argparse.Namespace) -> int:
    """Closed-loop + open-loop load against an in-process broker."""
    import asyncio
    import json

    from .server import RequestBroker
    from .server.loadgen import (broker_targets, run_closed_loop,
                                 run_open_loop)

    artifact, routing = _load_served(args.artifact)
    op = "route" if routing else "estimate"
    n = artifact.num_vertices
    kw = dict(router=artifact) if routing else dict(estimator=artifact)
    print(f"artifact={args.artifact} kind={artifact.kind} n={n} "
          f"op={op} mix={args.mix}")

    async def run() -> dict:
        reports = {}
        async with RequestBroker(max_batch=1, max_wait_ms=0.0,
                                 **kw) as baseline:
            rep = await run_closed_loop(
                broker_targets(baseline), n, clients=args.clients,
                requests_per_client=args.requests, op=op,
                mix=args.mix, seed=args.seed)
            print("  baseline   " + rep.format())
            reports["closed_baseline"] = rep.to_dict()
        async with RequestBroker(max_batch=args.max_batch,
                                 max_wait_ms=args.max_wait_ms,
                                 **kw) as broker:
            rep = await run_closed_loop(
                broker_targets(broker), n, clients=args.clients,
                requests_per_client=args.requests, op=op,
                mix=args.mix, seed=args.seed)
            print("  coalescing " + rep.format())
            reports["closed_coalescing"] = rep.to_dict()
            reports["coalescing_speedup"] = round(
                rep.achieved_rps /
                max(reports["closed_baseline"]["achieved_rps"], 1e-9),
                3)
        async with RequestBroker(max_batch=args.max_batch,
                                 max_wait_ms=args.max_wait_ms,
                                 **kw) as broker:
            rep = await run_open_loop(
                broker_targets(broker), n, rps=args.rps,
                total_requests=args.requests * args.clients, op=op,
                mix=args.mix, seed=args.seed)
            print("  open-loop  " + rep.format())
            reports["open_poisson"] = rep.to_dict()
        return reports

    reports = asyncio.run(run())
    print(f"coalescing speedup vs one-dispatch-per-request: "
          f"{reports['coalescing_speedup']}x")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    from .graphs import dijkstra_distances
    pipeline = _pipeline(args)
    graph = pipeline.build().scheme.graph
    print(f"workload={args.graph} n={graph.num_vertices}")
    source = args.source % graph.num_vertices
    target = args.target % graph.num_vertices
    result = pipeline.compile().route(source, target)
    shortest = dijkstra_distances(graph, source)[target]
    stretch = result.weight / shortest if shortest else 1.0
    print(f"route {source} -> {target}")
    print(f"  path    : {' -> '.join(map(str, result.path))}")
    print(f"  weight  : {result.weight:.0f} (shortest {shortest:.0f})")
    print(f"  stretch : {stretch:.3f} "
          f"(bound {max(1, 4 * args.k - 5)} + o(1))")
    print(f"  tree    : center {result.tree_center}, found at level "
          f"{result.found_level}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .pipeline import make_workload
    instance = make_workload(args.graph, args.n, args.seed)
    print(instance.describe())
    result = generate_table1(instance.graph, k=args.k, seed=args.seed,
                             sample_pairs=args.pairs,
                             graph_name=args.graph)
    print(result.format())
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.queries < 0:
        raise ParameterError(f"--queries must be >= 0, got {args.queries}")
    pipeline = _pipeline(args)
    est = pipeline.build_estimation()
    graph = est.graph
    print(f"workload={args.graph} n={graph.num_vertices}")
    print(f"sketches built: max {est.max_sketch_words()} words, "
          f"avg {est.average_sketch_words():.1f}")
    rng = random.Random(args.seed)
    n = graph.num_vertices
    from .graphs import dijkstra_distances
    for _ in range(args.queries):
        u, v = rng.randrange(n), rng.randrange(n)
        q = est.query(u, v)
        exact = dijkstra_distances(graph, u)[v]
        ratio = q.estimate / exact if exact else 1.0
        print(f"  dist({u},{v}) ~ {q.estimate:.0f} "
              f"(exact {exact:.0f}, ratio {ratio:.2f}, "
              f"{q.iterations} iterations)")
    report = evaluate_estimation(graph, est, sample=300,
                                 seed=args.seed)
    print(report)
    if args.out:
        compiled = est.compile()
        compiled.save(args.out)
        size = Path(args.out).stat().st_size
        print(f"compiled estimation artifact: {args.out} "
              f"({size} bytes); serve it with "
              f"`python -m repro query {args.out}`")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise ParameterError(f"--n must be >= 2, got {args.n}")
    if args.k < 1:
        raise ParameterError(f"--k must be >= 1, got {args.k}")
    scale = GraphScale(n=args.n, m=args.m or 4 * args.n,
                       hop_diameter=args.d,
                       shortest_path_diameter=args.s or args.d)
    for line in model_table(scale, args.k):
        print(line)
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    from .dynamic import ArtifactRegistry

    registry = ArtifactRegistry(args.dir)
    verb = args.verb
    if verb == "list":
        records = registry.generations(kind=args.kind or None)
        if not records:
            print("(registry is empty)")
            return 0
        for record in records:
            print(record.describe())
        latest = registry.latest(kind=args.kind or None)
        if latest is not None:
            print(f"latest live generation: {latest.generation}")
        return 0
    if verb == "show":
        record = registry.get(args.generation)
        for key, value in sorted(vars(record).items()):
            print(f"{key}={value}")
        return 0
    if verb == "publish":
        from .core.compiled import load_artifact

        artifact = load_artifact(args.artifact)
        record = registry.publish(artifact,
                                  fingerprint=args.fingerprint,
                                  note=args.note)
        print(f"published generation {record.generation} "
              f"({record.kind}, n={record.num_vertices}, "
              f"sha256={record.sha256[:12]})")
        return 0
    if verb == "pin":
        registry.pin(args.generation)
        print(f"pinned generation {args.generation}")
        return 0
    if verb == "unpin":
        registry.unpin(args.generation)
        print(f"unpinned generation {args.generation}")
        return 0
    if verb == "retire":
        registry.retire(args.generation)
        print(f"retired generation {args.generation}")
        return 0
    raise ParameterError(f"unhandled registry verb {verb!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed near-optimal routing schemes "
                    "(Elkin & Neiman, PODC 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and report")
    _add_common(p_build)
    p_build.add_argument("--phases", action="store_true",
                         help="print the per-phase round ledger")
    p_build.add_argument("--evaluate", type=int, metavar="PAIRS",
                         help="also evaluate stretch on PAIRS pairs")
    p_build.add_argument("--out", metavar="FILE",
                         help="compile and save the dense routing "
                              "plane (conventionally .cra)")
    p_build.set_defaults(func=cmd_build)

    p_query = sub.add_parser(
        "query", help="serve queries from a saved artifact")
    p_query.add_argument("artifact", help="a file written by "
                                          "`build --out` or "
                                          "`estimate --out`")
    p_query.add_argument("--pairs-file", metavar="FILE",
                         help="whitespace-separated 'u v' pairs, one "
                              "per line ('#' comments allowed)")
    p_query.add_argument("--pair", nargs=2, type=int, action="append",
                         metavar=("U", "V"),
                         help="one query pair (repeatable)")
    p_query.add_argument("--seed", type=int, default=0,
                         help="seed for the demo pairs when no input "
                              "is given")
    p_query.add_argument("--workers", type=int, default=0,
                         metavar="N",
                         help="serve through a sharded pool of N "
                              "worker processes (0 = in-process)")
    p_query.add_argument("--out", metavar="FILE",
                         help="batch-file mode: write tab-separated "
                              "results to FILE instead of printing "
                              "each query")
    p_query.set_defaults(func=cmd_query)

    p_serve = sub.add_parser(
        "serve", help="serve artifacts to concurrent clients over "
                      "TCP/unix socket")
    p_serve.add_argument("artifact", nargs="+",
                         help="one routing and/or one estimation "
                              "artifact (.cra)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="TCP port (0 = kernel-assigned, echoed "
                              "on stdout)")
    p_serve.add_argument("--unix", metavar="PATH", default=None,
                         help="serve on a unix socket instead of TCP")
    p_serve.add_argument("--workers", type=int, default=0,
                         metavar="N",
                         help="back the broker with a sharded pool of "
                              "N worker processes (0 = in-process)")
    p_serve.add_argument("--max-batch", type=int, default=128,
                         help="fused micro-batch pair budget")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="coalescing window in milliseconds")
    p_serve.add_argument("--max-pending", type=int, default=1024,
                         help="backpressure bound on queued "
                              "submissions")
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         metavar="PORT",
                         help="also serve HTTP GET /metrics "
                              "(Prometheus text) and /healthz on "
                              "PORT (0 = kernel-assigned)")
    p_serve.add_argument("--trace-jsonl", metavar="FILE", default=None,
                         help="enable tracing and append finished "
                              "spans to FILE (render with "
                              "`repro telemetry tail FILE`)")
    p_serve.add_argument("--trace-sample", type=int, default=1,
                         metavar="N",
                         help="head-sample 1 in N requests (default 1: "
                              "trace everything — this flag is a debug "
                              "surface; long-running production "
                              "tracers should raise it)")
    p_serve.set_defaults(func=cmd_serve)

    p_traffic = sub.add_parser(
        "bench-traffic",
        help="drive a broker with closed/open-loop synthetic traffic")
    p_traffic.add_argument("artifact", help="a .cra artifact to serve")
    p_traffic.add_argument("--clients", type=int, default=32,
                           help="closed-loop concurrent clients")
    p_traffic.add_argument("--requests", type=int, default=50,
                           help="requests per client")
    p_traffic.add_argument("--rps", type=float, default=2000.0,
                           help="open-loop Poisson arrival rate")
    p_traffic.add_argument("--mix", default="uniform",
                           help="pair mix (uniform, hotspot, repeated)")
    p_traffic.add_argument("--max-batch", type=int, default=128)
    p_traffic.add_argument("--max-wait-ms", type=float, default=2.0)
    p_traffic.add_argument("--seed", type=int, default=0)
    p_traffic.add_argument("--out", metavar="FILE",
                           help="write the JSON report here")
    p_traffic.set_defaults(func=cmd_bench_traffic)

    p_route = sub.add_parser("route", help="route one packet")
    _add_common(p_route)
    p_route.add_argument("--source", type=int, default=0)
    p_route.add_argument("--target", type=int, default=1)
    p_route.set_defaults(func=cmd_route)

    p_table = sub.add_parser("table1", help="regenerate Table 1")
    _add_common(p_table)
    p_table.add_argument("--pairs", type=int, default=200,
                         help="stretch-evaluation pair sample")
    p_table.set_defaults(func=cmd_table1)

    p_est = sub.add_parser("estimate", help="distance estimation demo")
    _add_common(p_est)
    p_est.add_argument("--queries", type=int, default=5)
    p_est.add_argument("--out", metavar="FILE",
                       help="compile and save the estimation artifact")
    p_est.set_defaults(func=cmd_estimate)

    p_registry = sub.add_parser(
        "registry",
        help="manage a generation-numbered artifact registry")
    reg_sub = p_registry.add_subparsers(dest="verb", required=True)

    def _reg(name, help_text, generation=False):
        p = reg_sub.add_parser(name, help=help_text)
        p.add_argument("dir", help="registry directory (created on "
                                   "first publish)")
        if generation:
            p.add_argument("generation", type=int,
                           help="generation number")
        p.set_defaults(func=cmd_registry)
        return p

    p_reg_list = _reg("list", "list published generations")
    p_reg_list.add_argument("--kind", default="",
                            help="only this artifact kind (routing/"
                                 "dense-routing/estimation)")
    _reg("show", "print one generation's manifest row",
         generation=True)
    p_reg_pub = _reg("publish", "publish a .cra artifact as the next "
                                "generation")
    p_reg_pub.add_argument("artifact", help="artifact file to publish")
    p_reg_pub.add_argument("--fingerprint", default=None,
                           help="graph fingerprint to record "
                                "(see repro.dynamic.graph_fingerprint)")
    p_reg_pub.add_argument("--note", default="",
                           help="free-form note stored in the manifest")
    _reg("pin", "protect a generation from retirement",
         generation=True)
    _reg("unpin", "remove a generation's pin", generation=True)
    _reg("retire", "delete a generation's payload (manifest row "
                   "kept)", generation=True)

    p_tel = sub.add_parser(
        "telemetry",
        help="scrape live metrics or render trace files")
    tel_sub = p_tel.add_subparsers(dest="verb", required=True)
    p_snap = tel_sub.add_parser(
        "snapshot", help="fetch /metrics from a serving process")
    p_snap.add_argument("--host", default="127.0.0.1")
    p_snap.add_argument("--port", type=int, required=True,
                        help="the server's --metrics-port")
    p_snap.add_argument("--summary", action="store_true",
                        help="one line per metric family instead of "
                             "raw exposition text")
    p_snap.set_defaults(func=cmd_telemetry)
    p_tail = tel_sub.add_parser(
        "tail", help="render a JSONL trace file as span trees")
    p_tail.add_argument("file", help="JSONL trace file "
                                     "(serve --trace-jsonl)")
    p_tail.add_argument("--limit", type=int, default=256,
                        help="render at most the last N spans")
    p_tail.add_argument("--follow", action="store_true",
                        help="keep printing spans as they are "
                             "appended (Ctrl-C to stop)")
    p_tail.set_defaults(func=cmd_telemetry)

    p_bounds = sub.add_parser("bounds",
                              help="print analytic round models")
    p_bounds.add_argument("--n", type=int, default=10 ** 6)
    p_bounds.add_argument("--m", type=int, default=0)
    p_bounds.add_argument("--d", type=int, default=100)
    p_bounds.add_argument("--s", type=int, default=0)
    p_bounds.add_argument("--k", type=int, default=3)
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # typed user errors (bad artifact, out-of-range pair, missing
        # file) are a message and exit status 2, not a traceback
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Lifecycle benchmark: build -> compile -> change-to-served -> TCP serve.

    python3 benchmarks/e2e/run.py --workload W --seed S [--seconds T]
                                  [--trace [0|1]]
    python3 benchmarks/e2e/run.py --selfcheck [RUNS]

One run prints every metric by name and unit, then one JSON object as
the last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of ``BENCHMARK.json`` on a plain run, the
per-layer ones with ``--trace 1`` (which also writes
``benchmarks/e2e/out/<workload>.spans.jsonl``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--selfcheck", type=int, nargs="?", const=1,
                        default=0, metavar="RUNS",
                        help="run every workload in two sets of RUNS "
                        "runs and compare the sets")
    # the smoke test shrinks a run with these; not for measurements
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--segment-seconds", type=float, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order is part of the work being timed
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {REPO / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    spec = load_spec()
    if args.selfcheck:
        from selfcheck import selfcheck
        return selfcheck(spec, args.selfcheck, args.seed)

    import asyncio

    import harness
    import_s = time.perf_counter() - started

    if args.workload not in harness.WORKLOADS:
        print(f"run.py: --workload must be one of "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = harness.WORKLOADS[args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    plan = harness.plan_for(wl, seconds, bool(args.trace), args.rounds,
                            args.segment_seconds, args.n)
    import signal

    from server_proc import reap_children

    def terminated(signum, frame):
        # unwind like any other failure, so the server child is killed
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    try:
        outcome = asyncio.run(
            harness.run_workload(wl, args.seed, plan, started, import_s))
    finally:
        # before the result line: every process this run started has
        # ended and been waited for (multiprocessing's resource tracker
        # otherwise outlives the run)
        killed = reap_children()
    outcome["ops"].check(killed == 0,
                         f"{killed} child process(es) had to be killed")
    return report(spec, wl, args, plan, outcome)


def report(spec: dict, wl, args, plan, outcome: dict) -> int:
    ops = outcome["ops"]
    print(f"workload {wl.name}: {wl.family} n={plan.n} k={wl.k}, "
          f"{wl.batch}-pair requests, {wl.mix} mix, seed {args.seed}; "
          f"{outcome['per_layer']['harness.rounds']} rounds; closed loop, "
          f"2 connections x "
          f"{wl.inflight} in flight, loopback TCP, server in a child "
          f"process")
    for kind in ("end_to_end", "per_layer"):
        values = outcome[kind]
        print(f"-- {kind.replace('_', '-')}"
              + ("" if kind == "end_to_end" or plan.trace
                 else " (the ones a plain run gets for free)"))
        for metric in spec[kind]:
            if metric["name"] in values:
                print(f"{metric['name']:<36} "
                      f"{values[metric['name']]:>16.6g} {metric['unit']}")
    for line in outcome["notes"]:
        print(line)
    print(f"operations attempted {ops.attempted} failed {ops.failed}")
    for reason in ops.reasons:
        print(f"  FAILED: {reason}")
    kind = "per_layer" if plan.trace else "end_to_end"
    metrics = {m["name"]: {"value": outcome[kind][m["name"]],
                           "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

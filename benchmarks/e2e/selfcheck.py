"""``run.py --selfcheck [RUNS]``: does the benchmark agree with itself?

Runs every workload in two sets of ``RUNS`` plain runs on this checkout,
every run with a seed of its own, set A walking the workloads forwards
and set B backwards, A and B alternating.  Per workload and end-to-end
metric it prints both medians, by how much of A's median B differs, each
set's spread (distance between the quartiles over the median, from four
runs up) and the metric's bound, as a markdown table; the exit code is 1
if any difference exceeds its bound or any run failed an operation.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

RUN_PY = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"selfcheck: {workload} seed {seed} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def spread(values: List[float]) -> str:
    if len(values) < 4:
        return "-"
    quartiles = statistics.quantiles(values, n=4)
    return f"{(quartiles[2] - quartiles[0]) / quartiles[1]:.3f}"


def selfcheck(spec: dict, runs: int, first_seed: int) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    values: Dict[Tuple[str, str, str], List[float]] = {}
    failed_ops = 0
    seed = first_seed
    for _ in range(runs):
        for label, order in (("A", workloads), ("B", workloads[::-1])):
            for workload in order:
                result = one_run(workload, seed)
                seed += 1
                failed_ops += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name, label), []) \
                        .append(metric["value"])
                print(f"# set {label} {workload} seed {seed - 1}: "
                      f"failed {result['failed']}/{result['attempted']}",
                      file=sys.stderr)

    print(f"| workload | metric | unit | median A | median B | "
          f"B vs A | spread A | spread B | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    over = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = values[(workload, name, "A")]
            b = values[(workload, name, "B")]
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = (median_b - median_a) / median_a
            ok = abs(difference) <= metric["bound"]
            over += not ok
            print(f"| {workload} | {name} | {metric['unit']} | "
                  f"{median_a:.6g} | {median_b:.6g} | {difference:+.3f} | "
                  f"{spread(a)} | {spread(b)} | {metric['bound']} | "
                  f"{'ok' if ok else 'OVER'} |")
    print(f"\n{runs} runs per set; {over} metric(s) over their bound; "
          f"{failed_ops} failed operation(s)")
    return 1 if over or failed_ops else 0

"""Smoke test of the lifecycle benchmark at toy size (n=64, 2 rounds,
0.2 s segments): the contract of its output, not its numbers."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TOY = ["--n", "64", "--rounds", "2", "--segment-seconds", "0.2",
       "--seconds", "1"]

#: Exact counts that --seed must not move (the graph is the workload's).
PINNED = ("core.build_py_calls", "core.flat_bytes", "core.dense_bytes",
          "congest.round_bound_ratio", "harness.rounds",
          "harness.server_stderr_lines")


def _leftovers():
    out = HERE / "out"
    runs = sorted(p.name for p in out.glob("run-*")) if out.is_dir() else []
    shm = sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []
    return runs, shm


@pytest.fixture(scope="module")
def runs():
    """Every workload once plain, one workload traced under two seeds —
    all started together."""
    before = _leftovers()
    jobs = [(w, 1, 0) for w in WORKLOADS]
    jobs += [(WORKLOADS[-1], 1, 1), (WORKLOADS[-1], 2, 1)]
    procs = [subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", w,
         "--seed", str(seed), "--trace", str(trace)] + TOY,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
        for w, seed, trace in jobs]
    results = []
    for job, proc in zip(jobs, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        results.append((job, out, json.loads(out.rstrip().rsplit("\n", 1)[-1])))
    assert _leftovers() == before, "run directories or shm segments left"
    return results


def test_spec_names_and_workloads():
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names
    assert all(0 < len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_every_metric_printed_with_its_unit(runs):
    for (workload, seed, trace), out, last in runs:
        kind = "per_layer" if trace else "end_to_end"
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0, out
        assert last["attempted"] >= 1
        assert list(last["metrics"]) == [m["name"] for m in SPEC[kind]]
        for metric in SPEC[kind]:
            got = last["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            # and by name with its unit in the readable part
            assert re.search(rf"^{re.escape(metric['name'])}\s+\S+ "
                             rf"{re.escape(metric['unit'])}$", out, re.M)
        if not trace:
            assert all(last["metrics"][m["name"]]["value"] != 0
                       for m in SPEC["end_to_end"])


def test_counts_repeat_and_follow_the_seed(runs):
    one, other = [last["metrics"] for (_, _, trace), _, last in runs
                  if trace]
    # two invocations: exact counts of the pinned graph repeat ...
    for name in PINNED:
        assert one[name]["value"] == other[name]["value"], name
    # ... and the request stream is what the seed drives
    assert one["server.wire_bytes_per_req"]["value"] != \
        other["server.wire_bytes_per_req"]["value"]
    plain = {job[0]: last["metrics"] for job, _, last in runs if not job[2]}
    for name in ("rounds", "stretch_max", "table_words_max",
                 "label_words_max"):
        assert plain["serve-single-uniform"][name] == \
            plain["serve-batch-hotspot"][name]     # one artifact, two mixes


def test_span_file_is_a_forest(runs):
    path = HERE / "out" / f"{WORKLOADS[-1]}.spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans) and len({s["run"] for s in spans}) == 1
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids
    assert {"setup", "round", "core.build", "dynamic.rebuild",
            "serve.saturated", "client.route_batch"} <= \
        {span["name"] for span in spans}

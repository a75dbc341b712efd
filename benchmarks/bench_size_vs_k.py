"""[E3] Table/label size vs k.

Verifies the size columns of Table 1:
* our tables live in the ``Õ(n^{1/k})`` family — the *structural* part
  (trees per vertex, Claim 2) shrinks as k grows;
* labels grow like ``O(k log^2 n)`` — linearly in k;
* [LP13a] tables keep their ``Ω(sqrt n)`` floor for every k.
"""

import math

import pytest

from repro.baselines import build_lp13_scheme
from repro.core import build_routing_scheme

KS = [2, 3, 4]


def _size_sweep(graph):
    rows = []
    for k in KS:
        ours = build_routing_scheme(graph, k=k, seed=17)
        counts = ours.clusters.membership_counts()
        overlap = sum(counts) / len(counts)
        lp13 = build_lp13_scheme(graph, k=k, seed=17)
        rows.append((k, overlap, ours.average_table_words(),
                     ours.max_label_words(),
                     lp13.average_table_words()))
    return rows


@pytest.mark.artifact("E3")
def bench_size_vs_k(benchmark, small_workload):
    rows = benchmark.pedantic(lambda: _size_sweep(small_workload),
                              rounds=1, iterations=1)
    n = small_workload.num_vertices
    print("\n[E3] k  overlap(avg trees/v)  ours tbl(avg)  "
          "ours lbl(max)  lp13 tbl(avg)")
    for k, overlap, tbl, lbl, lp13_tbl in rows:
        print(f"     {k}  {overlap:>10.1f}          {tbl:>10.1f}   "
              f"{lbl:>8}       {lp13_tbl:>10.1f}")

    # structural overlap shrinks with k (the Õ(n^{1/k}) claim)
    overlaps = [row[1] for row in rows]
    assert overlaps[-1] < overlaps[0]
    # Claim 2: overlap <= 4 n^{1/k} log n (2x slack at small n)
    for k, overlap, *_ in rows:
        assert overlap <= 2 * 4 * n ** (1 / k) * math.log(n)

    # labels grow ~linearly in k: words-per-k stays within a band
    label_per_k = [row[3] / row[0] for row in rows]
    assert max(label_per_k) <= 3 * min(label_per_k)

    # LP13a's floor: spanner+ball keeps tables above sqrt(n) words
    for row in rows:
        assert row[4] >= math.sqrt(n)


@pytest.mark.artifact("E3")
def bench_sketch_size_vs_k(benchmark, small_workload):
    """Theorem 6 sketch words ``O(n^{1/k} log n)`` shrink with k."""
    from repro.pipeline import SchemePipeline

    def _sweep():
        return {k: SchemePipeline().graph(small_workload)
                .params(k).seed(19)
                .build_estimation().average_sketch_words()
                for k in KS}

    sizes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\n[E3] sketch words avg per k:",
          {k: round(v, 1) for k, v in sizes.items()})
    assert sizes[KS[-1]] < sizes[KS[0]]

"""[E2] Stretch vs k: the ``4k - 5 + o(1)`` guarantee, plus the
TZ-trick ablation (without it the guarantee degrades to ``4k-3+o(1)``).

Regenerates the stretch column of Table 1 across k and verifies:
* measured max stretch <= 4k-5 + o(1) for every k;
* the centralized [TZ01] baseline obeys its exact 4k-5;
* disabling the member-label trick never improves stretch.
"""

import pytest

from repro.analysis import evaluate_routing
from repro.baselines import build_tz_routing
from repro.core import build_routing_scheme

KS = [2, 3, 4]


def _stretch_sweep(graph):
    rows = []
    for k in KS:
        ours = build_routing_scheme(graph, k=k, seed=11)
        tz = build_tz_routing(graph, k=k, seed=11)
        ours_r = evaluate_routing(graph, ours, sample=200, seed=k)
        tz_r = evaluate_routing(graph, tz, sample=200, seed=k)
        rows.append((k, ours_r, tz_r))
    return rows


@pytest.mark.artifact("E2")
def bench_stretch_vs_k(benchmark, small_workload):
    rows = benchmark.pedantic(lambda: _stretch_sweep(small_workload),
                              rounds=1, iterations=1)
    print("\n[E2] k   bound(4k-5)  ours(max/mean)      TZ01(max/mean)")
    for k, ours_r, tz_r in rows:
        bound = max(1, 4 * k - 5)
        print(f"     {k}   {bound:<11} "
              f"{ours_r.max_stretch:.3f}/{ours_r.mean_stretch:.3f}      "
              f"{tz_r.max_stretch:.3f}/{tz_r.mean_stretch:.3f}")
        assert ours_r.max_stretch <= bound + 1.0
        assert tz_r.max_stretch <= bound + 1e-9


@pytest.mark.artifact("E2")
def bench_trick_ablation(benchmark, small_workload):
    def _ablate():
        with_trick = build_routing_scheme(small_workload, k=3, seed=13,
                                          use_tz_trick=True)
        without = build_routing_scheme(small_workload, k=3, seed=13,
                                       use_tz_trick=False)
        return (evaluate_routing(small_workload, with_trick, sample=250,
                                 seed=9),
                evaluate_routing(small_workload, without, sample=250,
                                 seed=9))

    with_r, without_r = benchmark.pedantic(_ablate, rounds=1,
                                           iterations=1)
    print(f"\n[E2] trick ablation: with={with_r.mean_stretch:.4f} "
          f"without={without_r.mean_stretch:.4f} (mean stretch)")
    assert with_r.mean_stretch <= without_r.mean_stretch + 1e-9
    assert with_r.max_stretch <= 4 * 3 - 5 + 1.0
    assert without_r.max_stretch <= 4 * 3 - 3 + 1.0

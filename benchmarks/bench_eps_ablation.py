"""[E9] Ablation: the paper's eps = 1/(48 k^4) vs practical slack.

DESIGN.md calls out the construction's dominant constant: Theorem 1's
``1/eps`` factor, with the paper's eps chosen so that k iterations of
``(1+O(eps))`` losses sum to o(1).  This ablation sweeps eps and shows
the real tradeoff a practitioner would tune:

* rounds collapse (linearly in 1/eps) as eps grows;
* measured stretch degrades only marginally — the 4k-5 bound has slack
  at realistic scales, exactly why the paper can afford eps = o(1).
"""

import pytest

from repro.analysis import evaluate_routing
from repro.core import build_routing_scheme

K = 3
PAPER_EPS = 1.0 / (48 * K ** 4)


def _sweep(graph):
    rows = []
    for eps in (PAPER_EPS, 0.01, 0.1, 0.4):
        scheme = build_routing_scheme(graph, k=K, seed=31,
                                      eps_override=eps)
        report = evaluate_routing(graph, scheme, sample=250, seed=3)
        rows.append((eps, scheme.construction_rounds, report))
    return rows


@pytest.mark.artifact("E9")
def bench_eps_ablation(benchmark, small_workload):
    rows = benchmark.pedantic(lambda: _sweep(small_workload),
                              rounds=1, iterations=1)
    print("\n[E9] eps        rounds        stretch max/mean")
    for eps, rounds, report in rows:
        tag = " (paper)" if eps == PAPER_EPS else ""
        print(f"     {eps:<9.2g} {rounds:>12,} "
              f"{report.max_stretch:.3f}/{report.mean_stretch:.3f}{tag}")

    paper_rounds = rows[0][1]
    loose_rounds = rows[-1][1]
    # rounds shrink by orders of magnitude with practical eps
    assert loose_rounds * 10 < paper_rounds
    # while stretch stays within the 4k-5 + O(eps·k) envelope
    for eps, _, report in rows:
        assert report.max_stretch <= max(1, 4 * K - 5) + 26 * eps * K + 1.0

"""[E7] Source detection (Theorem 1 ingredient).

Measures the tool the whole Section-3.3 pipeline feeds on:
* approximation quality under the faithful "rounded" mode — the
  measured worst error must stay below eps and typically sit well
  under it;
* the round charge's structure: linear in the hop bound B, linear in
  |V'|, inverse in eps.
"""

import pytest

from repro.congest import build_bfs_tree
from repro.graphs import INF, hop_bounded_distances
from repro.sketches import detect_sources


@pytest.mark.artifact("E7")
def bench_detection_quality(benchmark, small_workload):
    graph = small_workload
    sources = list(range(0, graph.num_vertices, 7))
    B, eps = 10, 0.2

    result = benchmark.pedantic(
        lambda: detect_sources(graph, sources, B, eps),
        rounds=1, iterations=1)

    worst = 0.0
    for s in sources:
        exact = hop_bounded_distances(graph, s, B)
        for u in graph.vertices():
            if exact[u] == INF or exact[u] == 0:
                continue
            err = result.get(u, s) / exact[u] - 1.0
            worst = max(worst, err)
    print(f"\n[E7] |V'|={len(sources)} B={B} eps={eps}: "
          f"worst relative error {worst:.4f}")
    assert 0 <= worst <= eps + 1e-9


@pytest.mark.artifact("E7")
def bench_detection_round_structure(benchmark, small_workload):
    graph = small_workload
    tree = build_bfs_tree(graph, root=0)

    def _measure():
        base = detect_sources(graph, [0, 7], 4, 0.5, bfs_tree=tree).rounds
        double_b = detect_sources(graph, [0, 7], 8, 0.5, bfs_tree=tree).rounds
        more_src = detect_sources(graph, list(range(0, 40, 2)), 4, 0.5,
                                  bfs_tree=tree).rounds
        half_eps = detect_sources(graph, [0, 7], 4, 0.25, bfs_tree=tree).rounds
        return base, double_b, more_src, half_eps

    base, double_b, more_src, half_eps = benchmark.pedantic(
        _measure, rounds=1, iterations=1)
    print(f"\n[E7] rounds: base={base} 2xB={double_b} "
          f"+sources={more_src} eps/2={half_eps}")
    assert double_b > base          # ~linear in B
    assert more_src > base          # additive in |V'|
    assert half_eps > base          # inverse in eps
    # B doubling roughly doubles the B-term (within 3x overall)
    assert double_b < 3 * base

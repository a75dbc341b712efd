"""The large levels where the detection's hop bound cuts paths.

On every workload family of ``repro.pipeline.WORKLOADS`` the detection's
hop bound ``B = 4 (n / E|V'|) ln n`` exceeds the hop diameter: no path
is cut, ``G'`` is the complete graph on ``V'``, the measured hopbound β
is 1, and Phase 1 never crosses a hopset edge.  Long paths (from
n ≈ 800 at k = 2) and the chordless ring are where ``B`` cuts, β is 2,
and Phase 1.5 repairs along a hopset edge's path.  Each case first
asserts that it is in that regime — some detection cell unreached and
β ≥ 2, except the one case pinned in ``BETA_ONE`` — so the grid cannot
drift back to β = 1; then Claim 7, value accuracy (17) on every cell,
and route and estimate stretch over sampled pairs (all pairs costs
1.75 s of estimates and 17 s of routes per 0.5 M pairs at n = 1 000).

``FORMERLY_FAILING`` raised :class:`SchemeError` (Claim 7, "vertex …
has parent -1") before Phase 1.5 gave a vertex reached across a hopset
edge its path predecessor as parent: it kept the edge's far endpoint,
and Remark 1 then read a detection cell ``B`` hops out of reach.
"""

import numpy as np
import pytest

from repro.core import approx_clusters
from repro.graphs import INF, path, weighted_small_world
from repro.pipeline import SchemePipeline

CASES = ([("path", n, k, s) for n in (1000, 2000) for k in (2, 4)
          for s in range(4)]
         + [("path", 1000, 4, 4)]
         + [("ring", 6000, 2, s) for s in range(3)])


def _case_id(family, n, k, seed):
    return f"{family}-{n}-k{k}-s{seed}"


FORMERLY_FAILING = {
    "path-1000-k2-s1",   # cluster 9: vertex 936 has parent -1
    "path-1000-k2-s3",
    "path-2000-k2-s0",
    "path-2000-k2-s1",
    "path-2000-k2-s2",
    "path-2000-k4-s0",
    "path-2000-k4-s1",
    "path-2000-k4-s2",
    "ring-6000-k2-s0",
    "ring-6000-k2-s1",
    "ring-6000-k2-s2",
}

#: ``B`` cuts here too (the detection leaves cells unreached), but the
#: hopset still joins every pair of ``V'`` within one hop, so Phase 1
#: never crosses a hopset edge and the case does not exercise the
#: Phase 1.5 fix; ``path-1000-k4-s4`` (β = 2) stands in for it
BETA_ONE = {"path-1000-k4-s0"}


def _line_distances(graph, family):
    """Exact distances of the path or the chordless ring, from prefix
    sums of its (integer) edge weights."""
    n = graph.num_vertices
    edges = n if family == "ring" else n - 1
    weight = np.array([graph.weight(u, (u + 1) % n) for u in range(edges)],
                      dtype=np.float64)
    at = np.concatenate([[0.0], np.cumsum(weight)])[:n]
    total = weight.sum()

    def dist(u, v):
        d = np.abs(at[u] - at[v])
        return np.minimum(d, total - d) if family == "ring" else d
    return dist


def test_formerly_failing_cases_are_pinned():
    ids = {_case_id(*case) for case in CASES}
    assert FORMERLY_FAILING <= ids
    assert BETA_ONE <= ids


@pytest.mark.parametrize("family,n,k,seed", [
    pytest.param(*case, id=_case_id(*case)) for case in CASES])
def test_cut_regime_builds_within_bounds(monkeypatch, family, n, k, seed):
    seen = []
    preprocess = approx_clusters._preprocess_large_scales

    def spy(*args, **kwargs):
        seen.append(preprocess(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(approx_clusters, "_preprocess_large_scales", spy)
    graph = (path(n, seed=seed) if family == "path"
             else weighted_small_world(n, chords=0, seed=seed))
    pipeline = SchemePipeline().graph(graph).params(k).seed(seed)
    report = pipeline.build()
    params = report.params
    eps = params.eps

    # the regime: B cuts, and Phase 1 needs more than one hop
    (pre,) = seen
    assert (pre.detection.dist == INF).any()
    if _case_id(family, n, k, seed) in BETA_ONE:
        assert pre.beta == 1
    else:
        assert pre.beta >= 2

    # Claim 7 and (17): d_G(u, v) <= b_v(u) <= (1+eps)^4 d_G(u, v)
    system = report.construction.clusters
    system.check_parents()
    dist = _line_distances(graph, family)
    owner = system.cell_centers()
    exact = dist(owner, system.member)
    assert (exact <= system.value + 1e-9).all()
    assert (system.value <= (1 + eps) ** 4 * exact + 1e-9).all()

    # stretch: estimates to every target from 17 sources, routes to
    # every fourth (paths) or sixteenth (ring) target from four
    estimation = pipeline.compile_estimation()
    sources = sorted({*range(0, n, n // 16), n - 1})
    pairs = np.array([(u, v) for u in sources for v in range(n) if v != u])
    estimate = np.array(estimation.estimate_many(pairs))
    bound = (2 * k - 1) * (1 + eps) ** (4 * k)
    stretch = estimate / dist(pairs[:, 0], pairs[:, 1])
    assert stretch.max() <= bound, stretch.max()

    stride = 4 if family == "path" else 16
    pairs = np.array([(u, v) for u in (0, n // 3, 2 * n // 3, n - 1)
                      for v in range(0, n, stride) if v != u])
    routes = pipeline.compile().route_many(pairs)
    assert [[r.path[0], r.path[-1]] for r in routes] == pairs.tolist()
    weight = np.array([r.weight for r in routes])
    stretch = weight / dist(pairs[:, 0], pairs[:, 1])
    assert stretch.max() <= params.stretch_bound, stretch.max()

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
The same build's virtual plane is held to its dict oracle
(``check_virtual_plane`` of
``tests/hopsets/test_virtual_plane_equivalence.py``).  Last, the
dense plane's SHA-256 is pinned per case: the bounds alone pass a
Phase-1 parent that moves on a tie, the bytes do not.  These are paths
and rings, where the next hop toward either of two tied virtual parents
is the same neighbour, so the pins cannot show a tie moving a real
parent; the oracle check bounds where parents may differ.

``FORMERLY_FAILING`` raised :class:`SchemeError` (Claim 7, "vertex …
has parent -1") before Phase 1.5 gave a vertex reached across a hopset
edge its path predecessor as parent: it kept the edge's far endpoint,
and Remark 1 then read a detection cell ``B`` hops out of reach.
"""

import hashlib

import numpy as np
import pytest

from repro.core import approx_clusters
from repro.graphs import INF, path, weighted_small_world
from repro.pipeline import SchemePipeline
from tests.hopsets.test_virtual_plane_equivalence import (
    capture_virtual_plane,
    check_virtual_plane,
)

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

#: SHA-256 of each case's saved dense plane, from the dict-based
#: virtual plane (VirtualGraph, dict Dijkstra hopset, dict Phase 1)
PLANE_SHA256 = {
    "path-1000-k2-s0": "e609a54a7c4da21fc7acb322eef4e7db5ca16f0e6073682ec9ed8eec60d31641",
    "path-1000-k2-s1": "c2c3a3f59b59ce30b1a8bd929f2ce63c2ab26e771455b84c9118312b0f962a58",
    "path-1000-k2-s2": "80ffbe4f28c95def2f36c8a4e96dd0214b3a3d7f165c189fb6c37ec5172f64cd",
    "path-1000-k2-s3": "91b6617a5d8fe5c296661f23c22292331bfdea642b7cf88caa9383a6031bbf6a",
    "path-1000-k4-s0": "eae21c97c715d3ba60d4be2b7326988f6d7b3daa211617d9cbaafc4eee496ba8",
    "path-1000-k4-s1": "84d3d84e48f8867c022667b2467d6f50dc88c67ce7998a1e9db1b21c16da012d",
    "path-1000-k4-s2": "7d8b1eee6122f5a60bb683759f7dabc5ebf563dcebf2b72df21485aa0e7ed3e6",
    "path-1000-k4-s3": "1276d19e96095b846c5d129e7ef1ad2784886b6d51ea303864a7512b8b3b7908",
    "path-2000-k2-s0": "34cdaa94468bc49d3b38021105c298e6db41d26770a674ad0196d91a8b77e565",
    "path-2000-k2-s1": "575636da4e9be5c5c4b4111a66e45376bbe3ddec5aaa12867f2bd8e16f25bafd",
    "path-2000-k2-s2": "c62eefd99a1f71454c7c9f89f4b3bdc8fd734c51bb7e0e24a06b28d70ab552ff",
    "path-2000-k2-s3": "90bd91e55de96580754283d82b57d6a1ccc545aa381ad6511b500d976baa5cc4",
    "path-2000-k4-s0": "c8813bb92b132f4df392b47f1ff4b783ce836f99305284b01e9cad6f71fb21e3",
    "path-2000-k4-s1": "8880594f6ec94221935160c05611e10d3fa217bbfc58f70a1db2c5f45b720fdf",
    "path-2000-k4-s2": "cdd3375a5575d9fc90e62f5d5cf07255c8f1cbd5a340b348a749f42e14587d6f",
    "path-2000-k4-s3": "3a780e77cc23dd05f5c4b81e8ababc63478ffd179b4f44fda8ba6b88960d7298",
    "path-1000-k4-s4": "f1cbcdcb295f4db963ea93c9f43f6dd5413aaa0f02d1c8b8e1b6526f64238cec",
    "ring-6000-k2-s0": "1deb4de6f0f4190adb39819e3ce97dfc104be55cc6e582883ba34717a9c1cb7e",
    "ring-6000-k2-s1": "04dd5eea837a961866f5ac39a9081b8a681d18fc0f7b0f534755c82cb580558c",
    "ring-6000-k2-s2": "740485f21a8d398ca0cdcf780bcc8cc9aa018551ebd03b93fb8826d7e51781f7",
}


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
    assert set(PLANE_SHA256) == ids


@pytest.mark.parametrize("family,n,k,seed", [
    pytest.param(*case, id=_case_id(*case)) for case in CASES])
def test_cut_regime_builds_within_bounds(monkeypatch, tmp_path, family, n, k,
                                        seed):
    seen = []
    preprocess = approx_clusters._preprocess_large_scales

    def spy(*args, **kwargs):
        seen.append(preprocess(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(approx_clusters, "_preprocess_large_scales", spy)
    graph = (path(n, seed=seed) if family == "path"
             else weighted_small_world(n, chords=0, seed=seed))
    pipeline = SchemePipeline().graph(graph).params(k).seed(seed)
    with capture_virtual_plane() as capture:
        report = pipeline.build()
    assert capture.phase1 and bool(capture.spt) == (k >= 4)
    check_virtual_plane(capture)
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
    plane = pipeline.compile()
    routes = plane.route_many(pairs)
    assert [[r.path[0], r.path[-1]] for r in routes] == pairs.tolist()
    weight = np.array([r.weight for r in routes])
    stretch = weight / dist(pairs[:, 0], pairs[:, 1])
    assert stretch.max() <= params.stretch_bound, stretch.max()

    saved = tmp_path / "plane.cra"
    plane.save(str(saved))
    digest = hashlib.sha256(saved.read_bytes()).hexdigest()
    assert digest == PLANE_SHA256[_case_id(family, n, k, seed)]

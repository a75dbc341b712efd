"""Differential grid for the Lemma-1 extensions over ``V'``.

Two construction steps extend values known on ``V'`` to every vertex
through the source detection's estimates: Phase 2 of a large cluster
level, ``b_y(u) = min_{v ∈ V'} d̂(y, v) + b_v(u)`` kept under rule
(15), and step 5 of the approximate SPT, ``d̂(u) = min_v d_uv + d̂(v)``.
Production computes both as one sweep over the detection's ``V'`` rows
(:func:`repro.sketches.extend_over_sources`); the oracles are the
per-vertex loops over ``estimate[y]`` they used to be
(:func:`repro.reference.broadcast_extension_reference`,
:func:`repro.reference.spt_extension_reference`).

Every case spies on the production call inside a real build, then runs
the oracle on a copy of the same input state and compares item lists —
so the order members join in counts — and the type of every value.
The grid is the cluster-equivalence zoo × k ∈ {2, 3, 4, 5} × ε (the
paper's ``1/(48k⁴)``, whose rounding unit is tiny, and a coarse 0.2,
which moves every rule-(15) budget and the rounded values), plus a
unit-weight grid and path, where ``V'`` rows tie and only
the first strict minimum picks the Remark-1 parent.  A last test pins
that a build reads the detection's matrices only: its dict views are
never built.
"""

import copy
import random

import numpy as np
import pytest

from repro.core import approx_clusters as ac
from repro.core import build_approx_clusters
from repro.graphs import (
    INF,
    grid,
    path,
    random_connected,
    ring_of_cliques,
    star_of_paths,
    weighted_small_world,
)
from repro.pipeline import SchemePipeline
from repro.reference import (
    broadcast_extension_reference,
    spt_extension_reference,
)
from repro.sketches import (
    SourceDetectionResult,
    approximate_spt,
    detect_sources,
)
from repro.sketches import approx_spt as spt_module

# the workload zoo of test_cluster_equivalence.py
WORKLOADS = {
    "random-16": lambda: random_connected(16, 0.25, seed=811),
    "random-24": lambda: random_connected(24, 0.18, seed=813),
    "random-32": lambda: random_connected(32, 0.12, seed=817),
    "random-36": lambda: random_connected(36, 0.10, seed=819),
    "dense-20": lambda: random_connected(20, 0.45, seed=823),
    "dense-28": lambda: random_connected(28, 0.35, seed=827),
    "grid-5x5": lambda: grid(5, 5, seed=829),
    "grid-4x8": lambda: grid(4, 8, seed=839),
    "path-30": lambda: path(30, seed=853),
    "cliques-4x6": lambda: ring_of_cliques(4, 6, seed=857),
    "star-4x7": lambda: star_of_paths(4, 7, seed=859),
    "smallworld-30": lambda: weighted_small_world(30, seed=863),
}

# unit weights: many V' rows reach a vertex with the same sum
TIES = {
    "unit-grid-6x6": lambda: grid(6, 6, max_weight=1, seed=871),
    "unit-path-40": lambda: path(40, max_weight=1, seed=877),
}

KS = [2, 3, 4, 5]
#: eps_override per case: 0 is the paper's 1/(48 k^4)
EPS = {"paper": 0.0, "coarse": 0.2}

CASES = [(name, k, eps) for name in sorted(WORKLOADS) + sorted(TIES)
         for k in KS for eps in EPS]


def _graph(name):
    return {**WORKLOADS, **TIES}[name]()


@pytest.fixture
def phase2_calls(monkeypatch):
    """Every production Phase-2 call of a build: (input state copied
    before the call, detection, new members' cells, words)."""
    calls = []
    production = ac._broadcast_extension

    def spy(centers, virt, detection, next_pivot_hat, eps):
        # the Phase-1 matrix as the oracle's center -> {member: value}
        virt_value = {u: {detection.sources[j]: b
                          for j, b in enumerate(row) if b < INF}
                      for u, row in zip(centers.tolist(), virt.tolist())}
        before = copy.deepcopy((centers.tolist(), virt_value,
                                list(next_pivot_hat), eps))
        cells, words = production(centers, virt, detection,
                                  next_pivot_hat, eps)
        calls.append((before, detection, cells, words))
        return cells, words

    monkeypatch.setattr(ac, "_broadcast_extension", spy)
    return calls


@pytest.fixture
def spt_calls(monkeypatch):
    """Every production step-5 call: (inputs, outputs)."""
    calls = []
    production = spt_module._extend_to_all

    def spy(detection, dist_vp, witness_vp):
        out = production(detection, dist_vp, witness_vp)
        # the V' arrays as the oracle's dicts by vertex
        sources = detection.sources
        calls.append(((detection, dict(zip(sources, dist_vp.tolist())),
                       {v: None if w < 0 else sources[w]
                        for v, w in zip(sources, witness_vp.tolist())}),
                      out))
        return out

    monkeypatch.setattr(spt_module, "_extend_to_all", spy)
    return calls


def assert_same_items(got: dict, want: dict):
    """Same items in the same order, each ``(value, parent)`` value of
    the same type."""
    assert list(got.items()) == list(want.items())
    assert [type(b) for b, _ in got.values()] == \
        [type(b) for b, _ in want.values()]


def first_min_ties(before, detection):
    """Cells (y, u) whose minimum over V' is attained by two rows."""
    centers, virt_value, _, _ = before
    row_of = detection.row_of
    values = np.full((len(detection.sources), len(centers)), INF)
    for c, u in enumerate(centers):
        for v, b in virt_value[u].items():
            values[row_of[v], c] = b
    sums = detection.dist[:, :, None] + values[:, None, :]
    best = sums.min(axis=0)
    attained = ((sums == best) & (best < INF)).sum(axis=0)
    return int((attained > 1).sum())


@pytest.mark.parametrize("workload,k,eps", CASES,
                         ids=[f"{w}-k{k}-{e}" for w, k, e in CASES])
def test_phase2_matches_reference(workload, k, eps, phase2_calls):
    graph = _graph(workload)
    build_approx_clusters(graph, k, seed=149, eps_override=EPS[eps])
    assert phase2_calls
    ties = 0
    for before, detection, cells, words in phase2_calls:
        centers, virt_value, next_pivot_hat, eps = copy.deepcopy(before)
        want, want_words = broadcast_extension_reference(
            centers, virt_value, detection, next_pivot_hat, eps)
        assert words == want_words
        got = {u: {} for u in before[0]}
        for u, y, b, p in zip(*(column.tolist() for column in cells)):
            got[u][y] = (b, None if p < 0 else p)
        assert list(got) == list(want)
        for u in want:
            assert_same_items(got[u], want[u])
        ties += first_min_ties(before, detection)
    if workload in TIES:
        assert ties > 0, "the tie workloads must tie"


@pytest.mark.parametrize("workload,k,eps", CASES,
                         ids=[f"{w}-k{k}-{e}" for w, k, e in CASES])
def test_spt_extension_matches_reference(workload, k, eps, spt_calls):
    """Step 5 of Theorem 3: inside the build's approximate pivots (k >=
    4) and called directly at a root set of every case."""
    graph = _graph(workload)
    if k >= 4:
        build_approx_clusters(graph, k, seed=151, eps_override=EPS[eps])
    n = graph.num_vertices
    roots = random.Random(k).sample(range(n), max(1, n // (2 * k)))
    approximate_spt(graph, roots, EPS[eps] or 0.25,
                    rng=random.Random(157))
    for (detection, dist_vp, witness_vp), (dist_hat, witness) in \
            spt_calls:
        want_dist, want_witness = spt_extension_reference(
            detection, dist_vp, witness_vp)
        assert dist_hat == want_dist
        assert [type(x) for x in dist_hat] == [type(x) for x in want_dist]
        assert witness == want_witness


# ----------------------------------------------------------------------
# The build reads matrices, never the dict views
# ----------------------------------------------------------------------
@pytest.fixture
def view_builds(monkeypatch):
    """Names of the dict views built while the fixture is live."""
    built = []
    for name in ("estimate", "parent"):
        view = SourceDetectionResult.__dict__[name]

        def spy(self, _view=view, _name=name):
            built.append(_name)
            return _view.func(self)

        monkeypatch.setattr(SourceDetectionResult, name, property(spy))
    return built


def test_view_spy_sees_a_view(view_builds):
    result = build_approx_clusters(random_connected(20, 0.3, seed=5), 2,
                                   seed=1)
    assert result.clusters and view_builds == []
    detection = detect_sources(grid(3, 3, seed=1), [0, 4], 3, 0.25)
    assert detection.estimate[4] == {0: detection.get(4, 0), 4: 0}
    assert view_builds == ["estimate"]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_build_never_builds_the_dict_views(k, view_builds, phase2_calls):
    report = (SchemePipeline().workload("random", 120).params(k).seed(3)
              .build())
    assert report.scheme is not None and phase2_calls
    assert view_builds == []

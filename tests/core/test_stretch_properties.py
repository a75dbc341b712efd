"""Seeded property-style guarantees over a (family × k × eps) grid.

For every combination of workload family, stretch parameter ``k`` and
epsilon override, the constructed scheme must obey the paper's
*instantiated* bounds — not the loose ``4k - 5 + 1`` test margins used
elsewhere, but the concrete numbers :class:`SchemeParams` exposes:

* routed stretch ≤ ``params.stretch_bound``      (Section 4 recurrence)
* max table words ≤ ``params.table_size_bound_words``   (Claim 2)
* max label words ≤ ``params.label_size_bound_words``   (Theorem 5)

Seeds are fixed, so the grid is deterministic and CI-stable.
"""

import itertools

import pytest

from repro.core import sample_pairs
from repro.graphs import (
    all_pairs_distances,
    grid,
    random_connected,
    random_geometric,
    ring_of_cliques,
)
from repro.pipeline import SchemePipeline

import random

FAMILIES = {
    "random": lambda seed: random_connected(36, 0.12, seed=seed),
    "grid": lambda seed: grid(6, 6, seed=seed),
    "cliques": lambda seed: ring_of_cliques(5, 6, seed=seed),
    "geometric": lambda seed: random_geometric(30, seed=seed),
}

KS = (2, 3, 4)
EPS_GRID = (0.0, 0.04, 0.15)   # 0.0 -> the paper's 1/(48 k^4)

CASES = [
    pytest.param(family, k, eps, id=f"{family}-k{k}-eps{eps:g}")
    for family, k, eps in itertools.product(FAMILIES, KS, EPS_GRID)
]


@pytest.fixture(scope="module")
def built():
    """One construction per grid point, shared by both property tests."""
    cache = {}

    def build(family, k, eps):
        key = (family, k, eps)
        if key not in cache:
            offset = sorted(FAMILIES).index(family)
            seed = 31 + 7 * k + offset
            graph = FAMILIES[family](seed)
            report = (SchemePipeline().graph(graph)
                      .params(k, eps=eps)
                      .seed(seed).build().construction)
            cache[key] = (graph, report, seed)
        return cache[key]

    return build


@pytest.mark.parametrize("family,k,eps", CASES)
def test_measured_stretch_within_paper_bound(built, family, k, eps):
    graph, report, seed = built(family, k, eps)
    ap = all_pairs_distances(graph)
    bound = report.params.stretch_bound
    assert bound >= max(1, 4 * k - 5)   # sanity on the bound itself
    rng = random.Random(seed)
    pairs = sample_pairs(graph.num_vertices, 80, rng)
    assert pairs, "sample_pairs must fill on these sizes"
    for (u, v), routed in zip(pairs, report.scheme.route_many(pairs)):
        exact = ap[u][v]
        if exact == 0:
            continue
        assert routed.weight <= bound * exact + 1e-9, (
            f"stretch {routed.weight / exact:.3f} > bound {bound:.3f} "
            f"for pair ({u}, {v})")


@pytest.mark.parametrize("family,k,eps", CASES)
def test_table_and_label_sizes_within_paper_bounds(built, family, k, eps):
    graph, report, seed = built(family, k, eps)
    params = report.params
    assert report.max_table_words <= params.table_size_bound_words, (
        f"table {report.max_table_words} words exceeds Claim-2 bound "
        f"{params.table_size_bound_words:.0f}")
    assert report.max_label_words <= params.label_size_bound_words, (
        f"label {report.max_label_words} words exceeds Theorem-5 bound "
        f"{params.label_size_bound_words:.0f}")
    # averages are bounded by maxima by construction
    assert report.avg_table_words <= report.max_table_words
    assert report.avg_label_words <= report.max_label_words

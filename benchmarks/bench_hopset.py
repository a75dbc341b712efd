"""[E6] Hopset quality (Theorem 2 ingredient).

The construction's large scales stand on the hopset's ``(beta, eps)``
property (13).  This bench measures, on detection-style virtual graphs:
* the measured hopbound beta (vs the unaided hop radius);
* the hopset property holding at the measured beta;
* size ``O(m^{1+1/kappa})`` scaling;
* the eps -> beta tradeoff (smaller eps costs more hops).
"""

import random

import numpy as np
import pytest

from repro.graphs import INF, hop_bounded_distances
from repro.hopsets import build_hopset, measure_hopbound, shortest_paths, \
    verify_hopset_property, verify_path_reporting


def _virtual_from_sample(n, num_sources, seed, hop_bound=None):
    """A G'-like virtual graph from hop-bounded source detection.

    At full scale the Theorem-1 hop bound B is far below the network's
    hop radius, so G' is sparse and the hopset has real work to do; we
    reproduce that regime by bounding the exploration (default: enough
    to keep the sampled sources ~4 virtual hops apart).
    """
    from repro.graphs import random_geometric
    g = random_geometric(n, max_weight=10, seed=seed)
    rng = random.Random(seed)
    sources = sorted(rng.sample(range(n), num_sources))
    if hop_bound is None:
        hop_bound = max(3, n // (2 * num_sources))
    virt = np.array([[hop_bounded_distances(g, u, hop_bound)[v]
                      for v in sources] for u in sources], dtype=float)
    np.fill_diagonal(virt, INF)
    # hop-bounded detection may isolate a source; patch connectivity the
    # way Claim 3 guarantees it at full scale
    for i in range(num_sources):
        if not np.isinf(virt[i]).all():
            continue
        full = hop_bounded_distances(g, sources[i], n - 1)
        j = min((j for j in range(num_sources) if j != i),
                key=lambda j: full[sources[j]])
        virt[i, j] = virt[j, i] = full[sources[j]]
    return virt


@pytest.mark.artifact("E6")
def bench_hopset_build_and_verify(benchmark):
    virt = _virtual_from_sample(n=400, num_sources=36, seed=41,
                                hop_bound=3)

    report = benchmark.pedantic(
        lambda: build_hopset(virt, eps=0.1, rho=0.5,
                             rng=random.Random(2)),
        rounds=1, iterations=1)
    beta = report.hopset.beta_measured
    unaided = measure_hopbound(shortest_paths(virt)[0], virt, eps=0.1)
    print(f"\n[E6] |V'|={len(virt)} |F|={len(report.hopset)} "
          f"beta={beta} (unaided {unaided})")
    assert verify_hopset_property(virt, report.augmented, beta, 0.1)
    assert verify_path_reporting(virt, report.hopset)
    assert beta < unaided  # the hopset genuinely shortcuts


@pytest.mark.artifact("E6")
def bench_hopset_eps_tradeoff(benchmark):
    """Smaller eps needs a (weakly) larger measured beta."""
    virt = _virtual_from_sample(n=400, num_sources=28, seed=43,
                                hop_bound=4)

    def _sweep():
        betas = {}
        for eps in (0.5, 0.1, 0.02):
            rep = build_hopset(virt, eps=eps, rho=0.5,
                               rng=random.Random(3))
            betas[eps] = rep.hopset.beta_measured
        return betas

    betas = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print(f"\n[E6] eps -> beta: {betas}")
    assert betas[0.02] >= betas[0.5]


@pytest.mark.artifact("E6")
def bench_hopset_size_scaling(benchmark):
    """Edges grow subquadratically (TZ emulator: O(m^{1.5}) at rho=.5)."""
    def _measure():
        sizes = {}
        for m in (12, 24, 48):
            virt = _virtual_from_sample(n=200, num_sources=m, seed=m)
            rep = build_hopset(virt, eps=0.2, rho=0.5,
                               rng=random.Random(4))
            sizes[m] = len(rep.hopset)
        return sizes

    sizes = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print(f"\n[E6] |V'| -> |F|: {sizes}")
    for m, edges in sizes.items():
        assert edges <= 4 * m ** 1.5

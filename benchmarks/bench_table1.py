"""[T1] Regenerate Table 1 (the paper's evaluation artifact).

For each workload: build [TZ01], [LP13a], [LP15] and this paper's
scheme, measure rounds / table words / label words / stretch, and check
the qualitative shape of the paper's comparison:

* this paper's stretch <= 4k-5+o(1), matching [TZ01] up to o(1);
* table sizes in the Õ(n^{1/k}) family (vs [LP13a]'s Ω(sqrt n) floor);
* label sizes O(k log^2 n) (vs [LP13a]'s O(log n));
* measured construction rounds land between the ~Ω(sqrt n + D) lower
  bound and the paper's analytic bound.
"""

import math

import pytest

from repro.analysis import (
    generate_table1,
    lower_bound,
    rounds_this_paper,
    verify_table1_shape,
)

K = 3


@pytest.mark.artifact("T1")
def bench_table1_random(benchmark, small_workload):
    result = benchmark.pedantic(
        lambda: generate_table1(small_workload, k=K, seed=3,
                                sample_pairs=150,
                                graph_name="sparse-random"),
        rounds=1, iterations=1)
    print("\n" + result.format())
    assert verify_table1_shape(result) == []

    ours = result.row("this paper")
    # measured rounds at least the lower bound's sqrt(n) + D shape
    assert ours.rounds >= lower_bound(result.scale)
    # ... and within the analytic bound times the construction's
    # *instantiated* constants, which the formula's Õ/min factor hides:
    # 1/eps = 48 k^4 from Theorem 1, ~log(nW) weight scales, and the
    # Claim-3 budget constant 4 ln n.  The n-INDEPENDENCE of this ratio
    # is what matters; the E1 bench pins the growth exponent itself.
    bound = rounds_this_paper(result.scale, K)
    n = result.scale.n
    constant_budget = (48 * K ** 4) * math.log2(n * 100) * 4 * math.log(n)
    assert ours.rounds <= bound * constant_budget


@pytest.mark.artifact("T1")
def bench_table1_mesh(benchmark, mesh_workload):
    result = benchmark.pedantic(
        lambda: generate_table1(mesh_workload, k=K, seed=5,
                                sample_pairs=150,
                                graph_name="geometric-mesh"),
        rounds=1, iterations=1)
    print("\n" + result.format())
    assert verify_table1_shape(result) == []


@pytest.mark.artifact("T1")
def bench_table1_even_k(benchmark, small_workload):
    """The even-k row (k=4): same shape checks, 4k-5 = 11 bound."""
    result = benchmark.pedantic(
        lambda: generate_table1(small_workload, k=4, seed=7,
                                sample_pairs=150,
                                graph_name="sparse-random"),
        rounds=1, iterations=1)
    print("\n" + result.format())
    assert verify_table1_shape(result) == []
    assert result.row("this paper").stretch.max_stretch <= 4 * 4 - 5 + 1.0

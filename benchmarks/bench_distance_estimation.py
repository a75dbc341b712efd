"""[E4] Distance estimation (Theorem 6).

Regenerates the sketching corollary's three promises:
* stretch ``2k - 1 + o(1)`` (vs the exact [TZ05] oracle's ``2k-1``);
* sketch size ``O(n^{1/k} log n)`` words;
* ``O(k)`` query time — measured both as loop iterations and as
  wall-clock per query (this is the one pytest-benchmark timing that is
  meaningful here, since queries are pure in-memory operations).
"""

import random

import pytest

from repro.analysis import evaluate_estimation
from repro.baselines import build_tz_oracle
from repro.pipeline import SchemePipeline

K = 3


def _build_estimation(graph, seed):
    return (SchemePipeline().graph(graph)
            .params(K).seed(seed)
            .build_estimation())


@pytest.mark.artifact("E4")
def bench_estimation_stretch(benchmark, small_workload):
    def _build_and_eval():
        est = _build_estimation(small_workload, seed=23)
        oracle = build_tz_oracle(small_workload, k=K, seed=23)
        return (est,
                evaluate_estimation(small_workload, est, sample=400,
                                    seed=5),
                evaluate_estimation(
                    small_workload,
                    type("O", (), {"estimate": oracle.query})(),
                    sample=400, seed=5))

    est, ours_r, tz_r = benchmark.pedantic(_build_and_eval, rounds=1,
                                           iterations=1)
    bound = 2 * K - 1
    print(f"\n[E4] ours: {ours_r}")
    print(f"[E4] TZ05: {tz_r}")
    print(f"[E4] sketch words max={est.max_sketch_words()} "
          f"avg={est.average_sketch_words():.1f}")
    assert ours_r.max_stretch <= bound + 1.0   # 2k-1 + o(1)
    assert tz_r.max_stretch <= bound + 1e-9    # exact baseline
    assert ours_r.max_stretch >= 1.0


@pytest.mark.artifact("E4")
def bench_query_time(benchmark, small_workload):
    """O(k) query: time 1000 queries on a prebuilt estimator."""
    est = _build_estimation(small_workload, seed=29)
    rng = random.Random(0)
    n = small_workload.num_vertices
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(1000)]

    def _run_queries():
        total = 0.0
        for u, v in pairs:
            total += est.estimate(u, v)
        return total

    total = benchmark(_run_queries)
    assert total > 0

    iterations = [est.query(u, v).iterations for u, v in pairs
                  if u != v]
    print(f"\n[E4] query while-loop iterations: "
          f"max={max(iterations)} (bound {K - 1}), "
          f"mean={sum(iterations) / len(iterations):.2f}")
    assert max(iterations) <= K - 1

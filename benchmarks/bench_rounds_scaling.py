"""[E1] Round-complexity scaling: measured rounds vs n.

The paper claims construction in ``(n^{1/2+1/k} + D) * n^{o(1)}`` rounds.
Two regimes matter:

* **bench scale** (n <= a few hundred): the Theorem-1 hop bound
  ``B = 4 n^{1/2+1/(2k)} ln n`` is clamped at ``n - 1`` (explorations
  can never exceed the hop count), so the dominant charge grows ~n and
  the measured exponent sits near 1.  We assert measured growth matches
  the *clamped charge model* built from the same parameters.
* **asymptotic**: the un-clamped charge model — evaluated analytically
  at n = 10^6..10^8, where the clamp is inactive — must recover the
  paper's exponent ``1/2 + 1/(2k)`` (odd k) up to log-factor drift.
"""

import pytest

from repro.analysis import expected_charge_rounds, fit_exponent
from repro.pipeline import SchemePipeline

K = 3
PAPER_EXPONENT = 0.5 + 1.0 / (2 * K)  # odd k: 1/2 + 1/(2k)


def _construct(graph, k, seed):
    return (SchemePipeline().graph(graph)
            .params(k).seed(seed)
            .build().construction)


def _measure_rounds(graphs, k):
    return {n: _construct(graph, k=k, seed=n).rounds
            for n, graph in sorted(graphs.items())}


@pytest.mark.artifact("E1")
def bench_rounds_exponent(benchmark, scaling_graphs, scaling_ns):
    rounds = benchmark.pedantic(
        lambda: _measure_rounds(scaling_graphs, K),
        rounds=1, iterations=1)
    ns = sorted(rounds)
    measured_exp = fit_exponent(ns, [rounds[n] for n in ns])
    model_exp = fit_exponent(
        ns, [expected_charge_rounds(n, K) for n in ns])
    print(f"\n[E1] measured rounds: "
          + " ".join(f"n={n}:{rounds[n]}" for n in ns))
    print(f"[E1] fitted exponent {measured_exp:.3f} vs clamped charge "
          f"model {model_exp:.3f} (paper asymptotic "
          f"{PAPER_EXPONENT:.3f})")
    # measured growth tracks the clamped model at bench scale
    assert abs(measured_exp - model_exp) <= 0.25
    # the measured charge never grows super-linearly beyond log drift
    assert measured_exp <= 1.3


@pytest.mark.artifact("E1")
def bench_asymptotic_exponent(benchmark):
    """Un-clamped charge model recovers the paper's exponent."""
    big_ns = [10 ** 6, 10 ** 7, 10 ** 8]

    def _fit():
        values = [expected_charge_rounds(n, K, cap_hop_bound=False)
                  for n in big_ns]
        return fit_exponent(big_ns, values)

    exponent = benchmark.pedantic(_fit, rounds=1, iterations=1)
    print(f"\n[E1] asymptotic charge-model exponent {exponent:.3f} vs "
          f"paper {PAPER_EXPONENT:.3f} (k={K}, odd)")
    assert abs(exponent - PAPER_EXPONENT) <= 0.1


@pytest.mark.artifact("E1")
def bench_rounds_single_build(benchmark, scaling_graphs, scaling_ns):
    """Wall-clock of one full construction at the largest size."""
    n = scaling_ns[-1]
    graph = scaling_graphs[n]
    report = benchmark.pedantic(
        lambda: _construct(graph, k=K, seed=1),
        rounds=1, iterations=1)
    assert report.rounds > 0
    print(f"\n[E1] n={n} k={K}: {report.rounds} rounds, "
          f"phase breakdown:")
    for name, r in sorted(report.scheme.ledger.breakdown().items(),
                          key=lambda kv: -kv[1])[:6]:
        print(f"      {name:<38} {r}")

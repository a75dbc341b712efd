"""The finest-scale lemma of :mod:`repro.sketches.source_detection`,
and a guard against the sweep's return.

:func:`detect_sources` runs one rounding scale; the oracle
:func:`detect_sources_reference` sweeps all ``ceil(log2(B * W + 1))``
of them and keeps the strict minimum.  The lemma says scale 0 wins
every cell, also when a join rule prunes the propagation (a candidate
a coarse scale accepts, scale 0 accepts too).  Checked here on random
inputs at both of its steps — the rounded weights are ordered as
floats, and the two implementations agree bit for bit, with and
without a rule.  The counting tests then pin the cost: one kernel
advance per call (per row block past the memory gate), so a
reintroduced sweep fails a test, not just a benchmark.  The kernel is
the exploration's, ``bellman_ford._explore_block``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sketches.source_detection as sd_module
from repro.congest import bellman_ford as bf
from repro.congest.bellman_ford import JoinRule
from repro.exceptions import ParameterError
from repro.graphs import INF, random_connected
from repro.reference import detect_sources_reference
from repro.sketches import detect_sources


def scale_units(graph, hop_bound, eps):
    """The oracle's rounding unit per scale, by its own expressions."""
    num_scales = sd_module._scale_parameters(graph, hop_bound)
    return [(eps / 2.0) * (1 << i) / max(hop_bound, 1)
            for i in range(num_scales)]


def rounded_weights(graph, unit):
    return [math.ceil(w / unit) * unit for _u, _v, w in graph.edges()]


# eps from 1e-9 up: the construction's own eps is 1/(48 k^4) >= 1e-5,
# and below ~1e-300 eps/(2B) is subnormal — the lemma's stated
# precondition, refused by detect_sources (test_subnormal_unit_refused)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 20),
       density=st.floats(0.05, 0.6),
       wmax=st.sampled_from([1, 7, 1000, 10 ** 6]),
       seed=st.integers(0, 10_000),
       eps=st.floats(1e-9, 1.0, exclude_max=True),
       hop_share=st.floats(0.0, 1.0),
       num_sources=st.integers(1, 5),
       cut=st.one_of(st.none(), st.floats(0.0, 4.0)))
def test_finest_scale_dominates(n, density, wmax, seed, eps, hop_share,
                                num_sources, cut):
    graph = random_connected(n, density, max_weight=wmax, seed=seed)
    hop_bound = round(hop_share * n)                  # 0 .. n inclusive
    sources = list(range(0, n, max(1, n // num_sources)))

    # step 1 of the proof: every scale's rounded weights are >= scale
    # 0's, element-wise, as float64
    units = scale_units(graph, hop_bound, eps)
    finest = rounded_weights(graph, units[0])
    for i, unit in enumerate(units):
        assert unit == units[0] * (1 << i)
        coarser = rounded_weights(graph, unit)
        assert all(c >= f for c, f in zip(coarser, finest)), (i, unit)
    # the matrix kernel's vectorized rounding is the same floats
    raw = np.asarray([w for _u, _v, w in graph.edges()], dtype=np.float64)
    assert (np.ceil(raw / units[0]) * units[0]).tolist() == finest

    # the conclusion: one scale == the all-scales oracle; ``cut``
    # draws a join rule that keeps every cell at a third of the
    # vertices and cuts the rest at up to four maximum edge weights
    rule = None if cut is None else JoinRule(threshold=[
        INF if v % 3 == 0 else cut * wmax * (v % 4) for v in range(n)])
    ref = detect_sources_reference(graph, sources, hop_bound, eps,
                                   join_rule=rule)
    fast = detect_sources(graph, sources, hop_bound, eps, join_rule=rule)
    assert fast.estimate == ref.estimate
    assert fast.parent == ref.parent
    assert fast.rounds == ref.rounds


def test_subnormal_unit_refused():
    """``eps`` is in (0, 1) but ``eps / (2B)`` is not a normal float:
    the scales stop being exact multiples of it, so the one-scale
    kernel declines instead of guessing."""
    graph = random_connected(6, 0.5, seed=1)
    eps = 1e-307                    # normal; eps / 6 is not
    with pytest.raises(ParameterError, match="normal float"):
        detect_sources(graph, [0], 3, eps)


# -- one advance per call ------------------------------------------------
def test_one_matrix_advance_per_call(count_calls):
    matrix = count_calls(bf, "_explore_block")
    graph = random_connected(40, 0.1, seed=3)
    assert sd_module._scale_parameters(graph, 12) > 1   # a real sweep
    detect_sources(graph, [0, 13, 27], 12, 0.25)
    assert len(matrix) == 1


def test_one_advance_per_row_block(monkeypatch, count_calls):
    """A matrix over the memory gate advances once per block of rows,
    here one row each."""
    monkeypatch.setattr(bf, "_DENSE_CELL_LIMIT", 1)
    matrix = count_calls(bf, "_explore_block")
    graph = random_connected(40, 0.1, seed=3)
    detect_sources(graph, [0, 13, 27], 12, 0.25)
    assert len(matrix) == 3

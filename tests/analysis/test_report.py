"""Tests for the markdown report generator."""

import pytest

from repro.analysis.report import (
    experiment_report,
    scheme_sweep_markdown,
    table1_markdown,
)
from repro.analysis import generate_table1
from repro.graphs import random_connected


@pytest.fixture(scope="module")
def graph():
    return random_connected(30, 0.15, seed=1101)


def test_table1_markdown_structure(graph):
    result = generate_table1(graph, k=2, seed=3, sample_pairs=60)
    md = table1_markdown(result)
    assert md.startswith("### Table 1")
    assert "| scheme |" in md
    assert "this paper" in md
    # proper markdown table: every row has the same column count
    rows = [l for l in md.splitlines() if l.startswith("|")]
    counts = {r.count("|") for r in rows}
    assert len(counts) == 1


def test_scheme_sweep_contains_all_ks(graph):
    md = scheme_sweep_markdown(graph, ks=(2, 3), seed=3,
                               sample_pairs=60)
    assert "| 2 |" in md
    assert "| 3 |" in md
    assert "o(1)" in md


def test_experiment_report_end_to_end(graph):
    md = experiment_report(graph, ks=(2,), seed=3, sample_pairs=50,
                           graph_name="unit-test")
    assert "# Experiment report — unit-test" in md
    assert "### Table 1" in md
    assert "### Scheme sweep" in md

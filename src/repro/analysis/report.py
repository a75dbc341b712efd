"""Markdown report generation.

Turns live runs into paper-vs-measured tables (Table 1 per ``k``, then
a per-``k`` sweep of this paper's scheme), regenerated from scratch:

    from repro.analysis.report import experiment_report
    print(experiment_report(graph, ks=(2, 3), seed=7))

The output is deliberately plain markdown — paste-able into a results
note or a CI summary.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..pipeline import SchemePipeline
from ..graphs.weighted_graph import WeightedGraph
from .stretch import evaluate_estimation, evaluate_routing
from .tables import Table1Result, generate_table1


def _md_table(header: Sequence[str], rows: Iterable[Sequence[str]]
              ) -> List[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def table1_markdown(result: Table1Result) -> str:
    """One regenerated Table 1 as markdown."""
    scale = result.scale
    lines = [f"### Table 1 @ {result.graph_name} "
             f"(n={scale.n}, m={scale.m}, D={scale.hop_diameter}, "
             f"S={scale.shortest_path_diameter}, k={result.k})", ""]
    rows = []
    for row in result.rows:
        rows.append([
            row.scheme,
            f"{row.rounds:,.0f} ({row.rounds_kind})",
            f"{row.max_table_words} / {row.avg_table_words:.1f}",
            str(row.max_label_words),
            f"{row.stretch.max_stretch:.3f} "
            f"({row.stretch.mean_stretch:.3f})",
            f"{row.paper_stretch:.0f}",
        ])
    lines += _md_table(
        ["scheme", "rounds", "table words max/avg", "label words",
         "stretch max (mean)", "bound"], rows)
    return "\n".join(lines)


def scheme_sweep_markdown(graph: WeightedGraph, ks: Sequence[int],
                          seed: int = 0, sample_pairs: int = 250) -> str:
    """Per-k measured summary of this paper's scheme (E2/E3 style)."""
    rows = []
    for k in ks:
        report = (SchemePipeline().graph(graph).params(k).seed(seed)
                  .build().construction)
        routing = evaluate_routing(graph, report.scheme,
                                   sample=sample_pairs, seed=seed)
        estimation = evaluate_estimation(graph, report.estimation,
                                         sample=sample_pairs, seed=seed)
        rows.append([
            str(k),
            f"{report.rounds:,}",
            f"{report.max_table_words} / "
            f"{report.avg_table_words:.1f}",
            str(report.max_label_words),
            str(report.max_sketch_words),
            f"{routing.max_stretch:.3f} <= {max(1, 4 * k - 5)}+o(1)",
            f"{estimation.max_stretch:.3f} <= {2 * k - 1}+o(1)",
        ])
    lines = [f"### Scheme sweep (n={graph.num_vertices}, "
             f"m={graph.num_edges}, seed={seed})", ""]
    lines += _md_table(
        ["k", "rounds", "table max/avg", "label max", "sketch max",
         "routing stretch", "estimation stretch"], rows)
    return "\n".join(lines)


def experiment_report(graph: WeightedGraph, ks: Sequence[int] = (2, 3),
                      seed: int = 0, sample_pairs: int = 250,
                      graph_name: str = "workload") -> str:
    """A full paper-vs-measured markdown report for one workload."""
    sections = [f"# Experiment report — {graph_name}", ""]
    for k in ks:
        result = generate_table1(graph, k=k, seed=seed,
                                 sample_pairs=sample_pairs,
                                 graph_name=graph_name)
        sections.append(table1_markdown(result))
        sections.append("")
    sections.append(scheme_sweep_markdown(
        graph, ks, seed=seed, sample_pairs=sample_pairs))
    return "\n".join(sections)

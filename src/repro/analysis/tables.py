"""Table 1 regeneration: measured columns next to the paper's formulas.

For one workload graph and one ``k`` this harness builds every scheme —
[TZ01] centralized, [LP13a]-style, [LP15]-style, and this paper (even
and odd ``k`` differ only in which ``k`` you pass) — and reports, per
scheme: construction rounds (measured on the CONGEST accounting where
the scheme is ours, the stated models otherwise), measured table/label
words, and measured max/mean stretch on a shared pair sample.
"""

from __future__ import annotations

from typing import List, Optional

from ..baselines.lp13 import build_lp13_scheme
from ..baselines.lp15 import build_lp15_scheme
from ..baselines.tz_routing import build_tz_routing
from ..dataclass import dataclass
from ..graphs.metrics import hop_diameter, shortest_path_diameter
from ..graphs.weighted_graph import WeightedGraph
from .round_model import GraphScale, TABLE1_STRETCH, lower_bound
from .stretch import StretchReport, evaluate_routing


@dataclass
class Table1Row:
    """One scheme's measured row."""

    scheme: str
    rounds: float
    rounds_kind: str           # "measured" or "model"
    max_table_words: int
    avg_table_words: float
    max_label_words: int
    stretch: StretchReport
    paper_stretch: float

    def format(self) -> str:
        return (f"{self.scheme:<14} rounds={self.rounds:>12.0f}"
                f"[{self.rounds_kind:<8}] "
                f"tbl={self.max_table_words:>6}/"
                f"{self.avg_table_words:>8.1f} "
                f"lbl={self.max_label_words:>4} "
                f"stretch={self.stretch.max_stretch:>6.3f}"
                f"(mean {self.stretch.mean_stretch:.3f})"
                f" <= {self.paper_stretch:.0f}")


@dataclass
class Table1Result:
    """The regenerated table plus the workload's scale parameters."""

    graph_name: str
    scale: GraphScale
    k: int
    rows: List[Table1Row]

    def format(self) -> str:
        header = (f"=== Table 1 @ {self.graph_name}: n={self.scale.n} "
                  f"m={self.scale.m} D={self.scale.hop_diameter} "
                  f"S={self.scale.shortest_path_diameter} k={self.k} "
                  f"(lower bound ~{lower_bound(self.scale):.0f} rounds)")
        return "\n".join([header] + [row.format() for row in self.rows])

    def row(self, scheme: str) -> Table1Row:
        for r in self.rows:
            if r.scheme == scheme:
                return r
        raise KeyError(scheme)


def generate_table1(graph: WeightedGraph, k: int, seed: int = 0,
                    sample_pairs: Optional[int] = 400,
                    graph_name: str = "workload") -> Table1Result:
    """Build all schemes on ``graph`` and regenerate Table 1 ("this
    paper"'s rounds are measured; the baselines use analytic models)."""
    d = hop_diameter(graph)
    s = shortest_path_diameter(graph)
    scale = GraphScale(n=graph.num_vertices, m=graph.num_edges,
                       hop_diameter=d, shortest_path_diameter=s)
    rows: List[Table1Row] = []

    tz = build_tz_routing(graph, k=k, seed=seed)
    rows.append(Table1Row(
        scheme="TZ01",
        rounds=tz.construction_rounds, rounds_kind="model",
        max_table_words=tz.max_table_words(),
        avg_table_words=tz.average_table_words(),
        max_label_words=tz.max_label_words(),
        stretch=evaluate_routing(graph, tz, sample=sample_pairs,
                                 seed=seed),
        paper_stretch=TABLE1_STRETCH["TZ01 (centralized)"](k)))

    lp13 = build_lp13_scheme(graph, k=k, seed=seed)
    rows.append(Table1Row(
        scheme="LP13a",
        rounds=lp13.construction_rounds(d), rounds_kind="model",
        max_table_words=lp13.max_table_words(),
        avg_table_words=lp13.average_table_words(),
        max_label_words=lp13.max_label_words(),
        stretch=evaluate_routing(graph, lp13, sample=sample_pairs,
                                 seed=seed),
        paper_stretch=TABLE1_STRETCH["LP13a/LP15"](k)))

    lp15 = build_lp15_scheme(graph, k=k, seed=seed)
    rows.append(Table1Row(
        scheme="LP15",
        rounds=lp15.construction_rounds(d), rounds_kind="model",
        max_table_words=lp15.max_table_words(),
        avg_table_words=lp15.average_table_words(),
        max_label_words=lp15.max_label_words(),
        stretch=evaluate_routing(graph, lp15, sample=sample_pairs,
                                 seed=seed),
        paper_stretch=TABLE1_STRETCH["LP15"](k)))

    from ..pipeline import SchemePipeline
    ours = (SchemePipeline().graph(graph).params(k).seed(seed)
            .build().construction)
    rows.append(Table1Row(
        scheme="this paper",
        rounds=float(ours.rounds), rounds_kind="measured",
        max_table_words=ours.max_table_words,
        avg_table_words=ours.avg_table_words,
        max_label_words=ours.max_label_words,
        stretch=evaluate_routing(graph, ours.scheme, sample=sample_pairs,
                                 seed=seed),
        paper_stretch=TABLE1_STRETCH["this paper"](k)))

    return Table1Result(graph_name=graph_name, scale=scale, k=k, rows=rows)


def verify_table1_shape(result: Table1Result) -> List[str]:
    """Check the qualitative claims of Table 1 on a regenerated instance;
    returns a list of violated claims (empty = all hold)."""
    violations: List[str] = []
    ours = result.row("this paper")
    tz = result.row("TZ01")
    lp13 = result.row("LP13a")
    k = result.k

    if ours.stretch.max_stretch > max(1, 4 * k - 5) + 1.0:
        violations.append("this paper's stretch exceeds 4k-5+o(1)")
    if tz.stretch.max_stretch > max(1, 4 * k - 5) + 1e-6:
        violations.append("TZ01 stretch exceeds 4k-5")
    # our tables should be within polylog of TZ01's (same Õ(n^{1/k}))
    if ours.max_table_words > 0 and tz.max_table_words > 0:
        import math
        log2n = max(1.0, math.log2(result.scale.n))
        if ours.max_table_words > tz.max_table_words * 8 * log2n:
            violations.append("our tables not within polylog of TZ01")
    # LP13a labels are O(log n): far smaller than ours O(k log^2 n)
    if lp13.max_label_words > ours.max_label_words:
        violations.append("LP13a labels should be smaller than ours")
    return violations

"""Size accounting: tables / labels / sketches in RAM words.

Produces the size columns of Table 1 plus the per-scheme breakdowns the
E3 benchmark sweeps.  Every scheme type in the library exposes word
counts; this module normalizes them into one report shape.
"""

from __future__ import annotations

import math
from typing import List

from ..dataclass import dataclass
from ..graphs.weighted_graph import WeightedGraph


@dataclass
class SizeReport:
    """Word sizes of one scheme on one graph."""

    scheme_name: str
    n: int
    k: int
    max_table_words: int
    avg_table_words: float
    max_label_words: int
    avg_label_words: float = 0.0
    max_sketch_words: int = 0

    def normalized_table(self) -> float:
        """Table words divided by ``n^{1/k} log^2 n`` (the paper's own
        normalization; O(1) iff the bound is met)."""
        denom = self.n ** (1.0 / self.k) * \
            max(1.0, math.log2(self.n)) ** 2
        return self.max_table_words / denom

    def row(self) -> str:
        return (f"{self.scheme_name:<18} n={self.n:<6} k={self.k:<2} "
                f"table(max/avg)={self.max_table_words}/"
                f"{self.avg_table_words:.1f}  "
                f"label(max)={self.max_label_words}")


def measure_routing_sizes(name: str, graph: WeightedGraph, scheme,
                          k: int) -> SizeReport:
    """Normalize any routing scheme's size API into a SizeReport."""
    avg_label = 0.0
    if hasattr(scheme, "average_label_words"):
        avg_label = scheme.average_label_words()
    return SizeReport(
        scheme_name=name,
        n=graph.num_vertices,
        k=k,
        max_table_words=scheme.max_table_words(),
        avg_table_words=scheme.average_table_words(),
        max_label_words=scheme.max_label_words(),
        avg_label_words=avg_label)


def measure_sketch_sizes(name: str, graph: WeightedGraph, estimator,
                         k: int) -> SizeReport:
    """Size report for a sketching scheme."""
    return SizeReport(
        scheme_name=name,
        n=graph.num_vertices,
        k=k,
        max_table_words=0,
        avg_table_words=0.0,
        max_label_words=0,
        max_sketch_words=estimator.max_sketch_words())


def fit_exponent(ns: List[int], values: List[float]) -> float:
    """Least-squares slope of log(value) vs log(n).

    Used by the scaling benchmarks to compare measured growth against
    the paper's exponents (0.5 + 1/k etc.).
    """
    if len(ns) != len(values) or len(ns) < 2:
        raise ValueError("need at least two (n, value) samples")
    xs = [math.log(n) for n in ns]
    ys = [math.log(max(v, 1e-12)) for v in values]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    if den == 0:
        return 0.0
    return num / den

"""[LP15]-style comparator (Lenzen & Patt-Shamir, PODC 2015).

The Table-1 row this paper directly improves on: routing tables
``Õ(n^{1/k})``, labels ``O(k log^2 n)``, stretch ``4k - 3 + o(1)`` — the
same size family as [TZ01] — but round complexity

    Õ( min{ (n D)^{1/2} n^{1/k},  n^{2/3 + 2/(3k)} + D } ),

because [LP15] "delays" the large scales to level
``l_0 = (k/2)(1 + log D / log n)`` and explores the sampled graph
*without hopsets*, paying ``D * n^{1 - l_0/k} = (nD)^{1/2}`` rounds.

Structurally the produced tables/labels match the TZ-style family, so we
reuse the approximate-cluster machinery (with the trick disabled — their
stated stretch is ``4k-3``) and charge their round model, instantiated
with the measured hop diameter.  This mirrors how Table 1 itself
compares the schemes: identical size columns, different stretch and
round columns.
"""

from __future__ import annotations

import math

from ..core.routing_scheme import RoutingScheme
from ..core.scheme_builder import build_routing_scheme
from ..core.params import SchemeParams
from ..dataclass import dataclass
from ..graphs.weighted_graph import WeightedGraph


@dataclass
class LP15Scheme:
    """Wrapper: TZ-family tables/labels + the [LP15] round model."""

    scheme: RoutingScheme
    params: SchemeParams

    def route_many(self, pairs):
        return self.scheme.route_many(pairs)

    def max_table_words(self) -> int:
        return self.scheme.max_table_words()

    def average_table_words(self) -> float:
        return self.scheme.average_table_words()

    def max_label_words(self) -> int:
        return self.scheme.max_label_words()

    def construction_rounds(self, hop_diameter: int) -> int:
        """``Õ(min{(nD)^{1/2} n^{1/k}, n^{2/3+2/(3k)} + D})`` with one
        ``log n`` factor, as the Table-1 entry states."""
        n = max(self.scheme.graph.num_vertices, 2)
        k = self.params.k
        d = max(hop_diameter, 1)
        first = math.sqrt(n * d) * n ** (1.0 / k)
        second = n ** (2.0 / 3.0 + 2.0 / (3.0 * k)) + d
        return math.ceil(min(first, second) * math.log2(n))

    @property
    def stretch_bound(self) -> float:
        """Their guarantee: ``4k - 3 + o(1)``."""
        return 4 * self.params.k - 3 + 0.5


def build_lp15_scheme(graph: WeightedGraph, k: int,
                      seed: int = 0) -> LP15Scheme:
    """Build the [LP15]-style comparator (trick disabled: stretch 4k-3)."""
    scheme = build_routing_scheme(graph, k, seed=seed, use_tz_trick=False)
    return LP15Scheme(scheme=scheme, params=scheme.params)

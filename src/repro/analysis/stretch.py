"""Stretch evaluation harness.

Works against any scheme exposing ``route(u, v)`` with a ``.weight``
(routing) or any estimator exposing ``estimate(u, v)`` (sketching), and
reports the distribution of measured stretch over exhaustive or sampled
pairs.  Exact distances come from the Dijkstra oracle.
"""

from __future__ import annotations

import random
from dataclasses import field
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.scheme_builder import sample_pairs
from ..dataclass import dataclass
from ..graphs.shortest_paths import dijkstra_distances
from ..graphs.weighted_graph import WeightedGraph


@dataclass
class StretchReport:
    """Distribution of measured stretch over evaluated pairs."""

    pairs_evaluated: int
    max_stretch: float
    mean_stretch: float
    median_stretch: float
    p95_stretch: float
    worst_pair: Optional[Tuple[int, int]]

    def __str__(self) -> str:
        return (f"stretch over {self.pairs_evaluated} pairs: "
                f"max={self.max_stretch:.3f} mean={self.mean_stretch:.3f} "
                f"median={self.median_stretch:.3f} "
                f"p95={self.p95_stretch:.3f}")


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def _report(stretches: List[Tuple[float, Tuple[int, int]]]
            ) -> StretchReport:
    if not stretches:
        return StretchReport(0, 0.0, 0.0, 0.0, 0.0, None)
    values = sorted(s for s, _ in stretches)
    worst = max(stretches, key=lambda x: x[0])
    return StretchReport(
        pairs_evaluated=len(values),
        max_stretch=values[-1],
        mean_stretch=sum(values) / len(values),
        median_stretch=_percentile(values, 0.5),
        p95_stretch=_percentile(values, 0.95),
        worst_pair=worst[1])


def pairs_to_evaluate(num_vertices: int, sample: Optional[int],
                      seed: int = 0) -> List[Tuple[int, int]]:
    """All ordered pairs of distinct vertices, or a seeded sample of
    ``min(sample, n(n-1))`` distinct ones; none when there are fewer than
    two vertices."""
    if sample is None:
        return [(u, v) for u in range(num_vertices)
                for v in range(num_vertices) if u != v]
    return sample_pairs(num_vertices, sample, random.Random(seed))


def evaluate_routing(graph: WeightedGraph, scheme,
                     sample: Optional[int] = None,
                     seed: int = 0) -> StretchReport:
    """Measured routing stretch of ``scheme`` over pairs.

    Schemes exposing a batch ``route_many(pairs)`` — the paper's
    scheme, which routes on its compiled replay, and the compiled
    artifacts — are served on that path; baselines without it are
    routed one ``route(u, v)`` call at a time.
    """
    pairs = pairs_to_evaluate(graph.num_vertices, sample, seed)
    route_many = getattr(scheme, "route_many", None)
    if route_many is not None:
        routed = route_many(pairs)
    else:
        routed = [scheme.route(u, v) for u, v in pairs]
    by_source: dict = {}
    stretches: List[Tuple[float, Tuple[int, int]]] = []
    for (u, v), result in zip(pairs, routed):
        if u not in by_source:
            by_source[u] = dijkstra_distances(graph, u)
        exact = by_source[u][v]
        if exact == 0:
            continue
        stretches.append((result.weight / exact, (u, v)))
    return _report(stretches)


def evaluate_estimation(graph: WeightedGraph, estimator,
                        sample: Optional[int] = None,
                        seed: int = 0) -> StretchReport:
    """Measured estimation stretch of ``estimator.estimate`` over pairs.

    Estimators exposing ``estimate_many(pairs)`` (live Theorem-6
    sketches and compiled artifacts) answer on the batch path.
    """
    pairs = pairs_to_evaluate(graph.num_vertices, sample, seed)
    estimate_many = getattr(estimator, "estimate_many", None)
    if estimate_many is not None:
        estimates = estimate_many(pairs)
    else:
        estimates = [estimator.estimate(u, v) for u, v in pairs]
    by_source: dict = {}
    stretches: List[Tuple[float, Tuple[int, int]]] = []
    for (u, v), estimate in zip(pairs, estimates):
        if u not in by_source:
            by_source[u] = dijkstra_distances(graph, u)
        exact = by_source[u][v]
        if exact == 0:
            continue
        stretches.append((estimate / exact, (u, v)))
    return _report(stretches)


def evaluate_tree_routing(graph: WeightedGraph, tree_scheme,
                          sample: Optional[int] = None,
                          seed: int = 0) -> StretchReport:
    """Tree routing is exact *within the tree*: stretch here is measured
    against the tree path (must be 1.0) — a protocol sanity harness."""
    vertices = list(tree_scheme.tree.vertices())
    rng = random.Random(seed)
    if sample is None:
        pairs = [(u, v) for u in vertices for v in vertices if u != v]
    else:
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(sample)]
    stretches: List[Tuple[float, Tuple[int, int]]] = []
    for u, v in pairs:
        if u == v:
            continue
        routed = tree_scheme.route(u, v)
        reference = tree_scheme.tree.path_between(u, v)
        routed_w = sum(graph.weight(a, b)
                       for a, b in zip(routed, routed[1:]))
        reference_w = sum(graph.weight(a, b)
                          for a, b in zip(reference, reference[1:]))
        if reference_w == 0:
            continue
        stretches.append((routed_w / reference_w, (u, v)))
    return _report(stretches)

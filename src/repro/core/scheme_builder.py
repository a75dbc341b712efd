"""The measured report of one construction
(:class:`ConstructionReport`, built by
:class:`repro.pipeline.SchemePipeline`) and the evaluation-pair sampler
tests and benchmarks share."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .approx_clusters import ApproxClusterSystem
from .distance_estimation import DistanceEstimation
from .params import SchemeParams
from .routing_scheme import RoutingScheme


@dataclass
class ConstructionReport:
    """Everything one construction run produced and measured."""

    scheme: RoutingScheme
    estimation: DistanceEstimation
    clusters: ApproxClusterSystem
    params: SchemeParams
    rounds: int
    hop_diameter_lower_bound: int     # BFS-tree height (>= D/2)

    # measured sizes (words)
    max_table_words: int = 0
    avg_table_words: float = 0.0
    max_label_words: int = 0
    avg_label_words: float = 0.0
    max_sketch_words: int = 0

    # paper bounds for side-by-side reporting
    paper_stretch_bound: float = 0.0
    paper_round_bound: float = 0.0

    def summary(self) -> str:
        lines = [
            f"n={self.scheme.graph.num_vertices} k={self.params.k} "
            f"eps={self.params.eps:.3g}",
            f"rounds measured      : {self.rounds}",
            f"rounds paper bound   : {self.paper_round_bound:.0f}",
            f"table words max/avg  : {self.max_table_words} / "
            f"{self.avg_table_words:.1f}",
            f"label words max/avg  : {self.max_label_words} / "
            f"{self.avg_label_words:.1f}",
            f"sketch words max     : {self.max_sketch_words}",
            f"stretch paper bound  : {self.paper_stretch_bound:.3f}",
        ]
        return "\n".join(lines)


def sample_pairs(num_vertices: int, count: int,
                 rng: random.Random) -> List[Tuple[int, int]]:
    """Distinct-endpoint evaluation pairs (shared by tests/benchmarks).

    Samples ordered pairs ``(u, v)`` with ``u != v`` *without
    replacement*: the result is duplicate-free, deterministic for a
    given ``rng`` state, and has exactly ``min(count, n*(n-1))``
    entries — small graphs can never under-fill silently the way the
    old rejection-sampling loop could.
    """
    if num_vertices < 2 or count <= 0:
        return []
    total = num_vertices * (num_vertices - 1)
    chosen = (rng.sample(range(total), count) if count < total
              else list(range(total)))
    pairs = []
    for index in chosen:
        u, r = divmod(index, num_vertices - 1)
        pairs.append((u, r + (1 if r >= u else 0)))
    return pairs

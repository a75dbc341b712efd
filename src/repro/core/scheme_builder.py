"""The construction itself — :func:`run_construction`, the one body
behind :class:`repro.pipeline.SchemePipeline`, the incremental builder
and :func:`build_routing_scheme` — its measured report
(:class:`ConstructionReport`), and the evaluation-pair sampler tests
and benchmarks share."""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from ..congest.metrics import CostLedger
from ..dataclass import dataclass
from ..graphs.weighted_graph import WeightedGraph
from ..telemetry.trace import maybe_span
from .approx_clusters import ApproxClusterSystem, build_approx_clusters
from .distance_estimation import DistanceEstimation, estimation_from_clusters
from .params import SchemeParams
from .routing_scheme import RoutingScheme
from .tree_routing import build_forest_routing


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


def run_construction(graph: WeightedGraph, k: int, seed: int = 0,
                     eps_override: float = 0.0,
                     use_tz_trick: bool = True) -> ConstructionReport:
    """Build the paper's routing scheme end to end (Theorem 5) and
    measure it: hierarchy → clusters → forest → assembled scheme.

    There is one configuration of the algorithm: Theorem-1 source
    detection with its one-sided rounded estimates, over links of
    :data:`~repro.congest.messages.DEFAULT_CAPACITY_WORDS` words per
    round.  Only the inputs below vary.

    Parameters
    ----------
    graph:
        Connected weighted graph (the network).
    k:
        Stretch/size tradeoff parameter; stretch is ``4k - 5 + o(1)``.
    seed:
        Drives all sampling; identical seeds give identical schemes.
    eps_override:
        Replace the paper's ``1/(48 k^4)`` (tests / ablations only).
    use_tz_trick:
        Store member labels at level-0 centers (the 4k-5 improvement);
        disable to measure the plain ``4k-3`` variant.
    """
    build_span = maybe_span("build", attrs={
        "n": graph.num_vertices, "k": k, "seed": seed})
    clusters_span = build_span.child("build.clusters")
    clusters = build_approx_clusters(graph, k, seed=seed,
                                     eps_override=eps_override)
    clusters_span.finish()
    ledger = CostLedger()
    ledger.merge(clusters.ledger)

    forest_span = build_span.child("build.forest")
    forest = build_forest_routing(
        clusters.center, clusters.c_start, clusters.member,
        clusters.parent, graph.num_vertices, random.Random(seed + 1),
        bfs_tree=clusters.bfs_tree)
    forest_span.finish()
    ledger.merge(forest.ledger)

    assemble_span = build_span.child("build.assemble")
    started = time.perf_counter()
    scheme = RoutingScheme(graph=graph, params=clusters.params,
                           clusters=clusters, forest=forest,
                           ledger=ledger, use_tz_trick=use_tz_trick)
    ledger.add("assemble/scheme", 0,
               seconds=time.perf_counter() - started)
    started = time.perf_counter()
    estimation = estimation_from_clusters(graph, clusters)
    ledger.add("assemble/estimation", 0,
               seconds=time.perf_counter() - started)
    assemble_span.finish()
    # One synthesized child span per ledger phase, replaying the
    # phase's measured wall seconds: the trace view of exactly what
    # ``ledger.seconds_breakdown()`` reports.
    for phase_name, phase_seconds in ledger.seconds_breakdown().items():
        build_span.child("build.phase",
                         {"phase": phase_name}).finish(
            duration_s=phase_seconds)
    build_span.finish(rounds=ledger.total_rounds,
                      messages=ledger.total_messages)

    params = clusters.params
    return ConstructionReport(
        scheme=scheme,
        estimation=estimation,
        clusters=clusters,
        params=params,
        rounds=ledger.total_rounds,
        hop_diameter_lower_bound=clusters.bfs_tree.height,
        max_table_words=scheme.max_table_words(),
        avg_table_words=scheme.average_table_words(),
        max_label_words=scheme.max_label_words(),
        avg_label_words=scheme.average_label_words(),
        max_sketch_words=estimation.max_sketch_words(),
        paper_stretch_bound=params.stretch_bound,
        paper_round_bound=params.round_bound(clusters.bfs_tree.height),
    )


def build_routing_scheme(graph: WeightedGraph, k: int, seed: int = 0,
                         eps_override: float = 0.0,
                         use_tz_trick: bool = True) -> RoutingScheme:
    """The scheme :func:`run_construction` builds, without its report."""
    return run_construction(graph, k, seed=seed, eps_override=eps_override,
                            use_tz_trick=use_tz_trick).scheme


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

"""Handshake routing — the paper's footnote-2 variant.

[TZ01] (and this paper, footnote 2) note that allowing the source and
destination to *communicate once before routing* ("handshaking")
improves the achievable stretch to ``2k - 1``.  This module implements
the natural handshake on top of the scheme's existing artifacts: the
endpoints exchange their sketches (``O(n^{1/k} log n)`` words, once per
session), score every tree containing *both* of them by the estimated
round-trip through its root, and route in the best one.

Guarantees: the tree Algorithm 1 (find-tree) would use is always among
the candidates, so the handshake route provably inherits the
``4k - 5 + o(1)`` bound; choosing the estimate-minimizing tree then
typically lands near the ``2k - 1`` handshake bound, which the tests
and the E2 ablation check empirically.  (The full [TZ01] ``2k-1``
*guarantee* additionally stores pivot-path routes at every vertex; the
sketch-scored tree choice is the variant expressible with this paper's
artifacts alone.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..exceptions import SchemeError
from ..graphs.shortest_paths import INF, dijkstra_distances
from .distance_estimation import DistanceEstimation
from .routing_scheme import RoutingScheme


@dataclass
class HandshakeRouteResult:
    """A routed packet, its measured quality and the handshake's
    distance estimate."""

    source: int
    target: int
    path: List[int]
    weight: float
    tree_center: Optional[int]
    found_level: int
    exact_distance: float
    estimate: float = INF
    candidate_trees: int = 0

    @property
    def stretch(self) -> float:
        if self.exact_distance == 0:
            return 1.0
        return self.weight / self.exact_distance

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class HandshakeRouter:
    """Stretch-(2k-1+o(1)) routing via a one-shot sketch exchange.

    Wraps a :class:`RoutingScheme` and its sibling
    :class:`DistanceEstimation` (one
    :meth:`repro.pipeline.SchemePipeline.build` returns both, sharing
    the cluster system).
    """

    def __init__(self, scheme: RoutingScheme,
                 estimation: DistanceEstimation) -> None:
        if scheme.clusters is not estimation.clusters:
            raise SchemeError(
                "handshake routing needs the scheme and estimator to "
                "share one cluster system (take both from one "
                "SchemePipeline.build())")
        self.scheme = scheme
        self.estimation = estimation

    # ------------------------------------------------------------------
    def _candidate_trees(self, source: int, target: int
                         ) -> List[Tuple[float, int]]:
        """All centers whose tree holds both endpoints, scored by the
        sketch-estimated round-trip through the tree root.

        Everything here reads only the two sketches — the information
        actually exchanged by the handshake.
        """
        sketch_s = self.estimation.sketch_of(source)
        sketch_t = self.estimation.sketch_of(target)
        scored: List[Tuple[float, int]] = []
        for center, b_s in sketch_s.cluster_values.items():
            b_t = sketch_t.cluster_values.get(center)
            if b_t is None:
                continue
            scored.append((b_s + b_t, center))
        scored.sort()
        return scored

    def route(self, source: int, target: int) -> HandshakeRouteResult:
        """Handshake, pick the best shared tree, route exactly in it.

        Section-6 routing inside a tree is exact, so the route is the
        chosen cluster tree's path between the endpoints.
        """
        if source == target:
            return HandshakeRouteResult(
                source=source, target=target, path=[source], weight=0.0,
                tree_center=None, found_level=-1, exact_distance=0.0,
                estimate=0.0, candidate_trees=0)
        candidates = self._candidate_trees(source, target)
        if not candidates:
            raise SchemeError(
                f"no shared tree for ({source}, {target}); the top "
                "level should cover V")
        estimate, center = candidates[0]
        graph = self.scheme.graph
        tree = self.scheme.clusters.clusters[center].tree()
        path = tree.path_between(source, target)
        weight = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
        exact = dijkstra_distances(graph, source)[target]
        return HandshakeRouteResult(
            source=source, target=target, path=path, weight=weight,
            tree_center=center, found_level=-2, exact_distance=exact,
            estimate=estimate, candidate_trees=len(candidates))

    def handshake_words(self, source: int, target: int) -> int:
        """Words exchanged by the handshake (the two sketches)."""
        return (self.estimation.sketch_of(source).words
                + self.estimation.sketch_of(target).words)

    @property
    def guaranteed_stretch_bound(self) -> float:
        """Provable bound: inherits the scheme's ``4k - 5 + o(1)``."""
        return max(1.0, 4 * self.scheme.params.k - 5) + 0.5

    @property
    def handshake_stretch_target(self) -> float:
        """The footnote-2 target ``2k - 1 + o(1)`` (checked
        empirically by the tests)."""
        return 2 * self.scheme.params.k - 1 + 0.5

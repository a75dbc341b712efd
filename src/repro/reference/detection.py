"""Dict-based oracles for source detection and the Lemma-1 extensions.

:func:`detect_sources_reference` is the original per-source, per-scale
sweep of :func:`repro.sketches.detect_sources` — every rounding scale
explored to its full ``B`` hops, an optional join rule applied to
every improvement, the strict minimum kept — and the
executable proof of the finest-scale lemma in
:mod:`repro.sketches.source_detection`
(``tests/sketches/test_detection_equivalence.py``,
``tests/sketches/test_finest_scale_lemma.py``,
``tests/core/test_cluster_equivalence.py``).  It packs its dicts into
the same ``|V'| × n`` matrices the batched kernel returns.

:func:`broadcast_extension_reference` and :func:`spt_extension_reference`
are the per-vertex loops over ``estimate[y]`` that the two extensions
over ``V'`` — Phase 2 of the large cluster levels (rule (15)) and step
5 of the approximate SPT — used to be; the production sweeps over the
detection's rows are held to them in
``tests/core/test_broadcast_extension.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.bellman_ford import JoinRule
from ..congest.bfs import BFSTree
from ..graphs.shortest_paths import INF
from ..graphs.weighted_graph import WeightedGraph
from ..sketches.source_detection import (
    SourceDetectionResult,
    _charged_rounds,
    _scale_parameters,
    _validate,
)


def _bounded_bellman_ford(graph: WeightedGraph, source: int, hop_bound: int,
                          weight_of, rule: Optional[JoinRule] = None
                          ) -> Tuple[List[float], List[Optional[int]]]:
    """``hop_bound`` Bellman–Ford iterations from ``source`` under a
    (possibly rounded) weight function; returns (dist, parent).

    A vertex records an improvement — and relays it in the next
    iteration — only if the optional join ``rule`` accepts it, checked
    once per winner.  The source's own seeded 0 never improves (rounded
    weights are positive), so a self-cell is always kept.

    The frontier is processed in sorted vertex order so equal-distance
    parent ties resolve deterministically (and identically to the
    batched implementation's CSR scan order)."""
    n = graph.num_vertices
    dist: List[float] = [INF] * n
    parent: List[Optional[int]] = [None] * n
    dist[source] = 0
    frontier = {source}
    for _ in range(hop_bound):
        if not frontier:
            break
        updates: Dict[int, Tuple[float, int]] = {}
        for u in sorted(frontier):
            du = dist[u]
            for v, raw_w in graph.neighbor_weights(u):
                nd = du + weight_of(raw_w)
                best = updates.get(v)
                if nd < dist[v] and (best is None or nd < best[0]):
                    updates[v] = (nd, u)
        frontier = set()
        for v, (nd, via) in updates.items():
            if nd < dist[v] and (rule is None
                                 or rule.accepts(v, source, nd)):
                dist[v] = nd
                parent[v] = via
                frontier.add(v)
    return dist, parent


def detection_dicts_reference(graph: WeightedGraph, sources: Sequence[int],
                              hop_bound: int, eps: float,
                              join_rule: Optional[JoinRule] = None
                              ) -> Tuple[List[int], List[Dict[int, float]],
                                         List[Dict[int, Optional[int]]]]:
    """The oracle's own cells: ``(sources, estimate, parent)`` as the
    original dict-of-dict implementation built them, kept verbatim
    (modulo the sorted-frontier tie pin and the optional ``join_rule``,
    which every scale's propagation applies to each improvement).  Its
    values carry the oracle's own types — the ``int`` 0 at a source's
    own cell."""
    source_list = _validate(graph, sources, hop_bound, eps)
    n = graph.num_vertices
    num_scales = _scale_parameters(graph, hop_bound)

    estimate: List[Dict[int, float]] = [dict() for _ in range(n)]
    parent: List[Dict[int, Optional[int]]] = [dict() for _ in range(n)]

    # eps/2 internally: the winning scale contributes <= eps/2 * 2 = eps
    # relative error (see repro.sketches.source_detection).
    eps_internal = eps / 2.0
    for s in source_list:
        best: List[float] = [INF] * n
        best_parent: List[Optional[int]] = [None] * n
        for i in range(num_scales):
            delta = 1 << i
            unit = eps_internal * delta / max(hop_bound, 1)
            if unit <= 0:
                continue

            def rounded(w: int, _unit=unit) -> float:
                return math.ceil(w / _unit) * _unit

            dist, par = _bounded_bellman_ford(graph, s, hop_bound,
                                              rounded, join_rule)
            for u in range(n):
                if dist[u] < best[u]:
                    best[u] = dist[u]
                    best_parent[u] = par[u]
        for u in range(n):
            if best[u] < INF:
                estimate[u][s] = best[u]
                parent[u][s] = best_parent[u]
    return source_list, estimate, parent


def detect_sources_reference(graph: WeightedGraph, sources: Sequence[int],
                             hop_bound: int, eps: float,
                             bfs_tree: Optional[BFSTree] = None,
                             join_rule: Optional[JoinRule] = None
                             ) -> SourceDetectionResult:
    """Per-source, per-scale oracle for
    :func:`repro.sketches.detect_sources`: the cells of
    :func:`detection_dicts_reference`, packed into the result's
    ``|V'| × n`` matrices."""
    source_list, estimate, parent = detection_dicts_reference(
        graph, sources, hop_bound, eps, join_rule=join_rule)
    n = graph.num_vertices
    height = bfs_tree.height if bfs_tree is not None else 0
    rounds = _charged_rounds(len(source_list), hop_bound, eps, height,
                             _scale_parameters(graph, hop_bound))
    dist = np.full((len(source_list), n), INF)
    par = np.full((len(source_list), n), -1, dtype=np.int64)
    row_of = {s: r for r, s in enumerate(source_list)}
    for u in range(n):
        for s, value in estimate[u].items():
            p = parent[u][s]
            dist[row_of[s], u] = value
            par[row_of[s], u] = -1 if p is None else p
    return SourceDetectionResult(sources=source_list, dist=dist, par=par,
                                 rounds=rounds, hop_bound=hop_bound,
                                 eps=eps)


def broadcast_extension_reference(centers: Sequence[int],
                                  virt_value: Dict[int, Dict[int, float]],
                                  detection: SourceDetectionResult,
                                  next_pivot_hat: List[float],
                                  eps: float) -> Tuple[Dict, int]:
    """Phase 2 of a large cluster level as the per-vertex loop: every
    ``y`` takes, per center ``u``, the first strict minimum of
    ``d̂(y, v) + b_v(u)`` over ``estimate[y]`` in key order, and joins
    ``C̃(u)`` under rule (15) unless it is a Phase-1 member.  Returns
    the new members — center -> ``{y: (b_y(u), parent)}`` in the order
    they join — and the broadcast words (3 per announced value)."""
    n = len(next_pivot_hat)
    one_plus = 1.0 + eps
    # index the broadcast values by the V' vertex that announces them
    announced: Dict[int, List[Tuple[int, float]]] = {}
    broadcast_words = 0
    for u in centers:
        for v, b in virt_value[u].items():
            announced.setdefault(v, []).append((u, b))
            broadcast_words += 3

    # rule (15) per-vertex budgets, precomputed like the other plans
    thresholds15 = [t / one_plus for t in next_pivot_hat]
    joined: Dict[int, Dict[int, Tuple[float, Optional[int]]]] = {
        u: {} for u in centers}
    for y in range(n):
        threshold = thresholds15[y]
        best: Dict[int, Tuple[float, int]] = {}
        for v, d_yv in detection.estimate[y].items():
            for u, bv in announced.get(v, ()):
                candidate = d_yv + bv
                if candidate < best.get(u, (INF, -1))[0]:
                    best[u] = (candidate, v)
        for u, (candidate, v_star) in best.items():
            if y in virt_value[u]:
                continue  # C̃'(u) members keep their Phase-1 values
            if candidate < threshold:
                joined[u][y] = (candidate,
                                detection.parent[y].get(v_star))
    return joined, broadcast_words


def spt_extension_reference(detection: SourceDetectionResult,
                            dist_vp: Dict[int, float],
                            witness_vp: Dict[int, Optional[int]]
                            ) -> Tuple[List[float], List[Optional[int]]]:
    """Step 5 of the approximate SPT as the per-vertex loop:
    ``d̂(u) = min_{v∈V'} (d_uv + d̂(v))``, first strict minimum over
    ``estimate[u]`` in key order, and its witness."""
    n = len(detection.estimate)
    dist_hat: List[float] = [INF] * n
    witness: List[Optional[int]] = [None] * n
    for u in range(n):
        best = INF
        best_witness: Optional[int] = None
        for v, duv in detection.estimate[u].items():
            dv = dist_vp.get(v, INF)
            if duv + dv < best:
                best = duv + dv
                best_witness = witness_vp.get(v)
        dist_hat[u] = best
        witness[u] = best_witness
    return dist_hat, witness

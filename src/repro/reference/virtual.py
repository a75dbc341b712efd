"""Dict-based oracles for the virtual plane (Section 3.3): the object
model the ``V' × V'`` matrices of :mod:`repro.hopsets` replaced, held to
them by ``tests/hopsets/test_virtual_plane_equivalence.py``.

``G'`` is an adjacency-dict :class:`VirtualGraph` built by a loop over
the detection's ``V'`` columns; the hopset comes from one dict Dijkstra
with parents per vertex; β from synchronized Bellman–Ford from every
vertex; Phase 1 and the approximate SPT's set-rooted Bellman–Ford are
per-vertex loops whose frontier is kept in first-touch order.  Vertices
keep their original names; a hopset edge is ``(u, v, weight, path)``,
``path`` running from ``u``, the endpoint whose Dijkstra found it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Sequence

from ..congest.messages import DEFAULT_CAPACITY_WORDS
from ..congest.metrics import pipelined_rounds
from ..exceptions import HopsetError
from ..graphs.shortest_paths import INF
from ..hopsets.construction import sample_hierarchy


class VirtualGraph:
    """A weighted graph on named vertices, as adjacency dicts in
    insertion order (an existing edge is overwritten in place)."""

    def __init__(self, vertices: Sequence[int]) -> None:
        self._vertices = sorted(set(vertices))
        self._adj: Dict[int, Dict[int, float]] = {
            v: {} for v in self._vertices}

    def add_edge(self, u: int, v: int, weight: float) -> None:
        self._adj[u][v] = self._adj[v][u] = weight

    def copy(self) -> "VirtualGraph":
        other = VirtualGraph(self._vertices)
        for u, v, w in self.edges():
            other.add_edge(u, v, w)
        return other

    def vertices(self) -> List[int]:
        return list(self._vertices)

    def neighbor_weights(self, u: int):
        return iter(self._adj[u].items())

    def edges(self):
        for u in self._vertices:
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)


def virtual_graph_reference(detection) -> VirtualGraph:
    """``G'``: the edge ``{u, v}``, ``u < v``, weighs the cell
    ``dist[row(v), u]``; edges are added in ascending ``(u, v)``."""
    sources = detection.sources
    virt = VirtualGraph(sources)
    between = detection.dist[:, sources].T.tolist()
    for i, u in enumerate(sources):
        for j in range(i + 1, len(sources)):
            if between[i][j] < INF:
                virt.add_edge(u, sources[j], between[i][j])
    return virt


def virtual_dijkstra_reference(virtual: VirtualGraph, source: int):
    """Dijkstra over the virtual graph: ``(dist, parent)`` dicts, a
    parent changing only on a strict improvement."""
    dist = {v: INF for v in virtual.vertices()}
    parent = {v: None for v in virtual.vertices()}
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in virtual.neighbor_weights(u):
            if d + w < dist[v]:
                dist[v], parent[v] = d + w, u
                heapq.heappush(heap, (d + w, v))
    return dist, parent


def build_hopset_reference(virtual: VirtualGraph, eps: float, rho: float,
                           rng, height: int):
    """The Thorup–Zwick hopset by one dict Dijkstra per vertex.

    Returns ``(edges, augmented, rounds, beta)``: the edges keyed by
    their sorted endpoints (a duplicate keeps the lighter, the first on
    a tie), ``G''`` (``G'`` with the hopset's weights written over it,
    new edges appended to the adjacency in hopset order), the round
    charge and the measured hopbound.
    """
    vertices = virtual.vertices()
    if len(vertices) <= 1:
        return {}, virtual.copy(), 0, 1
    levels = max(2, math.ceil(1.0 / rho))
    hierarchy = sample_hierarchy(vertices, levels, rng)
    level_of = {v: i for i, level in enumerate(hierarchy) for v in level}
    edges: Dict = {}
    words = 0
    for u in vertices:
        i = level_of[u]
        dist, parent = virtual_dijkstra_reference(virtual, u)
        pivot, pivot_dist = None, INF
        if i + 1 < levels and hierarchy[i + 1]:
            pivot = min(hierarchy[i + 1], key=lambda x: (dist[x], x))
            pivot_dist = dist[pivot]
        found = [v for v in vertices if v != u and level_of[v] >= i
                 and dist[v] < pivot_dist and dist[v] < INF]
        if pivot is not None and pivot_dist < INF:
            found.append(pivot)
        for v in found:
            path = [v]
            while path[-1] != u:
                path.append(parent[path[-1]])
            words += len(path)
            key = (min(u, v), max(u, v))
            if key in edges and edges[key][2] <= dist[v]:
                continue
            edges.pop(key, None)
            edges[key] = (u, v, dist[v], tuple(reversed(path)))
    rounds = levels * pipelined_rounds(2 * words, DEFAULT_CAPACITY_WORDS,
                                       height)
    augmented = virtual.copy()
    for u, v, weight, _ in edges.values():
        augmented.add_edge(u, v, weight)
    return edges, augmented, rounds, measure_hopbound_reference(
        virtual, augmented, eps)


def measure_hopbound_reference(base: VirtualGraph, augmented: VirtualGraph,
                               eps: float) -> int:
    """Smallest β with ``d^(β)_augmented <= (1+eps) d_base`` on every
    pair, by synchronized Bellman–Ford sweeps from every vertex."""
    vertices = base.vertices()
    if len(vertices) <= 1:
        return 1
    targets = {u: {v: (1.0 + eps) * d for v, d in
                   virtual_dijkstra_reference(base, u)[0].items()
                   if v != u and d < INF} for u in vertices}
    current = {u: {u: 0.0} for u in vertices}
    for beta in range(1, len(vertices) + 1):
        for cur in current.values():
            updates: Dict[int, float] = {}
            for x, dx in list(cur.items()):
                for y, w in augmented.neighbor_weights(x):
                    if dx + w < min(cur.get(y, INF), updates.get(y, INF)):
                        updates[y] = dx + w
            cur.update(updates)
        if all(current[u].get(v, INF) <= t + 1e-9
               for u in vertices for v, t in targets[u].items()):
            return beta
    raise HopsetError(f"hopbound not reached within {len(vertices)} "
                      "iterations")


def virtual_exploration_reference(virtual: VirtualGraph,
                                  sources: Sequence[int], iterations: int,
                                  threshold: Dict[int, float], height: int):
    """Phase 1 as a per-vertex loop: ``(dist, parent, rounds)`` with
    ``dist[v][s]`` the estimate of ``v`` for source ``s``.  A vertex
    keeps an improving winner only below ``threshold[v]``; every
    iteration's fresh estimates cost a Lemma-1 exchange of 3 words
    each."""
    dist = {v: {} for v in virtual.vertices()}
    parent = {v: {} for v in virtual.vertices()}
    frontier: Dict[int, List[int]] = {}
    for s in sources:
        dist[s][s], parent[s][s] = 0.0, None
        frontier.setdefault(s, []).append(s)
    rounds = 0
    for _ in range(iterations):
        if not frontier:
            break
        rounds += 2 * pipelined_rounds(
            3 * sum(map(len, frontier.values())), DEFAULT_CAPACITY_WORDS,
            height)
        updates: Dict[int, Dict] = {}
        for u, updated_sources in frontier.items():
            for v, weight in virtual.neighbor_weights(u):
                bucket = updates.setdefault(v, {})
                for s in updated_sources:
                    nd = dist[u][s] + weight
                    if s not in bucket or nd < bucket[s][0]:
                        bucket[s] = (nd, u)
        frontier = {}
        for v, bucket in updates.items():
            changed = [s for s, (nd, _) in bucket.items()
                       if nd < dist[v].get(s, INF) and nd < threshold[v]]
            for s in changed:
                dist[v][s], parent[v][s] = bucket[s]
            if changed:
                frontier[v] = changed
    return dist, parent, rounds


def set_rooted_bellman_ford_reference(virtual: VirtualGraph,
                                      roots: Sequence[int], iterations: int,
                                      height: int):
    """Bellman–Ford over ``G''`` with every root at distance 0:
    ``(dist, witness, rounds)``, 3 broadcast words per fresh update."""
    dist = {v: INF for v in virtual.vertices()}
    witness = {v: None for v in virtual.vertices()}
    for r in roots:
        dist[r], witness[r] = 0.0, r
    frontier = list(roots)
    rounds = 0
    for _ in range(iterations):
        if not frontier:
            break
        rounds += 2 * pipelined_rounds(3 * len(frontier),
                                       DEFAULT_CAPACITY_WORDS, height)
        updates: Dict[int, tuple] = {}
        for u in frontier:
            for v, w in virtual.neighbor_weights(u):
                nd = dist[u] + w
                if nd < dist[v] and (v not in updates
                                     or nd < updates[v][0]):
                    updates[v] = (nd, witness[u])
        frontier = [v for v, (nd, _) in updates.items() if nd < dist[v]]
        for v in frontier:
            dist[v], witness[v] = updates[v]
    return dist, witness, rounds

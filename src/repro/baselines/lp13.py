"""[LP13a]-style comparator (Lenzen & Patt-Shamir, STOC 2013).

Table 1 contrasts the paper against [LP13a], whose defining weakness is
**table size**: every vertex must know an entire *skeleton spanner* on a
``~sqrt(n)`` sample, so tables are ``Ω(sqrt(n))`` words for every ``k``
(``Õ(n^{1/2+1/k})`` in general), while labels stay ``O(log n)`` and the
round complexity is the near-optimal ``Õ(n^{1/2+1/k} + D)``.

We reimplement the scheme's *structure* (their exact constants are tied
to their pipeline, which is closed):

* a skeleton ``S`` is sampled with probability ``1/sqrt(n)``;
* a greedy ``(2k-1)``-spanner of the skeleton's metric closure is
  computed, and **every vertex stores all its edges** (the table-size
  culprit, reproduced faithfully);
* every vertex also stores next-hop routing for its ``ceil(sqrt(n))``
  closest vertices (its *ball* — [LP13a] handle nearby targets
  directly) and a route to its nearest skeleton vertex;
* the label of ``v`` is ``(v, s(v), d(v, s(v)))`` — ``O(log n)`` words.

Routing: ball hit → direct shortest-path next-hops; otherwise climb to
``s(u)``, walk the spanner path to ``s(v)`` (computable locally because
the whole spanner is known!), then descend ``s(v) → v`` along the
skeleton vertex's shortest-path tree.

Round accounting uses their stated bound ``Õ(n^{1/2+1/k} + D)`` with
the measured hop diameter substituted for ``D`` and the ``Õ`` read as
a single ``log2 n`` factor (:meth:`LP13Scheme.construction_rounds`);
it is a model, not a simulated execution.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Set, Tuple

from ..core.params import SchemeParams
from ..dataclass import dataclass
from ..exceptions import ParameterError, SchemeError
from ..graphs.shortest_paths import INF, dijkstra, dijkstra_distances
from ..graphs.weighted_graph import WeightedGraph


@dataclass
class LP13Label:
    """Label: target name, its skeleton home, and the climb distance."""

    vertex: int
    home: int
    home_distance: float

    @property
    def words(self) -> int:
        return 3


class LP13Scheme:
    """The assembled [LP13a]-style scheme."""

    def __init__(self, graph: WeightedGraph, params: SchemeParams,
                 skeleton: List[int],
                 spanner_edges: List[Tuple[int, int, float]],
                 spanner_paths: Dict[Tuple[int, int], List[int]],
                 ball_next_hop: List[Dict[int, int]],
                 home: List[int], home_next_hop: List[Optional[int]],
                 home_distance: List[float],
                 descend_next_hop: Dict[int, Dict[Tuple[int, int], int]]
                 ) -> None:
        self.graph = graph
        self.params = params
        self.skeleton = skeleton
        self.spanner_edges = spanner_edges
        self._spanner_paths = spanner_paths
        self._ball_next_hop = ball_next_hop
        self._home = home
        self._home_next_hop = home_next_hop
        self._home_distance = home_distance
        self._descend_next_hop = descend_next_hop
        self._spanner_adj: Dict[int, List[Tuple[int, float]]] = {}
        for a, b, w in spanner_edges:
            self._spanner_adj.setdefault(a, []).append((b, w))
            self._spanner_adj.setdefault(b, []).append((a, w))
        self._distance_cache: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------
    def label_of(self, v: int) -> LP13Label:
        return LP13Label(vertex=v, home=self._home[v],
                         home_distance=self._home_distance[v])

    def table_words(self, v: int) -> int:
        # the whole spanner (3 words/edge) + ball next-hops + home route
        return 3 * len(self.spanner_edges) + \
            2 * len(self._ball_next_hop[v]) + 3 + \
            2 * len(self._descend_next_hop.get(v, ()))

    def max_table_words(self) -> int:
        return max(self.table_words(v) for v in self.graph.vertices())

    def average_table_words(self) -> float:
        n = self.graph.num_vertices
        return sum(self.table_words(v) for v in self.graph.vertices()) / n

    def max_label_words(self) -> int:
        return 3

    # ------------------------------------------------------------------
    def _spanner_route(self, a: int, b: int) -> List[int]:
        """Skeleton path from a to b in the spanner (local Dijkstra over
        the fully-known spanner), expanded to graph vertices."""
        dist: Dict[int, float] = {a: 0.0}
        parent: Dict[int, Optional[int]] = {a: None}
        heap: List[Tuple[float, int]] = [(0.0, a)]
        done: Set[int] = set()
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            done.add(x)
            if x == b:
                break
            for y, w in self._spanner_adj.get(x, ()):
                nd = d + w
                if nd < dist.get(y, INF):
                    dist[y] = nd
                    parent[y] = x
                    heapq.heappush(heap, (nd, y))
        if b not in parent:
            raise SchemeError(f"skeleton {a} cannot reach {b} in spanner")
        hops = [b]
        while hops[-1] != a:
            hops.append(parent[hops[-1]])
        hops.reverse()
        # expand each spanner edge into its underlying graph path
        full = [a]
        for x, y in zip(hops, hops[1:]):
            key = (x, y) if (x, y) in self._spanner_paths else (y, x)
            segment = self._spanner_paths[key]
            if segment[0] != x:
                segment = segment[::-1]
            full.extend(segment[1:])
        return full

    def route(self, source: int, target: int) -> "LP13RouteResult":
        n = self.graph.num_vertices
        if not 0 <= source < n or not 0 <= target < n:
            raise ParameterError(
                f"route endpoints ({source}, {target}) out of range")
        exact = self._exact_distance(source, target)
        if source == target:
            return LP13RouteResult(source, target, [source], 0.0, 0.0)
        path = [source]
        current = source
        guard = 0
        while current != target:
            guard += 1
            if guard > 6 * n:
                raise SchemeError(
                    f"LP13 routing loop {source} -> {target}")
            nxt = self._ball_next_hop[current].get(target)
            if nxt is not None:
                path.append(nxt)
                current = nxt
                continue
            # mid-descent: this vertex lies on home(target)'s SPT to it
            home_t = self._home[target]
            nxt = self._descend_next_hop.get(current, {}).get(
                (home_t, target))
            if nxt is not None:
                path.append(nxt)
                current = nxt
                continue
            # climb to this vertex's home skeleton vertex
            if current != self._home[current]:
                nxt = self._home_next_hop[current]
                assert nxt is not None
                path.append(nxt)
                current = nxt
                continue
            # at a skeleton vertex: spanner-walk to the target's home
            if current != home_t:
                segment = self._spanner_route(current, home_t)
                path.extend(segment[1:])
                current = home_t
                continue
            raise SchemeError(
                f"descent from {current} to {target} missing")
        weight = sum(self.graph.weight(a, b)
                     for a, b in zip(path, path[1:]))
        return LP13RouteResult(source, target, path, weight, exact)

    def _exact_distance(self, source: int, target: int) -> float:
        if source not in self._distance_cache:
            if len(self._distance_cache) > 256:
                self._distance_cache.clear()
            self._distance_cache[source] = dijkstra_distances(
                self.graph, source)
        return self._distance_cache[source][target]

    def construction_rounds(self, hop_diameter: int) -> int:
        """[LP13a]'s stated bound ``Õ(n^{1/2+1/k} + D)`` instantiated with
        a single ``log n`` factor."""
        n = max(self.graph.num_vertices, 2)
        k = self.params.k
        return math.ceil((n ** (0.5 + 1.0 / k) + hop_diameter)
                         * math.log2(n))


@dataclass
class LP13RouteResult:
    source: int
    target: int
    path: List[int]
    weight: float
    exact_distance: float

    @property
    def stretch(self) -> float:
        if self.exact_distance == 0:
            return 1.0
        return self.weight / self.exact_distance


def _greedy_spanner(vertices: List[int],
                    pair_dist: Dict[Tuple[int, int], float],
                    stretch: float) -> List[Tuple[int, int, float]]:
    """Classic greedy ``stretch``-spanner of a metric over ``vertices``."""
    pairs = sorted((d, a, b) for (a, b), d in pair_dist.items() if a < b)
    adj: Dict[int, List[Tuple[int, float]]] = {v: [] for v in vertices}
    edges: List[Tuple[int, int, float]] = []

    def spanner_dist(a: int, b: int, cutoff: float) -> float:
        dist = {a: 0.0}
        heap = [(0.0, a)]
        done = set()
        while heap:
            d, x = heapq.heappop(heap)
            if x in done:
                continue
            if d > cutoff:
                return INF
            done.add(x)
            if x == b:
                return d
            for y, w in adj[x]:
                nd = d + w
                if nd < dist.get(y, INF) and nd <= cutoff:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        return INF

    for d, a, b in pairs:
        if spanner_dist(a, b, stretch * d) > stretch * d:
            adj[a].append((b, d))
            adj[b].append((a, d))
            edges.append((a, b, d))
    return edges


def build_lp13_scheme(graph: WeightedGraph, k: int, seed: int = 0
                      ) -> LP13Scheme:
    """Build the [LP13a]-style comparator."""
    graph.require_connected()
    n = graph.num_vertices
    params = SchemeParams(n=n, k=k)
    rng = random.Random(seed)

    probability = 1.0 / math.sqrt(max(n, 2))
    skeleton = sorted(v for v in graph.vertices()
                      if rng.random() < probability)
    if not skeleton:
        skeleton = [rng.randrange(n)]

    # metric closure on the skeleton + realizing paths
    pair_dist: Dict[Tuple[int, int], float] = {}
    skeleton_paths: Dict[Tuple[int, int], List[int]] = {}
    parents: Dict[int, List[Optional[int]]] = {}
    dists: Dict[int, List[float]] = {}
    for s in skeleton:
        dist, parent = dijkstra(graph, s)
        dists[s] = dist
        parents[s] = parent
        for t in skeleton:
            if t > s and dist[t] < INF:
                pair_dist[(s, t)] = dist[t]

    spanner = _greedy_spanner(skeleton, pair_dist, stretch=2 * k - 1)
    for a, b, _ in spanner:
        path = [b]
        while path[-1] != a:
            path.append(parents[a][path[-1]])
        path.reverse()
        skeleton_paths[(a, b)] = path

    # homes: nearest skeleton vertex, with the climbing next-hop
    from ..graphs.shortest_paths import dijkstra_to_set
    home_dist, home_of = dijkstra_to_set(graph, skeleton)
    home_next: List[Optional[int]] = [None] * n
    for v in graph.vertices():
        if home_of[v] == v:
            continue
        best = None
        for u, w in graph.neighbor_weights(v):
            if home_dist[u] + w == home_dist[v] and home_of[u] is not None:
                if best is None or u < best:
                    best = u
        home_next[v] = best

    # balls: next hops toward the ceil(sqrt(n)) closest vertices
    ball_size = math.ceil(math.sqrt(n))
    ball_next: List[Dict[int, int]] = []
    for v in graph.vertices():
        dist, parent = dijkstra(graph, v)
        order = sorted(graph.vertices(), key=lambda x: (dist[x], x))
        entries: Dict[int, int] = {}
        for t in order[1:ball_size + 1]:
            if dist[t] == INF:
                break
            # first hop from v toward t
            hop = t
            while parent[hop] is not None and parent[hop] != v:
                hop = parent[hop]
            entries[t] = hop
        ball_next.append(entries)

    # descent tables: every vertex on the SPT path from home(v) to v
    # stores the next hop for (home(v), v) — the forwarding state the
    # real scheme installs along home trees
    descend: Dict[int, Dict[Tuple[int, int], int]] = {}
    for v in graph.vertices():
        s = home_of[v]
        if s is None or s == v:
            continue
        parent = parents[s]
        path = [v]
        while path[-1] != s:
            path.append(parent[path[-1]])
        path.reverse()  # s ... v
        for x, nxt in zip(path, path[1:]):
            descend.setdefault(x, {})[(s, v)] = nxt

    return LP13Scheme(graph=graph, params=params, skeleton=skeleton,
                      spanner_edges=spanner,
                      spanner_paths=skeleton_paths,
                      ball_next_hop=ball_next, home=home_of,
                      home_next_hop=home_next, home_distance=home_dist,
                      descend_next_hop=descend)

"""Workload graph generators.

The paper's algorithm targets arbitrary weighted networks, and its round
bound ``(n^(1/2+1/k) + D) * n^o(1)`` is most interesting when the
hop-diameter ``D`` is small while the shortest-path diameter ``S`` is
large.  The generators here cover the regimes the evaluation needs:

* **random_connected**        — Erdős–Rényi conditioned on connectivity,
* **random_geometric**        — mesh-like networks with large D,
* **grid**                    — worst-ish case ``D = Theta(sqrt(n))``,
* **ring_of_cliques**         — small D, heavy local congestion,
* **star_of_paths**           — small D with huge ``S`` under weights,
* **expander_like**           — random regular, ``D = O(log n)``,
* **weighted_small_world**    — ring + chords, the classic routing workload,
* **caterpillar_tree** / **random_tree** — tree-routing workloads (Thm 7),
* **barbell**                 — two dense blobs joined by a path.

Every generator takes an explicit ``random.Random`` (or a seed) so runs are
reproducible, and returns a connected :class:`WeightedGraph` with integer
weights in ``[1, max_weight]``.

:data:`WORKLOADS` names the sized families the CLI, the pipeline and the
benchmarks build (``make_workload``); it lives here, not beside the
construction, so the CLI can list the names without importing it.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..dataclass import dataclass
from ..exceptions import ParameterError
from .weighted_graph import WeightedGraph

RandomLike = Union[int, random.Random, None]


def _rng(seed: RandomLike) -> random.Random:
    """Normalize a seed-or-Random argument into a ``random.Random``."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _random_weight(rng: random.Random, max_weight: int) -> int:
    if max_weight < 1:
        raise ParameterError(f"max_weight must be >= 1, got {max_weight}")
    return rng.randint(1, max_weight)


def _ensure_connected_by_spanning_tree(graph: WeightedGraph,
                                       rng: random.Random,
                                       max_weight: int) -> None:
    """Add random-tree edges between components until connected."""
    n = graph.num_vertices
    if n <= 1:
        return
    component = [-1] * n
    comps: List[List[int]] = []
    for start in range(n):
        if component[start] != -1:
            continue
        comp_id = len(comps)
        members = graph.connected_component(start)
        for u in members:
            component[u] = comp_id
        comps.append(members)
    while len(comps) > 1:
        a = comps.pop()
        b = comps[-1]
        u = rng.choice(a)
        v = rng.choice(b)
        graph.add_edge(u, v, _random_weight(rng, max_weight))
        b.extend(a)


def random_connected(n: int, edge_probability: float = 0.05,
                     max_weight: int = 100,
                     seed: RandomLike = None) -> WeightedGraph:
    """Erdős–Rényi ``G(n, p)`` patched into connectivity.

    A uniform random spanning structure is added across components so the
    result is always connected (required by every routing algorithm here).
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ParameterError(
            f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = _rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                graph.add_edge(u, v, _random_weight(rng, max_weight))
    _ensure_connected_by_spanning_tree(graph, rng, max_weight)
    return graph


def random_geometric(n: int, radius: Optional[float] = None,
                     max_weight: int = 100,
                     seed: RandomLike = None) -> WeightedGraph:
    """Random geometric graph on the unit square.

    Vertices are uniform points; an edge joins points within ``radius``.
    The default radius ``sqrt(2.5 ln n / (pi n))`` is slightly above the
    connectivity threshold.  Produces mesh-like networks with
    ``D = Theta(1/radius)``.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    if radius is None:
        radius = math.sqrt(2.5 * math.log(max(n, 2)) / (math.pi * n))
    points: List[Tuple[float, float]] = [(rng.random(), rng.random())
                                         for _ in range(n)]
    graph = WeightedGraph(n)
    r2 = radius * radius
    for u in range(n):
        xu, yu = points[u]
        for v in range(u + 1, n):
            xv, yv = points[v]
            if (xu - xv) ** 2 + (yu - yv) ** 2 <= r2:
                graph.add_edge(u, v, _random_weight(rng, max_weight))
    _ensure_connected_by_spanning_tree(graph, rng, max_weight)
    return graph


def grid(rows: int, cols: int, max_weight: int = 100,
         seed: RandomLike = None) -> WeightedGraph:
    """``rows x cols`` grid; ``D = rows + cols - 2``."""
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be >= 1")
    rng = _rng(seed)
    graph = WeightedGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                graph.add_edge(u, u + 1, _random_weight(rng, max_weight))
            if r + 1 < rows:
                graph.add_edge(u, u + cols, _random_weight(rng, max_weight))
    return graph


def ring_of_cliques(num_cliques: int, clique_size: int,
                    max_weight: int = 100,
                    seed: RandomLike = None) -> WeightedGraph:
    """``num_cliques`` cliques of ``clique_size`` joined in a ring.

    Small hop-diameter relative to ``n`` but heavy intra-clique congestion;
    stresses the CONGEST capacity accounting.
    """
    if num_cliques < 1 or clique_size < 1:
        raise ParameterError("num_cliques and clique_size must be >= 1")
    rng = _rng(seed)
    n = num_cliques * clique_size
    graph = WeightedGraph(n)
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                graph.add_edge(base + i, base + j,
                               _random_weight(rng, max_weight))
    if num_cliques > 1:
        for c in range(num_cliques):
            u = c * clique_size
            v = ((c + 1) % num_cliques) * clique_size
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, _random_weight(rng, max_weight))
    return graph


def star_of_paths(num_arms: int, arm_length: int,
                  heavy_weight: int = 1000,
                  seed: RandomLike = None) -> WeightedGraph:
    """A hub with ``num_arms`` paths of ``arm_length``, plus unit chords.

    Arm edges get weight 1 while hub chords get ``heavy_weight``; shortest
    paths then prefer walking along arms through many hops, so ``S`` is
    large while ``D`` (through the hub) stays ``O(arm_length)`` — the regime
    separating this paper's bound from [LP15]'s ``Õ(S + n^(1/k))`` variant.
    """
    if num_arms < 1 or arm_length < 1:
        raise ParameterError("num_arms and arm_length must be >= 1")
    n = 1 + num_arms * arm_length
    graph = WeightedGraph(n)
    for arm in range(num_arms):
        prev = 0
        for step in range(arm_length):
            node = 1 + arm * arm_length + step
            weight = heavy_weight if prev == 0 else 1
            graph.add_edge(prev, node, weight)
            prev = node
    return graph


def expander_like(n: int, degree: int = 4, max_weight: int = 100,
                  seed: RandomLike = None) -> WeightedGraph:
    """Random near-regular multigraph collapsed to a simple graph.

    Uses the configuration-model pairing and drops loops/multi-edges, then
    patches connectivity.  ``D = O(log n)`` with high probability, the
    small-diameter regime where the additive ``D`` term vanishes.
    """
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if degree < 2:
        raise ParameterError(f"degree must be >= 2, got {degree}")
    rng = _rng(seed)
    stubs = [u for u in range(n) for _ in range(degree)]
    rng.shuffle(stubs)
    graph = WeightedGraph(n)
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, _random_weight(rng, max_weight))
    _ensure_connected_by_spanning_tree(graph, rng, max_weight)
    return graph


def weighted_small_world(n: int, chords: Optional[int] = None,
                         max_weight: int = 100,
                         seed: RandomLike = None) -> WeightedGraph:
    """Ring plus random chords (Watts–Strogatz-flavoured)."""
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    rng = _rng(seed)
    if chords is None:
        chords = n
    graph = WeightedGraph(n)
    for u in range(n):
        graph.add_edge(u, (u + 1) % n, _random_weight(rng, max_weight))
    added = 0
    attempts = 0
    while added < chords and attempts < 20 * chords:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, _random_weight(rng, max_weight))
            added += 1
    return graph


def path(n: int, max_weight: int = 100,
         seed: RandomLike = None) -> WeightedGraph:
    """A simple path; the extreme ``D = S = n - 1`` workload."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    graph = WeightedGraph(n)
    for u in range(n - 1):
        graph.add_edge(u, u + 1, _random_weight(rng, max_weight))
    return graph


def random_tree(n: int, max_weight: int = 100,
                seed: RandomLike = None) -> WeightedGraph:
    """Uniform random recursive tree (each vertex attaches to a prior one)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    graph = WeightedGraph(n)
    for v in range(1, n):
        u = rng.randrange(v)
        graph.add_edge(u, v, _random_weight(rng, max_weight))
    return graph


def caterpillar_tree(spine: int, legs_per_node: int, max_weight: int = 100,
                     seed: RandomLike = None) -> WeightedGraph:
    """A spine path with ``legs_per_node`` leaves per spine vertex.

    Heavy-path / heavy-child structure is degenerate here, exercising the
    tree-routing scheme's interval logic.
    """
    if spine < 1 or legs_per_node < 0:
        raise ParameterError("spine must be >= 1 and legs_per_node >= 0")
    rng = _rng(seed)
    n = spine * (1 + legs_per_node)
    graph = WeightedGraph(n)
    for s in range(spine - 1):
        graph.add_edge(s, s + 1, _random_weight(rng, max_weight))
    next_node = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(s, next_node, _random_weight(rng, max_weight))
            next_node += 1
    return graph


def barbell(blob_size: int, bridge_length: int, max_weight: int = 100,
            seed: RandomLike = None) -> WeightedGraph:
    """Two cliques of ``blob_size`` joined by a path of ``bridge_length``."""
    if blob_size < 1 or bridge_length < 1:
        raise ParameterError("blob_size and bridge_length must be >= 1")
    rng = _rng(seed)
    n = 2 * blob_size + bridge_length - 1
    graph = WeightedGraph(n)
    for base in (0, blob_size + bridge_length - 1):
        for i in range(blob_size):
            for j in range(i + 1, blob_size):
                graph.add_edge(base + i, base + j,
                               _random_weight(rng, max_weight))
    prev = blob_size - 1
    for step in range(bridge_length):
        node = blob_size + step
        if node >= blob_size + bridge_length - 1:
            node = blob_size + bridge_length - 1
        if prev != node and not graph.has_edge(prev, node):
            graph.add_edge(prev, node, _random_weight(rng, max_weight))
        prev = node
    return graph


#: Name -> zero-argument factory for a small instance of each family;
#: used by property tests to sweep every generator.
SMALL_INSTANCES = {
    "random_connected": lambda: random_connected(24, 0.15, seed=1),
    "random_geometric": lambda: random_geometric(24, seed=2),
    "grid": lambda: grid(5, 5, seed=3),
    "ring_of_cliques": lambda: ring_of_cliques(4, 5, seed=4),
    "star_of_paths": lambda: star_of_paths(4, 5, seed=5),
    "expander_like": lambda: expander_like(24, 4, seed=6),
    "weighted_small_world": lambda: weighted_small_world(24, seed=7),
    "path": lambda: path(16, seed=8),
    "random_tree": lambda: random_tree(24, seed=9),
    "caterpillar_tree": lambda: caterpillar_tree(6, 3, seed=10),
    "barbell": lambda: barbell(6, 5, seed=11),
}


#: Workload name -> factory(n, seed).  ``grid``/``cliques``/``star``
#: round ``n`` to their natural shapes; the actual size is reported via
#: :class:`WorkloadInstance`.
WORKLOADS: Dict[str, Callable[[int, int], WeightedGraph]] = {
    "random": lambda n, seed: random_connected(n, min(1.0, 6.0 / n),
                                               seed=seed),
    "geometric": lambda n, seed: random_geometric(n, seed=seed),
    "grid": lambda n, seed: grid(max(2, int(n ** 0.5)),
                                 max(2, int(n ** 0.5)), seed=seed),
    "cliques": lambda n, seed: ring_of_cliques(max(2, n // 8), 8,
                                               seed=seed),
    "star": lambda n, seed: star_of_paths(max(2, n // 10), 10,
                                          seed=seed),
    "smallworld": lambda n, seed: weighted_small_world(n, seed=seed),
}


@dataclass(frozen=True)
class WorkloadInstance:
    """A generated workload plus the request it (approximately) honours."""

    name: str
    requested_n: int
    seed: int
    graph: WeightedGraph

    @property
    def num_vertices(self) -> int:
        """The *actual* vertex count (may differ from ``requested_n``)."""
        return self.graph.num_vertices

    def describe(self) -> str:
        line = (f"workload={self.name} n={self.num_vertices} "
                f"m={self.graph.num_edges}")
        if self.num_vertices != self.requested_n:
            line += f" (requested n={self.requested_n})"
        return line


def make_workload(name: str, n: int, seed: int = 0) -> WorkloadInstance:
    """Instantiate a named workload, noting requested vs actual size."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ParameterError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(WORKLOADS)}") from None
    return WorkloadInstance(name=name, requested_n=n, seed=seed,
                            graph=factory(n, seed))

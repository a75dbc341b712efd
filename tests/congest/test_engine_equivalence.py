"""Differential harness: the flat-array :class:`FastSimulator` against
the dict-of-deques :class:`Simulator` oracle.

Every program × graph × capacity case is executed on both engines —
constructed directly, there is no selector — and the resulting
:class:`RunReport`s must be *bit-identical*: rounds, delivered
messages/words, the max per-link queue statistic, quiescence, and every
node's final state dictionary.  This is the contract that lets every
simulated phase run ``FastSimulator`` while keeping the original
simulator as the semantic oracle.
"""

import random

import pytest

from repro.congest import bellman_ford
from repro.congest import (
    FastSimulator,
    JoinRule,
    Message,
    Network,
    NodeProgram,
    build_bfs_tree,
    multi_source_exploration,
    nearest_source_exploration,
)
from repro.exceptions import SimulationError
from repro.graphs import (
    dijkstra_distances,
    grid,
    path,
    random_connected,
    ring_of_cliques,
)
from repro.reference import (
    Simulator,
    multi_source_exploration_reference,
    nearest_source_exploration_reference,
    simulate_flood_rounds,
)
from repro.reference.bfs import _BFSProgram, _GossipProgram

# ----------------------------------------------------------------------
# The three program families the construction relies on
# ----------------------------------------------------------------------


class BFSProgram(NodeProgram):
    """Hop-count flood: each node adopts the smallest depth it hears."""

    def __init__(self, root):
        self._root = root

    def initialize(self, ctx):
        ctx.state["depth"] = 0 if ctx.node == self._root else None
        ctx.state["parent"] = None
        if ctx.node == self._root:
            return [(v, Message("bfs", (0,))) for v in ctx.neighbors]
        return []

    def on_round(self, ctx, inbox):
        improved = False
        for sender, message in inbox:
            depth = message.payload[0] + 1
            if ctx.state["depth"] is None or depth < ctx.state["depth"]:
                ctx.state["depth"] = depth
                ctx.state["parent"] = sender
                improved = True
        if not improved:
            return []
        return [(v, Message("bfs", (ctx.state["depth"],)))
                for v in ctx.neighbors if v != ctx.state["parent"]]


class BroadcastProgram(NodeProgram):
    """Gossip flood: every node forwards each distinct token once.

    Inbox-order sensitive (first copy wins the ``via`` record), so it
    detects any divergence in delivery ordering between the engines.
    """

    def __init__(self, tokens):
        self._tokens = tokens  # node -> list of payload tuples

    def initialize(self, ctx):
        ctx.state["seen"] = {}
        out = []
        for item in self._tokens.get(ctx.node, []):
            ctx.state["seen"][item] = None  # origin: no via
            for v in ctx.neighbors:
                out.append((v, Message("tok", item)))
        return out

    def on_round(self, ctx, inbox):
        out = []
        for sender, message in inbox:
            item = message.payload
            if item in ctx.state["seen"]:
                continue
            ctx.state["seen"][item] = sender
            for v in ctx.neighbors:
                if v != sender:
                    out.append((v, Message("tok", item)))
        return out


class BellmanFordProgram(NodeProgram):
    """Multi-root weighted SSSP flood keeping the nearest root."""

    def __init__(self, roots):
        self._roots = set(roots)

    def initialize(self, ctx):
        ctx.state["dist"] = 0 if ctx.node in self._roots else None
        ctx.state["root"] = ctx.node if ctx.node in self._roots else None
        ctx.state["parent"] = None
        if ctx.node in self._roots:
            return [(v, Message("bf", (0, ctx.node)))
                    for v in ctx.neighbors]
        return []

    def on_round(self, ctx, inbox):
        improved = False
        for sender, message in inbox:
            d, root = message.payload
            nd = d + ctx.weight_to(sender)
            if ctx.state["dist"] is None or nd < ctx.state["dist"]:
                ctx.state["dist"] = nd
                ctx.state["root"] = root
                ctx.state["parent"] = sender
                improved = True
        if not improved:
            return []
        return [(v, Message("bf", (ctx.state["dist"],
                                   ctx.state["root"])))
                for v in ctx.neighbors]


# ----------------------------------------------------------------------
# ~20 seeded graphs spanning the workload families
# ----------------------------------------------------------------------

def _graph_cases():
    cases = []
    for seed in range(12):
        n = 16 + 3 * seed
        cases.append((f"random-{seed}",
                      random_connected(n, 4.5 / n, seed=seed)))
    for seed in (100, 101, 102):
        cases.append((f"dense-{seed}",
                      random_connected(24, 0.3, seed=seed)))
    cases.append(("grid", grid(5, 5, seed=7)))
    cases.append(("grid-rect", grid(3, 8, seed=8)))
    cases.append(("path", path(18, seed=9)))
    cases.append(("cliques", ring_of_cliques(4, 5, seed=10)))
    return cases


GRAPHS = _graph_cases()
GRAPH_IDS = [name for name, _ in GRAPHS]

REPORT_FIELDS = ("rounds", "delivered_messages", "delivered_words",
                 "max_link_queue_words", "quiescent")


def _assert_identical(ref, fast):
    for field in REPORT_FIELDS:
        assert getattr(ref, field) == getattr(fast, field), field
    assert len(ref.contexts) == len(fast.contexts)
    for a, b in zip(ref.contexts, fast.contexts):
        assert a.node == b.node
        assert a.state == b.state


def _run_both(graph, make_program, capacity):
    network = Network(graph)
    ref = Simulator(network, capacity).run(make_program())
    fast = FastSimulator(network, capacity).run(make_program())
    _assert_identical(ref, fast)
    return ref


class TestDifferentialEquivalence:

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_bfs(self, name, graph):
        report = _run_both(graph, lambda: BFSProgram(0), capacity=2)
        assert report.quiescent and report.rounds > 0

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_broadcast(self, name, graph):
        n = graph.num_vertices
        tokens = {v: [(v, "tok")] for v in range(0, n, 4)}
        report = _run_both(graph, lambda: BroadcastProgram(tokens),
                           capacity=2)
        assert report.delivered_messages > 0

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_bellman_ford(self, name, graph):
        n = graph.num_vertices
        roots = [0, n // 2, n - 1]
        report = _run_both(graph, lambda: BellmanFordProgram(roots),
                           capacity=2)
        assert report.quiescent

    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_capacity_granularities(self, capacity):
        """Partial drains (backlog > capacity) must match exactly."""
        graph = random_connected(30, 0.2, seed=42)
        tokens = {v: [(v, i) for i in range(3)] for v in range(0, 30, 2)}
        _run_both(graph, lambda: BroadcastProgram(tokens), capacity)
        _run_both(graph, lambda: BellmanFordProgram([0, 7]), capacity)

    def test_single_word_capacity(self):
        """capacity=1 forces one message per link per round."""
        graph = random_connected(24, 0.2, seed=43)
        tokens = {v: [(v,)] for v in range(0, 24, 3)}  # 1-word tokens
        _run_both(graph, lambda: BroadcastProgram(tokens), capacity=1)
        _run_both(graph, lambda: BFSProgram(0), capacity=1)

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_production_programs(self, name, graph):
        """The BFS flood (the BFS kernel's oracle) and the Lemma-1
        flood through both engines; the BFS kernel and the flood
        primitive return exactly what the oracle's report holds."""
        n = graph.num_vertices
        network = Network(graph)
        root = n // 3
        oracle = _run_both(graph, lambda: _BFSProgram(root), capacity=2)
        tree = build_bfs_tree(graph, root=root)
        assert tree.rounds == oracle.rounds
        assert tree.messages == oracle.delivered_messages
        assert tree.parent == [oracle.state_of(u)["parent"]
                               for u in range(n)]
        assert tree.depth == [oracle.state_of(u)["depth"]
                              for u in range(n)]
        initial = {v: [(v,)] for v in range(0, n, 5)}
        oracle = _run_both(graph, lambda: _GossipProgram(initial),
                           capacity=2)
        rounds, seen = simulate_flood_rounds(network, initial)
        assert rounds == oracle.rounds
        assert seen == [oracle.state_of(u)["seen"] for u in range(n)]


@pytest.fixture(params=["platform-kernel", "row-blocks"])
def exploration_kernel(request, monkeypatch):
    """``multi_source_exploration`` as these sizes run it (one block of
    source rows) and in one-row blocks (past the cell limit)."""
    if request.param == "row-blocks":
        monkeypatch.setattr(bellman_ford, "_DENSE_CELL_LIMIT", 0)
    return request.param


class TestExplorationBatchEquivalence:
    """The CSR-kernel Bellman–Ford explorations against their
    dict-based oracles: every result field must match exactly, on the
    same seeded graph zoo the engine differential harness uses."""

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_nearest_source(self, name, graph):
        n = graph.num_vertices
        roots = [0, n // 2, n - 1]
        for iterations in (1, 3, n):
            ref = nearest_source_exploration_reference(
                graph, roots, iterations)
            fast = nearest_source_exploration(graph, roots, iterations)
            assert fast.dist == ref.dist
            assert fast.source_of == ref.source_of
            assert fast.parent == ref.parent
            assert fast.iterations == ref.iterations
            assert fast.rounds == ref.rounds

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_multi_source_unrestricted(self, name, graph,
                                       exploration_kernel):
        n = graph.num_vertices
        sources = [0, n // 3, n - 1]
        ref = multi_source_exploration_reference(
            graph, sources, n, lambda v, s, d: True)
        fast = multi_source_exploration(
            graph, sources, n, JoinRule(threshold=[float("inf")] * n))
        assert fast.dist == ref.dist
        assert fast.parent == ref.parent
        assert fast.iterations == ref.iterations
        assert fast.rounds == ref.rounds
        assert fast.max_estimates_per_node == ref.max_estimates_per_node

    @pytest.mark.parametrize("name,graph", GRAPHS, ids=GRAPH_IDS)
    def test_multi_source_with_join_predicate(self, name, graph,
                                              exploration_kernel):
        """The cluster-growing shape: radius-bounded join (Eq. 11)."""
        n = graph.num_vertices
        sources = list(range(0, n, 3))
        radius = 2.5 * n

        def join(v, s, d):
            return d < radius

        rule = JoinRule(threshold=[radius] * n)
        ref = multi_source_exploration_reference(graph, sources, n, join)
        fast = multi_source_exploration(graph, sources, n, rule)
        assert fast.dist == ref.dist
        assert fast.parent == ref.parent
        assert fast.rounds == ref.rounds
        assert fast.max_estimates_per_node == ref.max_estimates_per_node

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("budgets", ["uniform", "at-distance"])
    def test_multi_source_per_vertex_budgets(self, seed, budgets,
                                             exploration_kernel):
        """Random per-vertex budgets (some INF): the fused compare keeps
        exactly the winners the oracle's per-winner ``accepts`` call
        keeps.  ``at-distance`` budgets are the vertex's exact distance
        to one of the sources, so the strict compare meets its equality
        case at every vertex that source reaches on a shortest path."""
        rng = random.Random(seed)
        graph = random_connected(30, 0.2, seed=seed)
        n = graph.num_vertices
        if budgets == "uniform":
            threshold = [rng.uniform(0, 150) if rng.random() < 0.8
                         else float("inf") for _ in range(n)]
            sources = sorted(rng.sample(range(n), 4))
        else:
            sources = sorted(rng.sample(range(n), 4))
            exact = dijkstra_distances(graph, rng.choice(sources))
            threshold = [exact[v] if rng.random() < 0.8
                         else float("inf") for v in range(n)]
        rule = JoinRule(threshold=threshold)
        ref = multi_source_exploration_reference(
            graph, sources, n, rule.accepts)
        fast = multi_source_exploration(graph, sources, n, rule)
        assert fast.dist == ref.dist
        assert fast.parent == ref.parent
        assert fast.iterations == ref.iterations
        assert fast.rounds == ref.rounds
        assert fast.max_estimates_per_node == ref.max_estimates_per_node

    def test_bounded_iterations_match(self):
        graph = random_connected(30, 0.15, seed=77)
        for t in range(4):
            ref = nearest_source_exploration_reference(graph, [0, 5], t)
            fast = nearest_source_exploration(graph, [0, 5], t)
            assert fast.dist == ref.dist
            assert fast.iterations == ref.iterations <= t


class TestFastEngineGuards:

    def test_fast_engine_guards_capacity(self):
        with pytest.raises(SimulationError):
            FastSimulator(Network(path(4, seed=0)), capacity_words=0)

    def test_fast_engine_rejects_non_neighbor(self):
        class Rogue(NodeProgram):
            def initialize(self, ctx):
                if ctx.node == 0:
                    return [(3, Message("x", (1,)))]
                return []

            def on_round(self, ctx, inbox):
                return []

        network = Network(path(5, seed=0))  # 0 and 3 not adjacent
        with pytest.raises(SimulationError):
            FastSimulator(network).run(Rogue())

"""The frontier BFS kernel against the simulated BFS flood.

:func:`repro.congest.build_bfs_tree` computes, without running anything,
the tree and cost the CONGEST flood ``repro.reference.bfs._BFSProgram``
produces on :class:`FastSimulator`.  Every case runs both and requires
the same ``parent``, ``depth`` and ``rounds``, and the kernel's message
count to be the flood's delivered messages and words, ``2|E| - (n-1)``.
The build itself runs the kernel only: no engine, no :class:`Network`.
"""

import pytest

from repro.congest import FastSimulator, Network, build_bfs_tree
from repro.exceptions import DisconnectedGraphError
from repro.graphs import WeightedGraph, path, weighted_small_world
from repro.pipeline import SchemePipeline, make_workload
from repro.reference import simulate_bfs_tree


def _workload(name, n):
    return lambda: make_workload(name, n, seed=1).graph


def _single():
    return WeightedGraph(1)


GRAPHS = {
    "random-300": _workload("random", 300),
    "grid-256": _workload("grid", 256),
    "star-300": _workload("star", 300),
    "cliques-300": _workload("cliques", 300),
    "smallworld-300": _workload("smallworld", 300),
    "path-1000": lambda: path(1000, seed=0),
    "ring-1000": lambda: weighted_small_world(1000, chords=0, seed=0),
    "single": _single,
    "pair": lambda: path(2, seed=0),
}

CASES = [pytest.param(name, spot, id=f"{name}-{spot}")
         for name in GRAPHS for spot in ("first", "middle", "last")]


def _root(n, spot):
    return {"first": 0, "middle": n // 2, "last": n - 1}[spot]


@pytest.mark.parametrize("name,spot", CASES)
def test_kernel_equals_flood(name, spot):
    graph = GRAPHS[name]()
    n = graph.num_vertices
    root = _root(n, spot)
    tree = build_bfs_tree(graph, root=root)
    flood, report = simulate_bfs_tree(Network(graph), root=root)
    assert tree.parent == flood.parent
    assert tree.depth == flood.depth
    assert tree.rounds == flood.rounds == report.rounds
    assert tree.messages == report.delivered_messages
    assert tree.messages == report.delivered_words
    assert tree.messages == 2 * graph.num_edges - (n - 1)
    assert report.quiescent


@pytest.mark.parametrize("name,root,last_round", [
    ("path-1000", 0, "height"),        # the far end has only its parent
    ("pair", 1, "height"),
    ("single", 0, "height"),
    ("grid-256", 0, "height + 1"),     # the far corner also reaches
    ("ring-1000", 0, "height + 1"),    # the two arcs meet
    ("star-300", 0, "height"),
])
def test_both_last_round_rules_are_covered(name, root, last_round):
    """The flood stops at ``height`` when no deepest vertex has a
    neighbour besides its parent, else one round later."""
    tree = build_bfs_tree(GRAPHS[name](), root=root)
    extra = {"height": 0, "height + 1": 1}[last_round]
    assert tree.rounds == tree.height + extra


def test_disconnected_rejected():
    graph = WeightedGraph(3)
    graph.add_edge(0, 1, 1)
    with pytest.raises(DisconnectedGraphError):
        build_bfs_tree(graph, root=0)


@pytest.mark.parametrize("workload,n,k", [("random", 300, 3),
                                          ("grid", 256, 2)])
def test_build_runs_no_simulation(monkeypatch, workload, n, k):
    """A scheme build neither builds a :class:`Network` nor runs an
    engine; its ``setup/bfs-tree`` phase carries the flood's rounds
    and its messages and words."""
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the build called {name}")
        return spy

    monkeypatch.setattr(FastSimulator, "run", refuse("FastSimulator.run"))
    monkeypatch.setattr(Network, "__init__", refuse("Network.__init__"))
    graph = make_workload(workload, n, seed=1).graph
    report = SchemePipeline().graph(graph).params(k).seed(1).build()
    assert calls == []
    monkeypatch.undo()
    (phase,) = [p for p in report.construction.clusters.ledger.phases()
                if p.name == "setup/bfs-tree"]
    flood, run = simulate_bfs_tree(Network(graph), root=0)
    assert phase.rounds == flood.rounds
    assert phase.messages == phase.words == run.delivered_messages
    assert report.construction.clusters.ledger.total_messages \
        >= phase.messages > 0

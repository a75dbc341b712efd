"""Artifact columns are numpy arrays from compile to serve.

The forest kernel and the scheme's assembly emit int64 arrays, and
construction takes them as they are.  Every way an artifact comes into
being — construction, file load, buffer attach, registry load — leaves
each column a numpy array and builds no list.  Only the per-pair loops (the dense parent walk, the
flat replay, ``estimate_many``) read lists, and they build them on
their first call; a vectorised dense batch leaves them unbuilt.

The tree-parent edge weights are read off the live graph at compile
time, as one gather over its CSR: a tree edge the graph has lost is a
:class:`SchemeError` naming it, and a weight changed since the build
shows up in the recompiled artifact and in the plane's route weights.
"""

import random

import numpy as np
import pytest

from repro.core import CompiledScheme, DenseRoutingPlane
from repro.core.compiled import attach_artifact, load_artifact
from repro.core.dense import _VECTOR_MIN_PAIRS
from repro.core.tree_routing import ARTIFACT_COLUMNS
from repro.dynamic.registry import ArtifactRegistry
from repro.exceptions import ArtifactError, SchemeError
from repro.graphs import WeightedGraph, grid, random_connected
from repro.pipeline import SchemePipeline

#: What the per-pair loops build on their first call.
LAZY = ("_lists", "_tid_of", "_slots", "_members", "_cluster_values")


def _pipeline():
    return SchemePipeline().graph(grid(6, 6, seed=2)).params(2).seed(4)


@pytest.fixture(scope="module")
def built():
    pipeline = _pipeline()
    pipeline.build()
    return pipeline


def assert_no_lists(artifact):
    for name, _typecode in artifact._FIELDS:
        column = getattr(artifact, "_" + name)
        assert isinstance(column, np.ndarray), name
    for name in ("_depth", "_dist"):
        if hasattr(artifact, name):
            assert isinstance(getattr(artifact, name), np.ndarray), name
    assert not set(LAZY) & set(vars(artifact)), type(artifact).__name__


def _ways_in(artifact, tmp_path):
    """``artifact`` re-made by file load, attach and registry load."""
    path = tmp_path / f"{artifact.kind}.cra"
    artifact.save(path)
    buffers = artifact.export_buffers()
    registry = ArtifactRegistry(tmp_path / f"registry-{artifact.kind}")
    record = registry.publish(artifact)
    return {"load": type(artifact).load(path),
            "load_artifact": load_artifact(path),
            "attach": attach_artifact(buffers.header(), buffers.payload),
            "registry": registry.load(record.generation)}


def test_construction_builds_no_list(built):
    flat = built.build().scheme.compile()
    assert_no_lists(flat)
    plane = DenseRoutingPlane.from_compiled(flat)
    assert_no_lists(plane)
    assert_no_lists(flat)           # the dense compile read arrays only
    assert_no_lists(built.build_estimation().compile())


def test_the_forest_is_int64_arrays_the_artifact_takes_as_they_are(built):
    """From the forest kernel through assembly to the flat artifact,
    every column is one int64 array, never copied on the way."""
    scheme = built.build().scheme
    forest = scheme.forest.columns
    columns = {name: getattr(forest, name) for name in (
        "tree_center", "tree_start", "tree_depth", "slot_table_words",
        "slot_label_words") + ARTIFACT_COLUMNS}
    columns.update((name, getattr(scheme, name)) for name in (
        "lbl_pivot", "lbl_slot", "table_words", "label_words"))
    for name, column in columns.items():
        assert isinstance(column, np.ndarray), name
        assert column.dtype == np.int64, name
    flat = scheme.compile()
    for name, column in columns.items():
        if hasattr(flat, "_" + name):
            assert getattr(flat, "_" + name) is column, name


@pytest.mark.parametrize("kind", ["flat", "dense", "estimation"])
def test_every_way_in_builds_no_list(built, tmp_path, kind):
    artifact = (built.compile_estimation() if kind == "estimation"
                else built.compile(kind))
    for how, made in _ways_in(artifact, tmp_path).items():
        assert type(made) is type(artifact), how
        assert_no_lists(made)
        assert made.export_buffers() == artifact.export_buffers(), how


def test_a_walk_builds_the_lists_a_vector_batch_does_not(built, tmp_path):
    n = built.build().num_vertices
    pairs = [(s, (7 * s + 3) % n) for s in range(n)]
    assert len(pairs) >= _VECTOR_MIN_PAIRS
    walked = built.compile()
    expected = [walked.route(s, t) for s, t in pairs]
    assert "_lists" in vars(walked)
    for how, plane in _ways_in(walked, tmp_path).items():
        assert plane._chain is not None, how
        assert plane.route_many(pairs) == expected, how
        assert_no_lists(plane)
        for pair, route in zip(pairs, expected):
            assert plane.route_many([pair]) == [route], (how, pair)
        assert "_lists" in vars(plane), how


def test_replay_and_estimates_build_their_lists_on_first_call(built):
    flat = built.build().scheme.compile()
    flat.route_many([(0, 5)])
    assert {"_lists", "_tid_of", "_slots", "_members"} <= set(vars(flat))
    estimation = built.build_estimation().compile()
    estimation.estimate_many([(0, 5)])
    assert {"_lists", "_cluster_values"} <= set(vars(estimation))


def test_an_owner_that_is_no_tree_center_is_named(built):
    flat = built.compile("flat")
    cols = {name: getattr(flat, "_" + name).copy()
            for name, _typecode in flat._FIELDS}
    assert len(cols["ml_owner"]) > 3
    stray = int(flat._tree_center.max()) + 1
    cols["ml_owner"][[2, 3]] = stray
    with pytest.raises(ArtifactError) as info:
        CompiledScheme(flat.meta, cols)
    assert str(info.value) == (f"flat artifact column ml_owner row 2: "
                               f"{stray} is not a tree center")


# ----------------------------------------------------------------------
# t_parent_w: the tree edges' weights, read off the graph at compile
# ----------------------------------------------------------------------
def _first_tree_edge(flat: CompiledScheme):
    """``(slot, vertex, parent)`` of the first slot below a root."""
    slot = int(np.flatnonzero(flat._t_parent >= 0)[0])
    return slot, int(flat._slot_vertex[slot]), int(flat._t_parent[slot])


def _graph_weights(flat, graph):
    return [0.0 if p < 0 else float(graph.weight(v, p))
            for v, p in zip(flat._slot_vertex.tolist(),
                            flat._t_parent.tolist())]


def _shuffled(graph):
    """``graph`` with its edges inserted in random order, so adjacency
    (and CSR) order is not vertex order and the edge keys need their
    sort."""
    edges = list(graph.edges())
    random.Random(7).shuffle(edges)
    return WeightedGraph.from_edges(graph.num_vertices, edges)


@pytest.mark.parametrize("graph", [
    lambda: grid(6, 6, seed=2),
    lambda: _shuffled(random_connected(40, 0.12, seed=3)),
], ids=["grid", "random-shuffled"])
def test_t_parent_w_is_the_graph_weight_of_each_tree_edge(graph):
    scheme = SchemePipeline().graph(graph()).params(3).seed(5).build().scheme
    flat = scheme.compile()
    assert flat._t_parent_w.tolist() == _graph_weights(flat, scheme.graph)


def test_a_tree_edge_removed_after_the_build_fails_the_compile():
    scheme = _pipeline().build().scheme
    _slot, vertex, parent = _first_tree_edge(scheme.compile())
    scheme.graph.remove_edge(vertex, parent)
    with pytest.raises(SchemeError) as info:
        scheme.compile()
    assert str(info.value) == (f"tree edge ({vertex}, {parent}) is not "
                               "an edge of the graph")


def test_a_weight_changed_after_the_build_is_recompiled():
    scheme = _pipeline().build().scheme
    graph = scheme.graph
    before = DenseRoutingPlane.from_compiled(scheme.compile())
    slot, vertex, parent = _first_tree_edge(scheme.compile())
    weight = graph.weight(vertex, parent) + 7
    graph.update_edge_weight(vertex, parent, weight)
    flat = scheme.compile()
    assert flat._t_parent_w[slot] == weight
    assert flat._t_parent_w.tolist() == _graph_weights(flat, graph)
    plane = DenseRoutingPlane.from_compiled(flat)
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    crossing = 0
    for old, vector, walk in zip(before.route_many(pairs),
                                 plane.route_many(pairs),
                                 map(plane.route, *zip(*pairs))):
        assert vector == walk
        hops = list(zip(vector.path, vector.path[1:]))
        assert vector.weight == sum(graph.weight(a, b) for a, b in hops)
        if {(vertex, parent), (parent, vertex)} & set(hops):
            crossing += 1
            assert vector.path == old.path
            assert vector.weight == old.weight + 7
    assert crossing

"""Byte oracle of the construction: scratch builds must reproduce the
committed digests.

``tests/data/artifact_digests.json`` records, for a zoo of graphs
(sparse random, mesh, random / caterpillar trees, hub-and-spoke,
barbell, path) at k = 2, 3 (plus one k = 4 and one
``use_tz_trick=False``), the sha256 of the flat, dense and estimation
artifact files a scratch build wrote, its round count and its table /
label word statistics.  Whatever builds the forest or the sketches —
objects, columns, anything later — has to land on the same bytes and
the same numbers.
The file is regenerated only by ``tests/data/regen_digests.py``, and
only when the bytes are *meant* to move.

The builder that lands on them today works on integer columns; the
last tests here keep it so — a build and both compiles construct none
of the per-vertex objects the columns replaced, nor a dict view of the
cluster or exploration columns, and production never imports the
package that defines them.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.size_accounting import (
    measure_routing_sizes,
    measure_sketch_sizes,
)
from repro.congest import JoinRule
from repro.congest.bellman_ford import (
    ExplorationResult,
    multi_source_exploration,
)
from repro.core.approx_clusters import ApproxCluster, ApproxClusterSystem
from repro.graphs import INF
from repro.reference import (
    DistTreeLabel,
    DistTreeTable,
    GlobalEdgeEntry,
    ReferenceRouter,
    VertexLabel,
    VertexTable,
)
from repro.trees import RootedTree, TreeLabel, TreeTable

DATA = Path(__file__).parent.parent / "data"

_spec = importlib.util.spec_from_file_location(
    "regen_digests", DATA / "regen_digests.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RECORDS = json.loads((DATA / regen.DIGESTS_FILE).read_text())


def _case_id(record) -> str:
    recipe = record["recipe"]
    name = f"{recipe['generator']}-k{recipe['k']}"
    return name if recipe["use_tz_trick"] else name + "-no-tz"


@pytest.fixture(scope="module", params=RECORDS, ids=_case_id)
def case(request):
    """(built pipeline, expected record) for one recipe."""
    record = request.param
    pipeline = regen.build(record["recipe"])
    pipeline.build()
    return pipeline, record["expected"]


def test_recipes_cover_the_committed_file():
    assert [r["recipe"] for r in RECORDS] == list(regen.recipes())


def test_scratch_build_reproduces_committed_digests(case):
    pipeline, expected = case
    assert regen.measure(pipeline) == expected


def test_sweep_matches_parent_walk(case):
    """The dense load sweep against the walk up the scheme's rows."""
    from test_dense_equivalence import sweep_matches_parent_walk
    pipeline, _expected = case
    sweep_matches_parent_walk(pipeline.compile("flat"))


def test_word_columns_equal_materialised_words(case):
    """The artifact's per-vertex word columns are the sizes of the
    reference router's eager tables and labels, vertex by vertex, agree
    with the report's max/avg, and stay under the paper's bounds."""
    pipeline, expected = case
    report = pipeline.build()
    scheme = report.scheme
    flat = pipeline.compile("flat")
    reference = ReferenceRouter(scheme)
    n = scheme.graph.num_vertices
    assert np.array_equal(flat._table_words,
                          [reference.tables[v].words for v in range(n)])
    assert np.array_equal(flat._label_words,
                          [reference.labels[v].words for v in range(n)])
    construction = report.construction
    assert construction.max_table_words == flat.max_table_words() \
        == scheme.max_table_words() == expected["max_table_words"]
    assert construction.max_label_words == flat.max_label_words() \
        == scheme.max_label_words() == expected["max_label_words"]
    assert construction.avg_table_words == flat.average_table_words() \
        == scheme.average_table_words() == expected["avg_table_words"]
    assert construction.avg_label_words == flat.average_label_words() \
        == scheme.average_label_words() == expected["avg_label_words"]
    assert construction.max_table_words <= \
        report.params.table_size_bound_words
    assert construction.max_label_words <= \
        report.params.label_size_bound_words


def test_reporting_returns_plain_python_numbers(case):
    """The artifacts' word statistics are ``int`` / ``float``, not numpy
    scalars: equal to the live objects' and the committed record's, and
    a size report built from them serialises as JSON."""
    pipeline, expected = case
    flat = pipeline.compile("flat")
    estimation = pipeline.compile_estimation()
    sketches = pipeline.build_estimation()
    got = {
        "max_table_words": flat.max_table_words(),
        "avg_table_words": flat.average_table_words(),
        "max_label_words": flat.max_label_words(),
        "avg_label_words": flat.average_label_words(),
    }
    assert got == {name: expected[name] for name in got}
    assert estimation.max_sketch_words() == sketches.max_sketch_words()
    assert estimation.average_sketch_words() \
        == sketches.average_sketch_words()
    for value in (got["max_table_words"], got["max_label_words"],
                  estimation.max_sketch_words()):
        assert type(value) is int
    for value in (got["avg_table_words"], got["avg_label_words"],
                  estimation.average_sketch_words()):
        assert type(value) is float
    report = pipeline.build()
    graph, k = report.scheme.graph, report.params.k
    sizes = [measure_routing_sizes("flat", graph, flat, k),
             measure_sketch_sizes("sketches", graph, estimation, k)]
    json.dumps([dataclasses.asdict(size) for size in sizes])


def test_build_and_compile_construct_no_per_vertex_objects(monkeypatch):
    """Tables, labels and trees exist only for the oracle tests;
    ``build()`` + both compiles must not make one, or the object walk
    this kernel replaced has crept back.  Nor may they build a dict
    view of the cluster columns or of an exploration's cells."""
    made = []
    watched = (DistTreeTable, DistTreeLabel, GlobalEdgeEntry, TreeTable,
               TreeLabel, VertexTable, VertexLabel, RootedTree,
               ApproxCluster)
    for cls in watched:
        def counting(self, *args, _plain=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _plain(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    views = []
    for cls, names in ((ApproxClusterSystem, ("clusters",)),
                       (ExplorationResult, ("dist", "parent"))):
        for name in names:
            def viewing(self, _view=cls.__dict__[name],
                        _name=f"{cls.__name__}.{name}"):
                views.append(_name)
                return _view.func(self)
            monkeypatch.setattr(cls, name, property(viewing))

    pipeline = regen.build(RECORDS[0]["recipe"])
    report = pipeline.build()
    pipeline.compile("flat")
    pipeline.compile("dense")
    report.scheme.route_many([(0, report.num_vertices - 1)])
    assert made == []
    assert views == []
    # the spies do see them once somebody builds the oracle or reads a
    # view
    ReferenceRouter(report.scheme)
    assert {"DistTreeTable", "DistTreeLabel", "TreeLabel", "VertexTable",
            "VertexLabel", "RootedTree", "ApproxCluster"} <= set(made)
    graph = report.scheme.graph
    multi_source_exploration(graph, [0], 2, JoinRule(
        threshold=[INF] * graph.num_vertices)).dist
    assert set(views) == {"ApproxClusterSystem.clusters",
                          "ExplorationResult.dist"}


def test_production_never_imports_the_reference_oracle():
    """The serving and control-plane entry points, a k = 2 and a k = 3
    build (the latter reaches the middle level), a k = 4 build (the
    approximate SPT's virtual plane) and a cut-regime build (β = 2, so
    Phase 1.5 walks hopset paths), both compiles and ``route_many`` —
    in a fresh interpreter, so nothing this test session imported
    counts — load no ``repro.reference`` module."""
    script = textwrap.dedent("""
        import sys
        import repro.cli, repro.dynamic, repro.server, repro.serving
        from repro.graphs import grid, path
        from repro.pipeline import SchemePipeline

        pipeline = (SchemePipeline().graph(grid(5, 5, seed=1))
                    .params(2).seed(3))
        report = pipeline.build()
        pairs = [(0, 24), (7, 3), (5, 5)]
        pipeline.compile().route_many(pairs)
        pipeline.compile("flat").route_many(pairs)
        report.scheme.route_many(pairs)
        # odd k: the middle level runs the join-ruled detection
        (SchemePipeline().graph(grid(5, 5, seed=1)).params(3).seed(3)
         .build())
        SchemePipeline().workload("random", 200).params(4).seed(1).build()
        SchemePipeline().graph(path(1000, seed=1)).params(2).seed(1).build()
        print(sorted(name for name in sys.modules
                     if name.split(".")[:2] == ["repro", "reference"]))
    """)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

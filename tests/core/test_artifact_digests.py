"""Byte oracle of the construction: scratch builds must reproduce the
committed digests.

``tests/data/artifact_digests.json`` records, for a zoo of graphs
(sparse random, mesh, random / caterpillar trees, hub-and-spoke,
barbell, path) at k = 2, 3 (plus one k = 4 and one
``use_tz_trick=False``), the sha256 of the flat and dense artifact
files a scratch build wrote, its round count and its table / label
word statistics.  Whatever builds the forest — objects, columns,
anything later — has to land on the same bytes and the same numbers.
The file is regenerated only by ``tests/data/regen_digests.py``, and
only when the bytes are *meant* to move.

The builder that lands on them today works on integer columns; the
last tests here keep it so — a build and both compiles construct none
of the per-vertex objects the columns replaced, and production never
imports the package that defines them.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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
    for v in range(n):
        table, label = reference.tables[v], reference.labels[v]
        assert flat._table_words[v] == table.words, f"table of {v}"
        assert flat._label_words[v] == label.words, f"label of {v}"
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


def test_build_and_compile_construct_no_per_vertex_objects(monkeypatch):
    """Tables, labels and trees exist only for the oracle tests;
    ``build()`` + both compiles must not make one, or the object walk
    this kernel replaced has crept back."""
    made = []
    watched = (DistTreeTable, DistTreeLabel, GlobalEdgeEntry, TreeTable,
               TreeLabel, VertexTable, VertexLabel, RootedTree)
    for cls in watched:
        def counting(self, *args, _plain=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _plain(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    pipeline = regen.build(RECORDS[0]["recipe"])
    report = pipeline.build()
    pipeline.compile("flat")
    pipeline.compile("dense")
    report.scheme.route_many([(0, report.num_vertices - 1)])
    assert made == []
    # the spy does see them once somebody builds the oracle
    ReferenceRouter(report.scheme)
    assert {"DistTreeTable", "DistTreeLabel", "TreeLabel", "VertexTable",
            "VertexLabel", "RootedTree"} <= set(made)


def test_production_never_imports_the_reference_oracle():
    """The serving and control-plane entry points, a build, both
    compiles and ``route_many`` — in a fresh interpreter, so nothing
    this test session imported counts — load no ``repro.reference``
    module."""
    script = textwrap.dedent("""
        import sys
        import repro.cli, repro.dynamic, repro.server, repro.serving
        from repro.graphs import grid
        from repro.pipeline import SchemePipeline

        pipeline = (SchemePipeline().graph(grid(5, 5, seed=1))
                    .params(2).seed(3))
        report = pipeline.build()
        pairs = [(0, 24), (7, 3), (5, 5)]
        pipeline.compile().route_many(pairs)
        pipeline.compile("flat").route_many(pairs)
        report.scheme.route_many(pairs)
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

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
last test here is the spy that keeps it so — a build and both compiles
construct none of the per-vertex objects the columns replaced.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.routing_scheme import VertexLabel, VertexTable
from repro.core.tree_routing import (
    DistTreeLabel,
    DistTreeTable,
    GlobalEdgeEntry,
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
    live tables and labels, vertex by vertex, agree with the report's
    max/avg, and stay under the paper's bounds."""
    pipeline, expected = case
    report = pipeline.build()
    scheme = report.scheme
    flat = pipeline.compile("flat")
    n = scheme.graph.num_vertices
    for v in range(n):
        table, label = scheme.tables[v], scheme.labels[v]
        assert isinstance(table, VertexTable)
        assert isinstance(label, VertexLabel)
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
    """Tables, labels and trees are views for the live router and the
    oracle tests; ``build()`` + ``compile("dense")`` must not make one,
    or the object walk this kernel replaced has crept back."""
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
    assert made == []
    # the spy does see them once somebody asks for a view
    report.scheme.route(0, report.num_vertices - 1)
    assert {"DistTreeTable", "DistTreeLabel", "TreeLabel", "VertexTable",
            "VertexLabel", "RootedTree"} <= set(made)

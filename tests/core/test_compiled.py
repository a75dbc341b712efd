"""Compiled-artifact tests: serve-path equivalence and round-trips.

The contract under test: for every (workload, k, seed) case,
``scheme.compile()`` routes every pair exactly as the eager reference
router (:class:`~repro.reference.ReferenceRouter`, built from the
cluster system by the per-subtree oracle) does, ``load(save(...))``
keeps the routes, stretch and table/label word counts, and malformed
artifacts are rejected with :class:`ArtifactError`.
"""

import random
import struct
import sys

import pytest

from repro.analysis import evaluate_estimation, evaluate_routing
from repro.core import sample_pairs
from repro.core.compiled import (
    FORMAT_VERSION,
    MAGIC,
    CompiledEstimation,
    CompiledScheme,
    QueryResult,
    load_artifact,
)
from repro.exceptions import (
    ArtifactError,
    HopBudgetError,
    ParameterError,
)
from repro.graphs import grid, random_connected, ring_of_cliques
from repro.pipeline import SchemePipeline
from repro.reference import ReferenceRouter

#: (name, graph factory, k) — three workload families as required.
CASES = [
    ("random", lambda: random_connected(40, 0.12, seed=3), 3),
    ("grid", lambda: grid(6, 6, seed=1), 2),
    ("cliques", lambda: ring_of_cliques(4, 6, seed=4), 3),
]
CASE_IDS = [name for name, _f, _k in CASES]


def _build(factory, k):
    return (SchemePipeline().graph(factory()).params(k).seed(5))


@pytest.fixture(scope="module")
def built_cases():
    return {name: _build(factory, k).build()
            for name, factory, k in CASES}


def _all_pairs(n):
    return [(u, v) for u in range(n) for v in range(n)]


def _dist_on_clusters(clusters, u, v):
    """Algorithm 2 (Dist) off the cluster system: ``v ∈ C̃(w)`` and
    ``b_v(w)`` from the clusters' value maps, ``ẑ_i`` and ``d̂_i`` from
    the pivot levels."""
    if u == v:
        return QueryResult(u, v, 0.0, 0, u)
    a, b = u, v
    i, w = 0, u
    while b not in clusters.clusters[w].value:
        i += 1
        a, b = b, a
        w = clusters.pivots[i].pivot[a]
    estimate = clusters.pivots[i].dist_hat[a] + clusters.clusters[w].value[b]
    return QueryResult(u, v, estimate, i, w)


class TestServeEquivalence:

    @pytest.mark.parametrize("name", CASE_IDS)
    def test_route_many_bit_identical_to_reference(self, built_cases,
                                                   name):
        """Path, weight, tree_center and found_level of every ordered
        pair, against objects the columns were not read to build."""
        scheme = built_cases[name].scheme
        reference = ReferenceRouter(scheme)
        pairs = _all_pairs(scheme.graph.num_vertices)
        batch = scheme.compile().route_many(pairs)
        assert batch == [reference.route(u, v) for u, v in pairs]
        # no spare room in a path a caller may hold
        assert all(sys.getsizeof(r.path) == sys.getsizeof(r.path[:])
                   for r in batch)

    @pytest.mark.parametrize("name", CASE_IDS)
    def test_single_route_matches_batch(self, built_cases, name):
        compiled = built_cases[name].scheme.compile()
        n = compiled.num_vertices
        rng = random.Random(7)
        pairs = sample_pairs(n, 50, rng)
        batch = compiled.route_many(pairs)
        for (u, v), served in zip(pairs, batch):
            assert compiled.route(u, v) == served

    @pytest.mark.parametrize("name", CASE_IDS)
    def test_estimates_match_dist_on_the_cluster_system(self, built_cases,
                                                        name):
        """Every ordered pair's Algorithm 2 — estimate, iterations and
        final center — against a Dist that reads the cluster system
        itself, not the columns built from it."""
        estimation = built_cases[name].estimation
        clusters = estimation.clusters
        compiled = estimation.compile()
        pairs = _all_pairs(estimation.graph.num_vertices)
        expected = [_dist_on_clusters(clusters, u, v) for u, v in pairs]
        assert [compiled.query(u, v) for u, v in pairs] == expected
        assert [estimation.query(u, v) for u, v in pairs] == expected
        estimates = [result.estimate for result in expected]
        assert compiled.estimate_many(pairs) == estimates
        assert estimation.estimate_many(pairs) == estimates

    def test_out_of_range_rejected(self, built_cases):
        compiled = built_cases["grid"].scheme.compile()
        n = compiled.num_vertices
        with pytest.raises(ParameterError):
            compiled.route(0, n)
        with pytest.raises(ParameterError):
            compiled.route_many([(0, 1), (-1, 2)])
        est = built_cases["grid"].estimation.compile()
        with pytest.raises(ParameterError):
            est.estimate_many([(0, n)])

    def test_scheme_route_many_delegates(self, built_cases):
        scheme = built_cases["random"].scheme
        pairs = sample_pairs(scheme.graph.num_vertices, 30,
                             random.Random(1))
        assert scheme.route_many(pairs) == \
            scheme.compile().route_many(pairs)

    def test_batch_path_preserves_stretch_report(self, built_cases):
        """evaluate_routing's batch path == the per-call fallback."""
        built = built_cases["random"]
        graph = built.scheme.graph

        class _SingleOnly:
            def __init__(self, compiled):
                self._compiled = compiled

            def route(self, u, v):
                return self._compiled.route(u, v)

        batched = evaluate_routing(graph, built.scheme, sample=100,
                                   seed=3)
        single = evaluate_routing(graph,
                                  _SingleOnly(built.scheme.compile()),
                                  sample=100, seed=3)
        assert batched == single


class TestRoundTrip:

    @pytest.mark.parametrize("name", CASE_IDS)
    def test_routing_artifact_round_trip(self, built_cases, name,
                                         tmp_path):
        built = built_cases[name]
        scheme = built.scheme
        compiled = scheme.compile()
        path = tmp_path / f"{name}.cra"
        compiled.save(path)
        loaded = CompiledScheme.load(path)
        pairs = _all_pairs(scheme.graph.num_vertices)
        assert loaded.route_many(pairs) == compiled.route_many(pairs)
        # word counts survive the trip and match the scheme
        assert loaded.max_table_words() == scheme.max_table_words()
        assert loaded.average_table_words() == \
            scheme.average_table_words()
        assert loaded.max_label_words() == scheme.max_label_words()
        assert loaded.average_label_words() == \
            scheme.average_label_words()
        # measured stretch is identical through the loaded artifact
        live = evaluate_routing(scheme.graph, scheme, sample=150, seed=9)
        served = evaluate_routing(scheme.graph, loaded, sample=150,
                                  seed=9)
        assert served == live
        assert loaded.meta["construction_rounds"] == \
            scheme.construction_rounds

    @pytest.mark.parametrize("name", CASE_IDS)
    def test_estimation_artifact_round_trip(self, built_cases, name,
                                            tmp_path):
        built = built_cases[name]
        estimation = built.estimation
        compiled = estimation.compile()
        path = tmp_path / f"{name}.cre"
        compiled.save(path)
        loaded = CompiledEstimation.load(path)
        pairs = _all_pairs(estimation.graph.num_vertices)
        assert loaded.estimate_many(pairs) == \
            compiled.estimate_many(pairs)
        assert loaded.max_sketch_words() == \
            estimation.max_sketch_words()
        live = evaluate_estimation(estimation.graph, estimation,
                                   sample=150, seed=9)
        served = evaluate_estimation(estimation.graph, loaded,
                                     sample=150, seed=9)
        assert served == live

    def test_load_artifact_dispatches_on_kind(self, built_cases,
                                              tmp_path):
        built = built_cases["grid"]
        r_path = tmp_path / "scheme.cra"
        e_path = tmp_path / "est.cra"
        built.scheme.compile().save(r_path)
        built.estimation.compile().save(e_path)
        assert isinstance(load_artifact(r_path), CompiledScheme)
        assert isinstance(load_artifact(e_path), CompiledEstimation)

    def test_wrong_kind_rejected(self, built_cases, tmp_path):
        built = built_cases["grid"]
        path = tmp_path / "est.cra"
        built.estimation.compile().save(path)
        with pytest.raises(ArtifactError):
            CompiledScheme.load(path)
        path2 = tmp_path / "scheme.cra"
        built.scheme.compile().save(path2)
        with pytest.raises(ArtifactError):
            CompiledEstimation.load(path2)


class TestCorruptionRejection:

    @pytest.fixture()
    def artifact_bytes(self, built_cases, tmp_path):
        path = tmp_path / "scheme.cra"
        built_cases["grid"].scheme.compile().save(path)
        return path, path.read_bytes()

    def test_bad_magic(self, artifact_bytes, tmp_path):
        _path, data = artifact_bytes
        bad = tmp_path / "bad_magic.cra"
        bad.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(ArtifactError, match="magic"):
            load_artifact(bad)

    def test_wrong_version(self, artifact_bytes, tmp_path):
        _path, data = artifact_bytes
        bad = tmp_path / "bad_version.cra"
        bad.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 1)
                        + data[8:])
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(bad)

    def test_truncated_payload(self, artifact_bytes, tmp_path):
        _path, data = artifact_bytes
        bad = tmp_path / "truncated.cra"
        bad.write_bytes(data[:len(data) - 64])
        with pytest.raises(ArtifactError, match="truncat"):
            load_artifact(bad)

    def test_trailing_garbage(self, artifact_bytes, tmp_path):
        _path, data = artifact_bytes
        bad = tmp_path / "trailing.cra"
        bad.write_bytes(data + b"\x00" * 16)
        with pytest.raises(ArtifactError, match="trailing"):
            load_artifact(bad)

    def test_not_an_artifact(self, tmp_path):
        bogus = tmp_path / "bogus.cra"
        bogus.write_bytes(b"hello")
        with pytest.raises(ArtifactError):
            load_artifact(bogus)

    def test_missing_arrays_rejected(self, tmp_path):
        """A well-framed file whose manifest lies about content."""
        from repro.core.compiled import _write_artifact
        hollow = tmp_path / "hollow.cra"
        _write_artifact(hollow, "routing", {"n": 4, "k": 2},
                        [["bogus", "q", []]])
        with pytest.raises(ArtifactError, match="missing required"):
            load_artifact(hollow)
        _write_artifact(hollow, "estimation", {"n": 4, "k": 2},
                        [["bogus", "q", []]])
        with pytest.raises(ArtifactError, match="missing required"):
            load_artifact(hollow)

    def test_metadata_without_nk_rejected(self, tmp_path, built_cases):
        from repro.core.compiled import (
            CompiledScheme as CS,
            _decode_payload,
            _read_container,
            _write_artifact,
        )
        path = tmp_path / "scheme.cra"
        built_cases["grid"].scheme.compile().save(path)
        kind, meta, manifest, payload = _read_container(path)
        arrays = _decode_payload(manifest, payload)
        meta.pop("n")
        bad = tmp_path / "no_n.cra"
        _write_artifact(bad, kind, meta,
                        [(name, tc, arrays[name])
                         for name, tc in CS._FIELDS])
        with pytest.raises(ArtifactError, match="metadata"):
            load_artifact(bad)


class TestHopBudget:
    """A caller-supplied ``max_hops`` running out is the caller's
    problem: :class:`HopBudgetError`, never the bare ``SchemeError``
    reserved for corrupt artifacts (pre-fix, both cases raised the
    same exception and callers could not tell them apart)."""

    def test_exact_budget_succeeds(self, built_cases):
        compiled = built_cases["grid"].scheme.compile()
        n = compiled.num_vertices
        r = compiled.route(0, n - 1)
        hops = len(r.path) - 1
        assert compiled.route(0, n - 1, max_hops=hops) == r

    def test_one_short_raises_hop_budget_error(self, built_cases):
        compiled = built_cases["grid"].scheme.compile()
        n = compiled.num_vertices
        hops = len(compiled.route(0, n - 1).path) - 1
        assert hops >= 1
        with pytest.raises(HopBudgetError):
            compiled.route(0, n - 1, max_hops=hops - 1)

    def test_zero_budget(self, built_cases):
        compiled = built_cases["grid"].scheme.compile()
        with pytest.raises(HopBudgetError):
            compiled.route(0, compiled.num_vertices - 1, max_hops=0)
        # the self route takes no hops, so zero budget suffices
        assert compiled.route(3, 3, max_hops=0).path == [3]

    def test_batch_budget(self, built_cases):
        compiled = built_cases["grid"].scheme.compile()
        pairs = _all_pairs(compiled.num_vertices)
        worst = max(len(r.path) - 1
                    for r in compiled.route_many(pairs))
        assert compiled.route_many(pairs, max_hops=worst) == \
            compiled.route_many(pairs)
        with pytest.raises(HopBudgetError):
            compiled.route_many(pairs, max_hops=worst - 1)


class TestReportingDegenerates:
    """``max_*``/``average_*`` on empty artifacts return the identity
    (0 / 0.0) instead of tripping over ``max()`` of an empty sequence
    or a zero division — degenerate artifacts are legal and serve the
    empty batch."""

    @pytest.fixture()
    def empty_scheme(self):
        arrays = {name: [] for name, _tc in CompiledScheme._FIELDS}
        return CompiledScheme({"n": 0, "k": 1}, arrays)

    @pytest.fixture()
    def empty_estimation(self):
        arrays = {name: []
                  for name, _tc in CompiledEstimation._FIELDS}
        return CompiledEstimation({"n": 0, "k": 1}, arrays)

    def test_empty_scheme_reporting(self, empty_scheme):
        assert empty_scheme.max_table_words() == 0
        assert empty_scheme.average_table_words() == 0.0
        assert empty_scheme.max_label_words() == 0
        assert empty_scheme.average_label_words() == 0.0

    def test_empty_scheme_serves_empty_batch(self, empty_scheme):
        assert empty_scheme.route_many([]) == []
        with pytest.raises(ParameterError):
            empty_scheme.route(0, 0)

    def test_empty_estimation_reporting(self, empty_estimation):
        assert empty_estimation.max_sketch_words() == 0
        assert empty_estimation.average_sketch_words() == 0.0
        assert empty_estimation.estimate_many([]) == []

    def test_empty_scheme_round_trips(self, empty_scheme, tmp_path):
        path = tmp_path / "empty.cra"
        empty_scheme.save(path)
        loaded = load_artifact(path)
        assert isinstance(loaded, CompiledScheme)
        assert loaded.max_table_words() == 0
        assert loaded.average_table_words() == 0.0

    def test_empty_scheme_compiles_to_a_dense_plane(self, empty_scheme):
        """Zero slots, trees and member rows: the array compile and the
        load sweep take empty columns."""
        from repro.core import DenseRoutingPlane
        plane = DenseRoutingPlane.from_compiled(empty_scheme)
        assert plane.route_many([]) == []
        buffers = plane.export_buffers()
        attached = DenseRoutingPlane.attach(buffers.header(),
                                            buffers.payload)
        assert attached.export_buffers() == buffers

    def test_single_vertex_scheme(self):
        from repro.graphs.generators import WeightedGraph
        compiled = (SchemePipeline().graph(WeightedGraph(1),
                                           name="one")
                    .params(2).seed(1).compile("flat"))
        # one vertex still owns a real table; averages are over n=1
        assert compiled.max_table_words() == \
            compiled.average_table_words()
        assert compiled.max_label_words() == \
            compiled.average_label_words()
        route = compiled.route(0, 0)
        assert route.path == [0]
        assert route.weight == 0.0

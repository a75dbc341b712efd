"""Tests for the staged SchemePipeline facade and workload provenance."""

import pytest

from repro.exceptions import ParameterError
from repro.graphs import random_connected
from repro.pipeline import (
    WORKLOADS,
    BuildReport,
    SchemePipeline,
    make_workload,
)


class TestStagedConfiguration:

    def test_params_required(self):
        with pytest.raises(ParameterError, match="params"):
            SchemePipeline().workload("random", 20).build()

    def test_input_required(self):
        with pytest.raises(ParameterError, match="workload"):
            SchemePipeline().params(2).build()

    def test_unknown_workload_rejected(self):
        with pytest.raises(ParameterError, match="unknown workload"):
            SchemePipeline().workload("mystery", 20)

    def test_stages_chain_in_any_order(self):
        built = (SchemePipeline().seed(3).params(2)
                 .workload("random", 24).build())
        assert isinstance(built, BuildReport)
        assert built.rounds > 0

    def test_build_is_cached(self):
        pipeline = (SchemePipeline().workload("random", 24)
                    .params(2).seed(1))
        assert pipeline.build() is pipeline.build()

    def test_stage_change_invalidates_cache(self):
        pipeline = (SchemePipeline().workload("random", 24)
                    .params(2).seed(1))
        first = pipeline.build()
        second = pipeline.seed(2).build()
        assert first is not second

    def test_compile_builds_on_demand(self):
        pipeline = (SchemePipeline().workload("random", 24)
                    .params(2).seed(1))
        compiled = pipeline.compile()
        assert compiled.num_vertices == pipeline.build().num_vertices
        assert pipeline.compile() is compiled

    def test_compile_serves_dense_and_keeps_the_flat_oracle(self):
        from repro.core import CompiledScheme, DenseRoutingPlane
        pipeline = (SchemePipeline().workload("random", 24)
                    .params(2).seed(1))
        dense = pipeline.compile()
        assert isinstance(dense, DenseRoutingPlane)
        assert pipeline.compile("dense") is dense
        flat = pipeline.compile("flat")
        assert isinstance(flat, CompiledScheme)
        pairs = [(s, t) for s in range(24) for t in range(24)]
        assert dense.route_many(pairs) == flat.route_many(pairs)
        with pytest.raises(ParameterError, match="unknown artifact"):
            pipeline.compile("sparse")

    def test_estimation_path_skips_full_build(self):
        pipeline = (SchemePipeline().workload("random", 24)
                    .params(2).seed(1))
        est = pipeline.build_estimation()
        assert pipeline.build_estimation() is est  # cached
        compiled = pipeline.compile_estimation()
        assert pipeline._built is None  # forest never constructed
        assert compiled.max_sketch_words() == est.max_sketch_words()

    def test_full_build_shares_estimation(self):
        pipeline = (SchemePipeline().workload("random", 24)
                    .params(2).seed(1))
        built = pipeline.build()
        assert pipeline.build_estimation() is built.estimation


class TestWorkloadProvenance:
    """The grid/cliques/star factories round ``n``; the rounding must be
    visible, not silent (ISSUE 2 satellite)."""

    def test_all_workloads_report_actual_n(self):
        for name in WORKLOADS:
            instance = make_workload(name, 40, seed=1)
            assert instance.num_vertices == \
                instance.graph.num_vertices
            assert instance.requested_n == 40
            assert instance.graph.is_connected(), name

    @pytest.mark.parametrize("name,requested,actual", [
        ("grid", 50, 49),        # 7x7
        ("cliques", 20, 16),     # 2 cliques of 8
        ("star", 25, 21),        # 2 arms of 10 + hub
    ])
    def test_rounding_families_expose_mismatch(self, name, requested,
                                               actual):
        instance = make_workload(name, requested, seed=1)
        assert instance.num_vertices == actual != requested
        assert f"requested n={requested}" in instance.describe()
        assert f"n={actual}" in instance.describe()

    def test_build_report_carries_requested_and_actual(self):
        built = (SchemePipeline().workload("grid", 50).params(2)
                 .seed(1).build())
        assert built.requested_n == 50
        assert built.num_vertices == 49
        assert "requested n=50" in built.summary()
        assert "n=49" in built.summary()

    def test_exact_sizes_not_flagged(self):
        instance = make_workload("grid", 49, seed=1)
        assert instance.num_vertices == 49
        assert "requested" not in instance.describe()
        built = (SchemePipeline().workload("random", 24).params(2)
                 .seed(1).build())
        assert "requested" not in built.summary()

    def test_custom_graph_has_no_requested_n(self):
        graph = random_connected(20, 0.2, seed=1)
        built = SchemePipeline().graph(graph).params(2).build()
        assert built.requested_n is None
        assert built.workload == "custom"


class TestServeAsync:
    """The streaming stage of the lifecycle: build → compile →
    serve_async (broker internals are pinned in tests/server)."""

    def test_serve_async_both_kinds_bit_identical(self):
        import asyncio

        pipeline = (SchemePipeline().workload("grid", 25).params(2)
                    .seed(3))
        compiled = pipeline.compile()
        estimation = pipeline.compile_estimation()

        async def main():
            broker = pipeline.serve_async(kind="both",
                                          max_wait_ms=0.5)
            async with broker:
                assert broker.serves_routing
                assert broker.serves_estimation
                route = await broker.route(0, 7)
                estimate = await broker.estimate(0, 7)
            return route, estimate

        route, estimate = asyncio.run(main())
        assert route == compiled.route(0, 7)
        assert estimate == estimation.estimate(0, 7)

    def test_serve_async_pool_backend_owned(self):
        import asyncio

        pipeline = (SchemePipeline().workload("grid", 25).params(2)
                    .seed(3))
        compiled = pipeline.compile()

        async def main():
            broker = pipeline.serve_async(workers=1, max_wait_ms=0.5)
            pool = broker.router
            async with broker:
                route = await broker.route(3, 12)
            return route, pool

        route, pool = asyncio.run(main())
        assert route == compiled.route(3, 12)
        assert pool.closed, "aclose() must close the owned pool"

    def test_serve_async_rejects_unknown_kind(self):
        pipeline = (SchemePipeline().workload("grid", 25).params(2)
                    .seed(3))
        with pytest.raises(ParameterError, match="serve kind"):
            pipeline.serve_async(kind="nope")

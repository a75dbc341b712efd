"""Cross-shard equivalence: the pool is bit-identical to in-process.

The acceptance grid: ~10 seeded workloads × worker counts {1, 2, 4} ×
artifact as built or as loaded from its ``.cra`` file —
`RouterPool` output (routes, paths, costs, estimates) must equal the
single-process `route_many`/`estimate_many` of the artifact it serves
down to the last bit, including empty batches, duplicate pairs and
``source == target``.  The loaded leg is the artifact `repro query` and
`repro serve` hand the pool.

A forked slice re-runs with the dense module's walk/vector cutover
moved above any batch (workers inherit the patched state), so the
workers' parent walk is held to the same grid.  There is one artifact
transport (shared memory), one result transport (columnar) and one
partition (round-robin); what varies is the start method and which
body serves the workers' batches.
"""

import pytest

import sys

import repro.core.dense as dense_mod
from repro.core import load_artifact
from repro.serving import RouterPool
from repro.serving.pool import _SHARDS_PER_WORKER

from serving_cases import WORKLOAD_IDS, build_case

WORKERS = [1, 2, 4]
SOURCES = ["built", "loaded"]


def _served(artifact, source, tmp_path):
    """The artifact as built, or round-tripped through its file."""
    if source == "built":
        return artifact
    path = tmp_path / "served.cra"
    artifact.save(path)
    return load_artifact(path)


def _assert_routes_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.source == w.source
        assert g.target == w.target
        assert list(g.path) == list(w.path)
        assert g.weight == w.weight          # bit-equal floats
        assert g.tree_center == w.tree_center
        assert g.found_level == w.found_level


class TestRoutingEquivalence:

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("case_id", WORKLOAD_IDS)
    def test_pool_bit_identical(self, case_id, workers, source,
                                start_method, tmp_path):
        case = build_case(case_id)
        artifact = _served(case["compiled"], source, tmp_path)
        with RouterPool(artifact, workers=workers,
                        start_method=start_method) as pool:
            for name, pairs in case["batches"].items():
                got = pool.route_many(pairs)
                _assert_routes_equal(got, case["expected_routes"][name])
                # equality of the result objects themselves too
                assert got == case["expected_routes"][name], name

    def test_max_hops_forwarded(self, start_method):
        case = build_case("grid25-k2")
        compiled = case["compiled"]
        pairs = case["batches"]["random"][:60]
        budget = 3 * case["n"]
        with RouterPool(compiled, workers=2,
                        start_method=start_method) as pool:
            assert pool.route_many(pairs, max_hops=budget) == \
                compiled.route_many(pairs, max_hops=budget)


class TestEstimationEquivalence:

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("case_id", WORKLOAD_IDS)
    def test_pool_bit_identical(self, case_id, workers, source,
                                start_method, tmp_path):
        case = build_case(case_id)
        artifact = _served(case["estimation"], source, tmp_path)
        with RouterPool(artifact, workers=workers,
                        start_method=start_method) as pool:
            for name, pairs in case["batches"].items():
                assert pool.estimate_many(pairs) == \
                    case["expected_estimates"][name], name


class TestParentWalkInWorkers:
    """The workers' parent walk, via the inherited-state trick: with
    ``_VECTOR_MIN_PAIRS`` above any batch before forking, every batch a
    worker serves takes the walk."""

    CASES = ["grid25-k2", "random30-k2", "cliques32-k3"]

    @pytest.fixture(autouse=True)
    def walk_only(self, monkeypatch, fork_only):
        monkeypatch.setattr(dense_mod, "_VECTOR_MIN_PAIRS", sys.maxsize)

    @pytest.mark.parametrize("case_id", CASES)
    def test_pool_bit_identical(self, case_id):
        case = build_case(case_id)
        with RouterPool(case["compiled"], workers=2,
                        start_method="fork") as pool:
            for name, pairs in case["batches"].items():
                assert pool.route_many(pairs) == \
                    case["expected_routes"][name], name
        with RouterPool(case["estimation"], workers=2,
                        start_method="fork") as pool:
            assert pool.estimate_many(case["batches"]["random"]) == \
                case["expected_estimates"]["random"]


class TestSpawnStartMethod:
    """spawn re-imports the worker from scratch and pickles the init
    tuple into it; exercise that explicitly on every CI leg, whatever
    ``REPRO_START_METHOD`` says."""

    def test_spawn_bit_identical(self):
        import multiprocessing as mp
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        case = build_case("grid25-k2")
        with RouterPool(case["compiled"], workers=2,
                        start_method="spawn") as pool:
            for name, pairs in case["batches"].items():
                assert pool.route_many(pairs) == \
                    case["expected_routes"][name], name
        with RouterPool(case["estimation"], workers=1,
                        start_method="spawn") as pool:
            assert pool.estimate_many(case["batches"]["random"]) == \
                case["expected_estimates"]["random"]


class TestConcurrentCallers:
    """Multi-threaded callers are serialized on one in-flight batch;
    every thread still gets exactly its own bit-identical results."""

    def test_threaded_calls_do_not_interleave(self, start_method):
        import threading
        case = build_case("random30-k2")
        pairs = case["batches"]["random"]
        want = case["expected_routes"]["random"]
        failures = []
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            def hammer(tid):
                for _ in range(5):
                    if pool.route_many(pairs) != want:
                        failures.append(tid)  # pragma: no cover
            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []


class TestShardBoundaries:
    """A batch is dealt round-robin into at most ``workers × 4``
    shards; batch sizes either side of that count stay bit-identical
    and dispatch ``min(size, workers × 4)`` shards."""

    def test_sizes_around_the_shard_count(self, start_method):
        case = build_case("random30-k2")
        pairs = case["batches"]["random"]
        want = case["expected_routes"]["random"]
        shards = 2 * _SHARDS_PER_WORKER
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            for size in (shards - 1, shards, shards + 1):
                before = pool.stats()["shards"]
                assert pool.route_many(pairs[:size]) == want[:size]
                assert pool.stats()["shards"] - before == \
                    min(size, shards)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_shard_count_follows_workers(self, workers, start_method):
        case = build_case("grid49-k3")
        pairs = case["batches"]["random"]
        want = case["expected_routes"]["random"]
        shards = workers * _SHARDS_PER_WORKER
        with RouterPool(case["compiled"], workers=workers,
                        start_method=start_method) as pool:
            for size in (1, shards - 1, shards, shards + 1, len(pairs)):
                before = pool.stats()["shards"]
                assert pool.route_many(pairs[:size]) == want[:size]
                assert pool.stats()["shards"] - before == \
                    min(size, shards)

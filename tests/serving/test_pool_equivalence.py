"""Cross-shard equivalence: the pool is bit-identical to in-process.

The acceptance grid (ISSUE 4): ~10 seeded workloads × worker counts
{1, 2, 4} × both sharding policies × numpy on/off — `RouterPool`
output (routes, ports/paths, costs, estimates) must equal the
single-process `route_many`/`estimate_many` down to the last bit,
including empty batches, duplicate pairs and ``source == target``.

The numpy-off dimension runs two ways: here by patching the compiled
module's numpy switch before forking (workers inherit the patched
state), and for real in the CI no-numpy job, which uninstalls numpy
and re-runs this whole directory.  There is one artifact transport
(shared memory) and one result transport (columnar); what varies is
the start method and whether the attach decodes through numpy.
"""

import pytest

import repro.core.compiled as compiled_mod
from repro.serving import RouterPool
from repro.serving.sharding import (
    available_policies,
    shard_round_robin,
    shard_source_hash,
)

from serving_cases import WORKLOAD_IDS, build_case

POLICIES = available_policies()
WORKERS = [1, 2, 4]


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

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("case_id", WORKLOAD_IDS)
    def test_pool_bit_identical(self, case_id, workers, policy,
                                start_method):
        case = build_case(case_id)
        with RouterPool(case["compiled"], workers=workers,
                        policy=policy,
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

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("case_id", WORKLOAD_IDS)
    def test_pool_bit_identical(self, case_id, workers, policy,
                                start_method):
        case = build_case(case_id)
        with RouterPool(case["estimation"], workers=workers,
                        policy=policy,
                        start_method=start_method) as pool:
            for name, pairs in case["batches"].items():
                assert pool.estimate_many(pairs) == \
                    case["expected_estimates"][name], name


class TestNoNumpyAttach:
    """The numpy-off half of the grid, via the inherited-state trick:
    with the compiled module's numpy switch off, export and attach go
    through the stdlib ``array`` path on both sides of the segment."""

    CASES = ["grid25-k2", "random30-k2", "cliques32-k3"]

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch, fork_only):
        monkeypatch.setattr(compiled_mod, "_np", None)

    @pytest.mark.parametrize("case_id", CASES)
    def test_pool_bit_identical(self, case_id):
        case = build_case(case_id)
        for policy in POLICIES:
            with RouterPool(case["compiled"], workers=2,
                            policy=policy,
                            start_method="fork") as pool:
                for name, pairs in case["batches"].items():
                    assert pool.route_many(pairs) == \
                        case["expected_routes"][name], (name, policy)
        with RouterPool(case["estimation"], workers=2,
                        start_method="fork") as pool:
            assert pool.estimate_many(case["batches"]["random"]) == \
                case["expected_estimates"]["random"]


class TestSpawnStartMethod:
    """spawn re-imports the worker from scratch and pickles the init
    tuple into it; exercise that explicitly on every CI leg, numpy or
    not, whatever ``REPRO_START_METHOD`` says."""

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


class TestWorkerLayoutKnobs:
    """Non-default worker layouts stay bit-identical: zero-copy
    (materialize=False) serving off the shared segment, and
    oversharding turned off/up."""

    def test_zero_copy_workers_bit_identical(self, start_method):
        case = build_case("grid49-k3")
        with RouterPool(case["compiled"], workers=2,
                        materialize=False,
                        start_method=start_method) as pool:
            for name, pairs in case["batches"].items():
                assert pool.route_many(pairs) == \
                    case["expected_routes"][name], name
        with RouterPool(case["estimation"], workers=2,
                        materialize=False,
                        start_method=start_method) as pool:
            assert pool.estimate_many(case["batches"]["random"]) == \
                case["expected_estimates"]["random"]

    @pytest.mark.parametrize("shards_per_worker", [1, 2, 9])
    def test_oversharding_bit_identical(self, shards_per_worker,
                                        start_method):
        case = build_case("random30-k2")
        with RouterPool(case["compiled"], workers=2,
                        shards_per_worker=shards_per_worker,
                        start_method=start_method) as pool:
            for name, pairs in case["batches"].items():
                assert pool.route_many(pairs) == \
                    case["expected_routes"][name], name

    def test_bad_shards_per_worker_rejected(self):
        from repro.exceptions import ParameterError
        case = build_case("random30-k2")
        with pytest.raises(ParameterError, match="shards_per_worker"):
            RouterPool(case["compiled"], workers=1,
                       shards_per_worker=0)


class TestShardingPolicies:
    """Policies are partitions: disjoint, complete, deterministic."""

    @pytest.mark.parametrize("policy_fn", [shard_round_robin,
                                           shard_source_hash])
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_partition(self, policy_fn, num_shards):
        pairs = [(i % 13, (3 * i) % 13) for i in range(101)]
        shards = policy_fn(pairs, num_shards)
        assert len(shards) == num_shards
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(pairs)))
        # deterministic across calls (no salted hashing)
        assert policy_fn(pairs, num_shards) == shards

    def test_round_robin_balance(self):
        shards = shard_round_robin([(0, 0)] * 100, 4)
        assert [len(s) for s in shards] == [25, 25, 25, 25]

    def test_source_hash_groups_sources(self):
        pairs = [(u, v) for u in range(20) for v in range(5)]
        shards = shard_source_hash(pairs, 4)
        owner = {}
        for shard_id, idxs in enumerate(shards):
            for i in idxs:
                u = pairs[i][0]
                assert owner.setdefault(u, shard_id) == shard_id

    def test_unknown_policy_rejected(self):
        from repro.exceptions import ParameterError
        case = build_case("grid25-k2")
        with pytest.raises(ParameterError, match="sharding policy"):
            RouterPool(case["compiled"], workers=1, policy="bogus")

"""Zero-downtime hot-swap on a live RouterPool.

The swap contract: after ``pool.swap(new_artifact)`` returns, every
subsequent batch is served from the new artifact on every worker
(bit-identical to serving it single-process), the old shared-memory
segment is unlinked, and batches issued concurrently with the swap are
attributable to exactly one generation — never a mix.
"""

import random
import threading

import pytest

from repro.exceptions import ParameterError, ServingError
from repro.pipeline import SchemePipeline
from repro.serving import RouterPool

from serving_cases import build_case

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None


@pytest.fixture(scope="module")
def case():
    return build_case("grid25-k2")


_variants = {}


def build_variant(bump):
    """A dense plane for the same grid with perturbed weights — routes
    differ from the base case, so responses are attributable to a
    generation by value."""
    if bump in _variants:
        return _variants[bump]
    base = SchemePipeline().workload("grid", 25).seed(3)
    graph = base._resolve_graph().copy()
    rng = random.Random(bump)
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    for u, v, w in edges[:len(edges) // 2]:
        graph.update_edge_weight(u, v, w + rng.randrange(1, 40))
    pipe = SchemePipeline().graph(graph).params(2).seed(3)
    compiled = pipe.compile()
    _variants[bump] = compiled
    return compiled


def expected_for(artifact, pairs):
    return artifact.route_many(pairs)


class TestSwapCorrectness:

    def test_two_swaps_bit_identical(self, case, start_method):
        pairs = case["batches"]["random"]
        gen1, gen2 = build_variant(1), build_variant(2)
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            assert pool.generation == 0
            assert pool.route_many(pairs) == \
                case["expected_routes"]["random"]
            latency = pool.swap(gen1)
            assert latency > 0.0 and pool.generation == 1
            assert pool.route_many(pairs) == expected_for(gen1, pairs)
            pool.swap(gen2)
            assert pool.generation == 2
            assert pool.route_many(pairs) == expected_for(gen2, pairs)

    def test_swap_rejects_flat_oracle(self, case, start_method):
        """The flat CompiledScheme is the dense plane's oracle, not a
        served artifact: swapping it in is refused before any worker
        hears of it, and the pool keeps serving generation 0."""
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            with pytest.raises(ParameterError,
                               match="not a CompiledScheme"):
                pool.swap(case["flat"])
            assert pool.generation == 0
            assert pool.route_many(case["batches"]["random"]) == \
                case["expected_routes"]["random"]

    def test_swap_unlinks_old_segment(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            old_name = pool.shm_name
            assert old_name is not None
            pool.swap(build_variant(1))
            new_name = pool.shm_name
            assert new_name is not None and new_name != old_name
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=old_name)
            # pool still fully functional on the new segment
            assert pool.route_many(case["batches"]["single"]) == \
                expected_for(build_variant(1),
                             case["batches"]["single"])

    def test_estimation_pool_swap(self, case, start_method):
        pairs = case["batches"]["random"]
        gen1 = (SchemePipeline().workload("grid", 25).params(3)
                .seed(3).compile_estimation())
        with RouterPool(case["estimation"], workers=2,
                        start_method=start_method) as pool:
            assert pool.estimate_many(pairs) == \
                case["expected_estimates"]["random"]
            pool.swap(gen1)
            assert pool.estimate_many(pairs) == \
                gen1.estimate_many(pairs)


class TestSwapValidation:

    def test_wrong_family_rejected(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            with pytest.raises(ParameterError):
                pool.swap(case["estimation"])
            # rejected before any worker message: pool not poisoned
            assert pool.route_many(case["batches"]["single"]) == \
                case["expected_routes"]["single"]
            assert pool.generation == 0

    def test_non_artifact_rejected(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            with pytest.raises(ParameterError):
                pool.swap(object())

    def test_swap_after_close_raises(self, case, start_method):
        pool = RouterPool(case["compiled"], workers=2,
                          start_method=start_method)
        pool.close()
        with pytest.raises(ServingError):
            pool.swap(build_variant(1))


class TestGenerationAttribution:

    def test_tagged_batches_under_concurrent_swaps(self, case,
                                                   start_method):
        """Hammer route_many_tagged from threads while the main thread
        performs two swaps: every tagged response must bit-match the
        artifact of exactly the generation it claims."""
        pairs = case["batches"]["random"][:60]
        artifacts = {0: case["compiled"], 1: build_variant(1),
                     2: build_variant(2)}
        expected = {gen: expected_for(art, pairs)
                    for gen, art in artifacts.items()}
        # the test only proves attribution if generations disagree
        assert expected[0] != expected[1] != expected[2]

        mismatches = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    generation, routes = pool.route_many_tagged(pairs)
                except ServingError:
                    break
                if routes != expected[generation]:
                    mismatches.append(generation)

        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            threads = [threading.Thread(target=hammer)
                       for _ in range(4)]
            for t in threads:
                t.start()
            try:
                for target in (1, 2):
                    pool.swap(artifacts[target])
                    assert pool.generation == target
            finally:
                stop.set()
                for t in threads:
                    t.join()
        assert mismatches == []

    def test_empty_batch_is_tagged(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            assert pool.route_many_tagged([]) == (0, [])
            pool.swap(build_variant(1))
            assert pool.route_many_tagged([]) == (1, [])

"""Columnar result transport: codec round-trips + pool equivalence.

Every pool result travels through the codec (the whole
``tests/serving`` grid exercises it), so this module pins the codec
itself plus the pool-level equality with in-process serving on every
batch shape.
"""

import pytest

from repro.core.compiled import CompiledRoute
from repro.exceptions import ServingError
from repro.serving import RouterPool
from repro.serving import columnar

from serving_cases import build_case


@pytest.fixture(scope="module")
def case():
    return build_case("grid25-k2")


# ----------------------------------------------------------------------
# Codec round trips (no processes)
# ----------------------------------------------------------------------
class TestCodec:

    def test_routes_round_trip(self, case):
        routes = case["expected_routes"]["random"]
        tag, ints, weights = columnar.encode_routes(routes)
        assert tag == "routes"
        assert isinstance(ints, bytes) and isinstance(weights, bytes)
        again = columnar.decode_routes(ints, weights)
        assert again == routes
        # decoded values are plain Python types
        r = again[0]
        assert type(r.source) is int and type(r.weight) is float
        assert all(type(v) is int for v in r.path)

    def test_self_route_center_none_round_trips(self, case):
        routes = case["compiled"].route_many([(3, 3)])
        assert routes[0].tree_center is None
        _tag, ints, weights = columnar.encode_routes(routes)
        again = columnar.decode_routes(ints, weights)
        assert again == routes and again[0].tree_center is None

    def test_empty_round_trips(self):
        tag, ints, weights = columnar.encode_routes([])
        assert columnar.decode_routes(ints, weights) == []
        tag, payload = columnar.encode_estimates([])
        assert columnar.decode_estimates(payload) == []

    def test_estimates_round_trip_exact(self, case):
        values = case["expected_estimates"]["random"]
        _tag, payload = columnar.encode_estimates(values)
        again = columnar.decode_estimates(payload)
        assert again == values          # float64 exact

    def test_tagged_dispatch(self, case):
        routes = case["expected_routes"]["single"]
        assert columnar.decode_result(
            columnar.encode_result(routes)) == routes
        estimates = case["expected_estimates"]["random"][:7]
        assert columnar.decode_result(
            columnar.encode_result(estimates)) == estimates

    def test_corrupt_payloads_raise(self, case):
        routes = case["expected_routes"]["single"]
        _tag, ints, weights = columnar.encode_routes(routes)
        with pytest.raises(ServingError, match="columnar"):
            columnar.decode_routes(ints[:8], weights)
        with pytest.raises(ServingError, match="trailing"):
            columnar.decode_routes(ints + b"\0" * 8, weights)
        with pytest.raises(ServingError, match="tag"):
            columnar.decode_result(("nope", b""))


# ----------------------------------------------------------------------
# Pool-level equivalence through the codec
# ----------------------------------------------------------------------
class TestPoolTransport:

    def test_routes_bit_identical(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            for name, pairs in case["batches"].items():
                assert pool.route_many(pairs) == \
                    case["expected_routes"][name], name

    def test_estimates_bit_identical(self, case, start_method):
        with RouterPool(case["estimation"], workers=2,
                        start_method=start_method) as pool:
            assert pool.estimate_many(case["batches"]["random"]) == \
                case["expected_estimates"]["random"]

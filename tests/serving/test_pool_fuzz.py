"""Randomized input-validation fuzz: pool and single-process paths
must fail identically, and a bad batch must never take a worker down.

Strategy: seeded generator builds mostly-valid batches and injects one
malformed element — out-of-range vertex ids, negative ids, ragged
tuples, non-numeric endpoints — at a random position.  Both paths must
raise the *same exception type with the same message* (the message
names the offending pair index, so this also pins "same offending
index"), and the pool must keep serving correct batches afterwards —
validation happens parent-side, so workers never even see the bad
batch.
"""

import random

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.serving import RouterPool

from serving_cases import build_case

#: bad-element factories: n -> a malformed pair (or non-pair)
CORRUPTIONS = [
    lambda n, rng: (n, rng.randrange(n)),             # u == n
    lambda n, rng: (rng.randrange(n), n),             # v == n
    lambda n, rng: (n + rng.randrange(1, 50), 0),     # far out of range
    lambda n, rng: (-1, rng.randrange(n)),            # negative source
    lambda n, rng: (rng.randrange(n), -rng.randrange(1, 9)),
    lambda n, rng: (rng.randrange(n),),               # 1-tuple
    lambda n, rng: (0, 1, 2),                         # 3-tuple
    lambda n, rng: (),                                # empty
    lambda n, rng: rng.randrange(n),                  # bare int
    lambda n, rng: (rng.randrange(n), "x"),           # non-numeric
    lambda n, rng: (None, rng.randrange(n)),          # None endpoint
    lambda n, rng: "uv",                              # 2-char string
    lambda n, rng: (rng.random() * n, 0),             # float source
    lambda n, rng: (0, float(rng.randrange(n))),      # integral float
]


def _capture(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None, None


@pytest.fixture(scope="module")
def fuzz_case():
    return build_case("random30-k2")


class TestFuzzEquivalence:

    def test_route_many_fails_identically(self, fuzz_case, start_method):
        compiled = fuzz_case["compiled"]
        n = fuzz_case["n"]
        rng = random.Random(0xC0FFEE)
        good_batch = fuzz_case["batches"]["random"][:40]
        expected_good = fuzz_case["expected_routes"]["random"][:40]
        with RouterPool(compiled, workers=2,
                        start_method=start_method) as pool:
            for trial in range(40):
                size = rng.randrange(1, 30)
                batch = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(size)]
                if rng.random() < 0.85:
                    bad = rng.choice(CORRUPTIONS)(n, rng)
                    batch.insert(rng.randrange(size + 1), bad)
                single = _capture(compiled.route_many, batch)
                pooled = _capture(pool.route_many, batch)
                assert single == pooled, (trial, batch)
                if single[0] is None:  # valid batch: results match too
                    assert pool.route_many(batch) == \
                        compiled.route_many(batch)
                else:
                    assert single[0] is ParameterError
                    assert "pair #" in single[1]
                # a bad batch must not have hurt the workers
                if trial % 10 == 9:
                    assert pool.route_many(good_batch) == expected_good

    def test_estimate_many_fails_identically(self, fuzz_case,
                                             start_method):
        estimation = fuzz_case["estimation"]
        n = fuzz_case["n"]
        rng = random.Random(0xBEEF)
        with RouterPool(estimation, workers=2,
                        start_method=start_method) as pool:
            for trial in range(25):
                size = rng.randrange(1, 25)
                batch = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(size)]
                if rng.random() < 0.85:
                    bad = rng.choice(CORRUPTIONS)(n, rng)
                    batch.insert(rng.randrange(size + 1), bad)
                single = _capture(estimation.estimate_many, batch)
                pooled = _capture(pool.estimate_many, batch)
                assert single == pooled, (trial, batch)
                if single[0] is None:
                    assert pool.estimate_many(batch) == \
                        estimation.estimate_many(batch)
            # pool survived every malformed batch
            sample = fuzz_case["batches"]["random"]
            assert pool.estimate_many(sample) == \
                fuzz_case["expected_estimates"]["random"]

    def test_generator_batch_is_materialized(self, fuzz_case,
                                             start_method):
        """A one-shot iterable batch must serve fully on both paths,
        not validate and then silently return []."""
        compiled = fuzz_case["compiled"]
        pairs = fuzz_case["batches"]["random"][:30]
        want = fuzz_case["expected_routes"]["random"][:30]
        assert compiled.route_many(p for p in pairs) == want
        estimation = fuzz_case["estimation"]
        assert estimation.estimate_many(p for p in pairs) == \
            fuzz_case["expected_estimates"]["random"][:30]
        with RouterPool(compiled, workers=2,
                        start_method=start_method) as pool:
            assert pool.route_many(p for p in pairs) == want

    def test_exotic_pair_objects_cannot_hang_the_pool(self, fuzz_case,
                                                      start_method):
        """Pairs are normalized to plain-int tuples parent-side, so
        valid-but-unpicklable pair objects either serve (reusable
        ones) or raise parent-side (one-shot ones) — never vanish in
        the task queue's feeder thread."""
        compiled = fuzz_case["compiled"]
        with RouterPool(compiled, workers=2,
                        start_method=start_method) as pool:
            rows = [np.array([0, 1]), np.array([2, 3])]
            assert pool.route_many(rows) == \
                compiled.route_many(rows)
            # one-shot pair elements: consumed by validation, so both
            # paths raise the same unpack error instead of hanging
            single = _capture(compiled.route_many, [iter((0, 1))])
            pooled = _capture(pool.route_many, [iter((0, 1))])
            assert single[0] is pooled[0] is ValueError
            # and the pool still serves
            good = fuzz_case["batches"]["random"][:20]
            assert pool.route_many(good) == \
                fuzz_case["expected_routes"]["random"][:20]

    def test_offending_index_is_named(self, fuzz_case, start_method):
        """The error must point at the first bad pair, in input order,
        on both paths — sharding must not reorder blame."""
        compiled = fuzz_case["compiled"]
        n = fuzz_case["n"]
        batch = [(0, 1)] * 7 + [(n, 0)] + [(2, 3)] * 5 + [(-1, 0)]
        with RouterPool(compiled, workers=4,
                        start_method=start_method) as pool:
            for fn in (compiled.route_many, pool.route_many):
                with pytest.raises(ParameterError,
                                   match=r"pair #7") as exc_info:
                    fn(batch)
                assert f"({n}, 0)" in str(exc_info.value)

"""Seeded workload cases shared by the serving test suite.

Lives outside ``conftest.py`` so test modules can import it under a
name that is unique across the repo (several directories carry a
conftest).  Builds are cached per process so ``-k`` selections stay
cheap; each case carries the single-process expected outputs the pool
must reproduce bit for bit.
"""

import random

from repro.pipeline import SchemePipeline

#: (id, workload family, requested n, k, seed) — the ~10 seeded
#: workloads of the equivalence grid.  Sizes stay small: the pool's
#: contract is bit-identity, not scale, and every case spawns several
#: pools.
WORKLOAD_CASES = [
    ("grid25-k2", "grid", 25, 2, 3),
    ("grid49-k3", "grid", 49, 3, 11),
    ("random30-k2", "random", 30, 2, 5),
    ("random44-k3", "random", 44, 3, 7),
    ("geometric36-k2", "geometric", 36, 2, 2),
    ("cliques32-k3", "cliques", 32, 3, 9),
    ("cliques16-k2", "cliques", 16, 2, 1),
    ("star30-k2", "star", 30, 2, 13),
    ("smallworld40-k3", "smallworld", 40, 3, 4),
    ("random36-k4", "random", 36, 4, 17),
]
WORKLOAD_IDS = [case[0] for case in WORKLOAD_CASES]

_cache = {}


def build_case(case_id):
    """Build (once) and return the case's served artifacts (the dense
    plane as ``compiled``, the estimation), the flat oracle the pool
    must refuse, the edge batches, and the single-process expected
    outputs."""
    if case_id in _cache:
        return _cache[case_id]
    _id, family, n, k, seed = next(
        c for c in WORKLOAD_CASES if c[0] == case_id)
    pipeline = (SchemePipeline().workload(family, n).params(k)
                .seed(seed))
    compiled = pipeline.compile()
    estimation = pipeline.compile_estimation()
    actual_n = compiled.num_vertices
    rng = random.Random(1000 + seed)
    sample = [(rng.randrange(actual_n), rng.randrange(actual_n))
              for _ in range(300)]
    batches = {
        "random": sample,
        "empty": [],
        "self": [(v, v) for v in range(actual_n)],
        "duplicates": [sample[0]] * 17 + sample[:40] + [sample[0]] * 3,
        "single": [sample[1]],
    }
    case = {
        "id": case_id,
        "compiled": compiled,
        "flat": pipeline.compile("flat"),
        "estimation": estimation,
        "n": actual_n,
        "batches": batches,
        "expected_routes": {name: compiled.route_many(pairs)
                            for name, pairs in batches.items()},
        "expected_estimates": {name: estimation.estimate_many(pairs)
                               for name, pairs in batches.items()},
    }
    _cache[case_id] = case
    return case

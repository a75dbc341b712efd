#!/usr/bin/env python3
"""Regenerate the golden artifact fixtures.

Run ONLY when the ``RCRA`` format legitimately changes — and then the
change must bump ``repro.core.compiled.FORMAT_VERSION``, which is the
whole point of the fixture: ``tests/core/test_golden_artifact.py``
pins the committed bytes, so an incompatible layout change cannot land
silently and orphan every artifact users have saved.

Usage::

    PYTHONPATH=src python tests/data/regen_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.compiled import FORMAT_VERSION
from repro.core.dense import DenseRoutingPlane
from repro.pipeline import SchemePipeline

HERE = Path(__file__).parent

#: The build recipe behind the fixtures; deterministic end to end.
WORKLOAD, N, K, SEED = "grid", 25, 2, 3

SCHEME_FILE = "golden_grid25_k2.cra"
ESTIMATION_FILE = "golden_grid25_k2_est.cra"
DENSE_FILE = "golden_grid25_k2_dense.cra"
EXPECTED_FILE = "golden_grid25_k2.expected.json"

#: Pairs whose served results are pinned next to the bytes (covers
#: source == target, both directions of one pair, and corner hops).
PINNED_PAIRS = [(0, 24), (24, 0), (7, 7), (3, 12), (12, 3),
                (0, 1), (20, 4), (24, 23)]


def main() -> None:
    pipeline = (SchemePipeline().workload(WORKLOAD, N).params(K)
                .seed(SEED))
    compiled = pipeline.compile("flat")
    estimation = pipeline.compile_estimation()
    compiled.save(HERE / SCHEME_FILE)
    estimation.save(HERE / ESTIMATION_FILE)
    dense = DenseRoutingPlane.from_compiled(compiled)
    dense.save(HERE / DENSE_FILE)

    rng = random.Random(99)
    sample = [(rng.randrange(compiled.num_vertices),
               rng.randrange(compiled.num_vertices))
              for _ in range(40)]
    pairs = PINNED_PAIRS + sample
    expected = {
        "format_version": FORMAT_VERSION,
        "recipe": {"workload": WORKLOAD, "n": N, "k": K,
                   "seed": SEED},
        "scheme_file": SCHEME_FILE,
        "scheme_sha256": hashlib.sha256(
            (HERE / SCHEME_FILE).read_bytes()).hexdigest(),
        "scheme_meta": compiled.meta,
        "estimation_file": ESTIMATION_FILE,
        "estimation_sha256": hashlib.sha256(
            (HERE / ESTIMATION_FILE).read_bytes()).hexdigest(),
        "dense_file": DENSE_FILE,
        "dense_sha256": hashlib.sha256(
            (HERE / DENSE_FILE).read_bytes()).hexdigest(),
        "pairs": [list(p) for p in pairs],
        "routes": [
            {"source": r.source, "target": r.target,
             "weight": r.weight, "path": r.path,
             "tree_center": r.tree_center,
             "found_level": r.found_level}
            for r in compiled.route_many(pairs)],
        "estimates": estimation.estimate_many(pairs),
    }
    (HERE / EXPECTED_FILE).write_text(
        json.dumps(expected, indent=1) + "\n")
    print(f"wrote {SCHEME_FILE}, {ESTIMATION_FILE}, {DENSE_FILE}, "
          f"{EXPECTED_FILE} (format v{FORMAT_VERSION})")


if __name__ == "__main__":
    main()

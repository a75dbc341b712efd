#!/usr/bin/env python3
"""Regenerate ``artifact_digests.json`` — the byte oracle of the build.

Each record is a build recipe (generator, its arguments, ``k``, seed,
``use_tz_trick``) plus what a scratch ``SchemePipeline`` build of it
produced: sha256 of the flat, dense and estimation artifact files, the
construction round count and the max/avg table and label words.
``tests/core/test_artifact_digests.py`` rebuilds every recipe and
asserts all of it, so a change to the construction or to ``compile``
that moves one artifact byte on any of these graphs cannot land
silently.

Run ONLY when the artifact bytes legitimately change (a format bump, a
deliberate change to the construction's sampling) — never to make a
refactor of the builder pass::

    PYTHONPATH=src python tests/data/regen_digests.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

from repro import graphs
from repro.pipeline import SchemePipeline

HERE = Path(__file__).parent
DIGESTS_FILE = "artifact_digests.json"

#: (generator in ``repro.graphs``, positional arguments, graph seed)
ZOO = [
    ("random_connected", [120, 0.05], 101),
    ("grid", [8, 8], 102),
    ("random_tree", [60], 103),
    ("caterpillar_tree", [12, 3], 104),
    ("star_of_paths", [6, 8], 105),
    ("barbell", [8, 10], 106),
    ("path", [40], 107),
]


def recipes():
    for generator, args, seed in ZOO:
        for k in (2, 3):
            yield dict(generator=generator, args=args, seed=seed, k=k,
                       use_tz_trick=True)
    yield dict(generator="random_connected", args=[120, 0.05], seed=101,
               k=3, use_tz_trick=False)
    yield dict(generator="random_connected", args=[120, 0.05], seed=101,
               k=4, use_tz_trick=True)


def build(recipe) -> SchemePipeline:
    graph = getattr(graphs, recipe["generator"])(*recipe["args"],
                                                 seed=recipe["seed"])
    return (SchemePipeline().graph(graph, name=recipe["generator"])
            .params(recipe["k"], use_tz_trick=recipe["use_tz_trick"])
            .seed(recipe["seed"]))


def file_digest(artifact) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.cra"
        artifact.save(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(pipeline: SchemePipeline) -> dict:
    """Everything the oracle pins about one build."""
    construction = pipeline.build().construction
    return {
        "flat_sha256": file_digest(pipeline.compile("flat")),
        "dense_sha256": file_digest(pipeline.compile("dense")),
        "estimation_sha256": file_digest(pipeline.compile_estimation()),
        "rounds": construction.rounds,
        "max_table_words": construction.max_table_words,
        "avg_table_words": construction.avg_table_words,
        "max_label_words": construction.max_label_words,
        "avg_label_words": construction.avg_label_words,
    }


def main() -> None:
    records = []
    for recipe in recipes():
        records.append({"recipe": recipe,
                        "expected": measure(build(recipe))})
    (HERE / DIGESTS_FILE).write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {DIGESTS_FILE} ({len(records)} builds)")


if __name__ == "__main__":
    main()

"""Golden-artifact format pin: committed bytes must keep loading.

``tests/data/golden_grid25_k2*.cra`` are committed ``RCRA`` files plus
a JSON of the results they must serve.  If an incompatible format
change lands, these tests fail and force the honest fix — bump
``FORMAT_VERSION`` (so old files are *rejected with a clear error*
rather than silently misread) and regenerate the fixtures with
``tests/data/regen_golden.py``.  Four pins:

* **byte-level load**: the committed bytes parse, carry the current
  format version, and hash to the recorded sha256;
* **serve-level**: routes and estimates off the loaded artifact equal
  the committed results bit for bit;
* **writer stability**: re-saving the loaded artifact reproduces the
  committed bytes exactly (load → save is the identity on disk);
* **builder stability**: a *fresh build* of the recorded recipe writes
  the committed bytes, all three files — the construction and the
  compilers are pinned, not just the reader.
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.core.compiled import (
    FORMAT_VERSION,
    MAGIC,
    CompiledEstimation,
    CompiledScheme,
    load_artifact,
)
from repro.core.dense import DenseRoutingPlane
from repro.exceptions import ArtifactError
from repro.pipeline import SchemePipeline

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture(scope="module")
def expected():
    return json.loads((DATA / "golden_grid25_k2.expected.json")
                      .read_text())


@pytest.fixture(scope="module")
def scheme_bytes(expected):
    return (DATA / expected["scheme_file"]).read_bytes()


@pytest.fixture(scope="module")
def estimation_bytes(expected):
    return (DATA / expected["estimation_file"]).read_bytes()


@pytest.fixture(scope="module")
def dense_bytes(expected):
    return (DATA / expected["dense_file"]).read_bytes()


class TestByteLevelPin:

    def test_fixture_is_current_format(self, expected, scheme_bytes):
        assert expected["format_version"] == FORMAT_VERSION, \
            "fixture was generated for another format version; " \
            "regenerate with tests/data/regen_golden.py"
        assert scheme_bytes.startswith(MAGIC)
        (version,) = struct.unpack_from("<I", scheme_bytes, len(MAGIC))
        assert version == FORMAT_VERSION

    def test_dense_fixture_is_current_format(self, dense_bytes):
        assert dense_bytes.startswith(MAGIC)
        (version,) = struct.unpack_from("<I", dense_bytes, len(MAGIC))
        assert version == FORMAT_VERSION

    @pytest.mark.parametrize("fixture", ["scheme_file", "dense_file",
                                         "estimation_file"])
    def test_version_1_file_rejected(self, expected, fixture, tmp_path):
        """Version 2 dropped 19 of the dense payload's 30 columns; a
        file stamped with the old version is refused by name rather
        than misread, whichever kind it holds."""
        blob = bytearray((DATA / expected[fixture]).read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), 1)
        old = tmp_path / "v1.cra"
        old.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError,
                           match="unsupported artifact format version 1 "
                                 f"\\(this build reads version "
                                 f"{FORMAT_VERSION}\\)"):
            load_artifact(old)

    def test_sha256_matches_committed_record(self, expected,
                                             scheme_bytes,
                                             estimation_bytes,
                                             dense_bytes):
        assert hashlib.sha256(scheme_bytes).hexdigest() == \
            expected["scheme_sha256"]
        assert hashlib.sha256(estimation_bytes).hexdigest() == \
            expected["estimation_sha256"]
        assert hashlib.sha256(dense_bytes).hexdigest() == \
            expected["dense_sha256"]

    def test_load_save_is_identity(self, expected, scheme_bytes,
                                   estimation_bytes, dense_bytes,
                                   tmp_path):
        for name, blob, cls in [
                (expected["scheme_file"], scheme_bytes,
                 CompiledScheme),
                (expected["estimation_file"], estimation_bytes,
                 CompiledEstimation),
                (expected["dense_file"], dense_bytes,
                 DenseRoutingPlane)]:
            loaded = cls.load(DATA / name)
            out = tmp_path / name
            loaded.save(out)
            assert out.read_bytes() == blob, \
                f"{name}: save(load(x)) != x — the writer changed; " \
                "bump FORMAT_VERSION and regenerate the fixtures"


class TestFreshBuildPin:

    def test_fresh_build_reproduces_committed_bytes(
            self, expected, scheme_bytes, dense_bytes, estimation_bytes,
            tmp_path):
        recipe = expected["recipe"]
        pipeline = (SchemePipeline()
                    .workload(recipe["workload"], recipe["n"])
                    .params(recipe["k"]).seed(recipe["seed"]))
        for artifact, blob in [
                (pipeline.compile("flat"), scheme_bytes),
                (pipeline.compile("dense"), dense_bytes),
                (pipeline.compile_estimation(), estimation_bytes)]:
            out = tmp_path / "fresh.cra"
            artifact.save(out)
            assert out.read_bytes() == blob, \
                f"a fresh {artifact.kind} build no longer writes the " \
                "committed bytes"


class TestServeLevelPin:

    def test_meta_pinned(self, expected):
        scheme = load_artifact(DATA / expected["scheme_file"])
        assert isinstance(scheme, CompiledScheme)
        assert scheme.meta == expected["scheme_meta"]

    def test_routes_pinned(self, expected):
        scheme = CompiledScheme.load(DATA / expected["scheme_file"])
        pairs = [tuple(p) for p in expected["pairs"]]
        for served, want in zip(scheme.route_many(pairs),
                                expected["routes"]):
            assert served.source == want["source"]
            assert served.target == want["target"]
            assert served.path == want["path"]
            assert served.weight == want["weight"]
            assert served.tree_center == want["tree_center"]
            assert served.found_level == want["found_level"]

    def test_dense_routes_pinned(self, expected):
        """The dense plane serves the *same* pinned routes off its own
        committed bytes — compilation from the flat tier is lossless."""
        dense = load_artifact(DATA / expected["dense_file"])
        assert isinstance(dense, DenseRoutingPlane)
        pairs = [tuple(p) for p in expected["pairs"]]
        for served, want in zip(dense.route_many(pairs),
                                expected["routes"]):
            assert served.source == want["source"]
            assert served.target == want["target"]
            assert served.path == want["path"]
            assert served.weight == want["weight"]
            assert served.tree_center == want["tree_center"]
            assert served.found_level == want["found_level"]

    def test_dense_recompile_matches_fixture(self, expected,
                                             dense_bytes, tmp_path):
        """``from_compiled`` on the committed flat fixture reproduces
        the committed dense bytes — the compiler is deterministic."""
        scheme = CompiledScheme.load(DATA / expected["scheme_file"])
        out = tmp_path / expected["dense_file"]
        DenseRoutingPlane.from_compiled(scheme).save(out)
        assert out.read_bytes() == dense_bytes, \
            "dense compilation of the committed flat artifact drifted; " \
            "bump FORMAT_VERSION and regenerate the fixtures"

    def test_estimates_pinned(self, expected):
        est = CompiledEstimation.load(
            DATA / expected["estimation_file"])
        pairs = [tuple(p) for p in expected["pairs"]]
        assert est.estimate_many(pairs) == expected["estimates"]

    def test_export_attach_round_trip_on_fixture(self, expected):
        """The shared-memory transport speaks the same bytes: export
        the loaded fixture, attach the payload, serve identically."""
        from repro.core.compiled import attach_artifact
        scheme = CompiledScheme.load(DATA / expected["scheme_file"])
        buffers = scheme.export_buffers()
        attached = attach_artifact(buffers.header(), buffers.payload)
        pairs = [tuple(p) for p in expected["pairs"]]
        assert attached.route_many(pairs) == scheme.route_many(pairs)

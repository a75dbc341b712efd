"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import WORKLOADS, build_parser, main

DATA = Path(__file__).parent / "data"

#: ``repro route`` stdout, byte for byte, pinned from the per-vertex
#: router it was served by before the dense plane.
ROUTE_STDOUT = {
    "grid": (["--graph", "grid", "--n", "36", "--k", "2",
              "--source", "3", "--target", "30"],
             "workload=grid n=36\n"
             "route 3 -> 30\n"
             "  path    : 3 -> 9 -> 15 -> 14 -> 13 -> 19 -> 25 -> 24 -> 30\n"
             "  weight  : 220 (shortest 204)\n"
             "  stretch : 1.078 (bound 3 + o(1))\n"
             "  tree    : center 25, found at level 1\n"),
    "random": (["--graph", "random", "--n", "60", "--k", "3",
                "--source", "0", "--target", "59"],
               "workload=random n=60\n"
               "route 0 -> 59\n"
               "  path    : 0 -> 51 -> 47 -> 15 -> 41 -> 13 -> 20 -> 59\n"
               "  weight  : 130 (shortest 107)\n"
               "  stretch : 1.215 (bound 7 + o(1))\n"
               "  tree    : center 40, found at level 2\n"),
    "self": (["--graph", "grid", "--n", "36", "--k", "2",
              "--source", "5", "--target", "5"],
             "workload=grid n=36\n"
             "route 5 -> 5\n"
             "  path    : 5\n"
             "  weight  : 0 (shortest 0)\n"
             "  stretch : 1.000 (bound 3 + o(1))\n"
             "  tree    : center None, found at level -1\n"),
}


def _fails(argv, capsys, match):
    """Typed user errors are one ``repro: error:`` line on stderr and
    exit status 2, never a traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and match in err, err
    assert "Traceback" not in err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["build"])
        assert args.graph == "random"
        assert args.n == 64
        assert args.k == 3

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "scheme.cra"])
        assert args.artifact == ["scheme.cra"]
        assert args.port == 8642
        assert args.workers == 0
        assert args.max_batch == 128
        assert args.max_wait_ms == 2.0
        assert args.max_pending == 1024

    def test_bench_traffic_defaults(self):
        args = build_parser().parse_args(["bench-traffic", "s.cra"])
        assert args.clients == 32
        assert args.requests == 50
        assert args.max_batch == 128

    def test_all_workloads_buildable(self):
        for name, factory in WORKLOADS.items():
            g = factory(40, 1)
            assert g.is_connected(), name


class TestCommands:
    def test_build(self, capsys):
        assert main(["build", "--n", "30", "--k", "2",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "rounds measured" in out
        assert "table words" in out

    def test_build_with_phases_and_eval(self, capsys):
        assert main(["build", "--n", "25", "--k", "2", "--phases",
                     "--evaluate", "40"]) == 0
        out = capsys.readouterr().out
        assert "per-phase round breakdown" in out
        assert "stretch over 40 pairs" in out

    def test_route(self, capsys):
        assert main(["route", "--n", "30", "--k", "2",
                     "--source", "0", "--target", "7"]) == 0
        out = capsys.readouterr().out
        assert "route 0 -> 7" in out
        assert "stretch" in out

    @pytest.mark.parametrize("name", sorted(ROUTE_STDOUT))
    def test_route_stdout_pinned(self, name, capsys):
        argv, expected = ROUTE_STDOUT[name]
        assert main(["route"] + argv) == 0
        assert capsys.readouterr().out == expected

    def test_random_workload_small_n(self, capsys):
        """``--n`` below 6 must not turn into an edge probability > 1."""
        assert main(["build", "--graph", "random", "--n", "3",
                     "--k", "2"]) == 0
        assert "n=3" in capsys.readouterr().out

    def test_single_vertex_evaluate(self, capsys):
        """One vertex has no pair to evaluate: an empty report."""
        assert main(["build", "--graph", "random", "--n", "1", "--k", "2",
                     "--evaluate", "5"]) == 0
        assert "stretch over 0 pairs" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "30", "--k", "2",
                     "--pairs", "50"]) == 0
        out = capsys.readouterr().out
        assert "this paper" in out
        assert "TZ01" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "--n", "30", "--k", "2",
                     "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "sketches built" in out
        assert "dist(" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "1000000", "--d", "1000",
                     "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out
        assert "this paper" in out

    def test_grid_workload(self, capsys):
        assert main(["build", "--graph", "grid", "--n", "25",
                     "--k", "2"]) == 0
        assert "rounds measured" in capsys.readouterr().out

    def test_build_echoes_actual_n(self, capsys):
        assert main(["build", "--graph", "grid", "--n", "50",
                     "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=49" in out
        assert "requested n=50" in out


class TestQueryServing:
    """The serve half on its own: pool workers and batch-file mode."""

    @pytest.fixture(scope="class")
    def artifact_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "scheme.cra"
        from repro.pipeline import SchemePipeline
        (SchemePipeline().workload("grid", 25).params(2).seed(3)
         .compile().save(path))
        return str(path)

    def test_query_in_process(self, artifact_path, capsys):
        assert main(["query", artifact_path,
                     "--pair", "0", "7", "--pair", "3", "12"]) == 0
        out = capsys.readouterr().out
        assert "route" in out
        assert "via in-process" in out

    def test_query_pool_matches_in_process(self, artifact_path,
                                           capsys):
        pairs = ["--pair", "0", "7", "--pair", "3", "12",
                 "--pair", "24", "0", "--pair", "5", "5"]
        assert main(["query", artifact_path] + pairs) == 0
        single = capsys.readouterr().out
        assert main(["query", artifact_path, "--workers", "2"]
                    + pairs) == 0
        pooled = capsys.readouterr().out
        route_lines = [l for l in single.splitlines() if "route" in l]
        assert route_lines == \
            [l for l in pooled.splitlines() if "route" in l]
        assert "pool of 2 workers" in pooled

    def test_query_batch_file_mode(self, artifact_path, tmp_path,
                                   capsys):
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("0 7\n3 12  # comment\n\n24 0\n")
        out_file = tmp_path / "routes.tsv"
        assert main(["query", artifact_path,
                     "--pairs-file", str(pairs_file),
                     "--workers", "2",
                     "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert f"wrote 3 results to {out_file}" in printed
        assert "route " not in printed  # no per-query chatter
        rows = [line.split("\t")
                for line in out_file.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 3
        assert [r[:2] for r in rows] == \
            [["0", "7"], ["3", "12"], ["24", "0"]]
        # weight/hops/path columns round-trip as numbers
        for row in rows:
            float(row[2]), int(row[3])
            assert row[4].split("-")[0] == row[0]
            assert row[4].split("-")[-1] == row[1]


class TestTraffic:
    """The streaming front-end's CLI surface (the server loop itself
    is covered end-to-end in tests/server)."""

    @pytest.fixture(scope="class")
    def artifact_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-traffic") / "scheme.cra"
        from repro.pipeline import SchemePipeline
        (SchemePipeline().workload("grid", 25).params(2).seed(3)
         .compile().save(path))
        return str(path)

    def test_bench_traffic_smoke(self, artifact_path, tmp_path,
                                 capsys):
        out_file = tmp_path / "traffic.json"
        assert main(["bench-traffic", artifact_path,
                     "--clients", "4", "--requests", "5",
                     "--rps", "300", "--max-wait-ms", "0",
                     "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "coalescing speedup" in printed
        import json
        record = json.loads(out_file.read_text())
        assert {"closed_baseline", "closed_coalescing",
                "open_poisson", "coalescing_speedup"} <= set(record)
        assert record["closed_coalescing"]["requests"] == 20

    def test_serve_rejects_duplicate_kinds(self, artifact_path, capsys):
        _fails(["serve", artifact_path, artifact_path], capsys,
               "two routing")


class TestBuildServeSplit:
    """build --out writes an artifact; query serves it back without
    reconstruction (the lifecycle the PR introduces)."""

    def test_build_out_then_query_pairs_file(self, capsys, tmp_path):
        artifact = tmp_path / "scheme.cra"
        assert main(["build", "--n", "30", "--k", "2", "--seed", "3",
                     "--out", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "compiled artifact" in out
        assert artifact.exists()

        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 7\n3 12  # a comment\n\n5 5\n")
        assert main(["query", str(artifact),
                     "--pairs-file", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert "kind=dense-routing" in out
        assert "route    0 -> 7" in out
        assert "served 3 queries" in out

    def test_query_pair_flags(self, capsys, tmp_path):
        artifact = tmp_path / "scheme.cra"
        assert main(["build", "--n", "30", "--k", "2", "--seed", "3",
                     "--out", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["query", str(artifact), "--pair", "0", "7",
                     "--pair", "9", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 2 queries" in out

    def test_query_matches_freshly_built_scheme(self, capsys,
                                                tmp_path):
        """A fresh process pays no construction and routes the same
        path ``repro route`` prints from the same build."""
        artifact = tmp_path / "scheme.cra"
        assert main(["build", "--n", "30", "--k", "2", "--seed", "3",
                     "--out", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["route", "--n", "30", "--k", "2", "--seed", "3",
                     "--source", "0", "--target", "7"]) == 0
        live_out = capsys.readouterr().out
        live_path = [line for line in live_out.splitlines()
                     if "path" in line][0].split(":", 1)[1].strip()
        assert main(["query", str(artifact), "--pair", "0", "7"]) == 0
        query_out = capsys.readouterr().out
        assert live_path.split(" -> ")[1] in query_out

    def test_estimate_out_then_query(self, capsys, tmp_path):
        artifact = tmp_path / "est.cra"
        assert main(["estimate", "--n", "30", "--k", "2", "--seed",
                     "3", "--out", str(artifact)]) == 0
        capsys.readouterr()
        assert main(["query", str(artifact), "--pair", "0", "7"]) == 0
        out = capsys.readouterr().out
        assert "kind=estimation" in out
        assert "dist(0,7)" in out

    def test_query_rejects_garbage_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.cra"
        bogus.write_bytes(b"not an artifact")
        _fails(["query", str(bogus), "--pair", "0", "1"], capsys,
                    "magic")

    def test_query_rejects_missing_file(self, tmp_path, capsys):
        _fails(["query", str(tmp_path / "missing.cra"),
                     "--pair", "0", "1"], capsys, "missing.cra")

    def test_query_rejects_out_of_range_pair(self, tmp_path, capsys):
        artifact = tmp_path / "scheme.cra"
        assert main(["build", "--graph", "grid", "--n", "25", "--k", "2",
                     "--out", str(artifact)]) == 0
        capsys.readouterr()
        _fails(["query", str(artifact), "--pair", "0", "99"],
                    capsys, "out of range")

    def test_build_out_writes_the_golden_dense_plane(self, tmp_path,
                                                     capsys):
        """``--out`` writes the dense plane: the golden recipe's bytes
        are the committed dense fixture's."""
        artifact = tmp_path / "scheme.cra"
        assert main(["build", "--graph", "grid", "--n", "25", "--k", "2",
                     "--seed", "3", "--out", str(artifact)]) == 0
        assert "kind=dense-routing" in capsys.readouterr().out
        assert artifact.read_bytes() == \
            (DATA / "golden_grid25_k2_dense.cra").read_bytes()

    @pytest.mark.parametrize("command", ["query", "bench-traffic"])
    def test_flat_artifact_is_refused(self, command, capsys):
        """The flat CompiledScheme is the oracle, not a served
        artifact; the message says how to write the dense plane."""
        _fails([command, str(DATA / "golden_grid25_k2.cra")], capsys,
               "repro build --out")

    def test_serve_refuses_flat_artifact(self, capsys):
        _fails(["serve", str(DATA / "golden_grid25_k2.cra"),
                "--port", "0"], capsys, "repro build --out")

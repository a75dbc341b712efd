"""Serve-side cold start: a serving process imports the artifact, the
registry, the broker and the server — never the construction.

Each check runs in a fresh interpreter, so nothing this test session
imported counts, and pins the ``repro.*`` entries of ``sys.modules``
to an allowlist.  The construction keeps importing its own stack at
module level; only the serving entry points are held here.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.compiled import load_artifact
from repro.dynamic import ArtifactRegistry

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "tests" / "data" / "golden_grid25_k2_dense.cra"

#: Everything a router needs: the artifact (``core.compiled``,
#: ``core.dense``), the registry, the broker and server, telemetry.
SERVE_MODULES = frozenset({
    "repro", "repro.exceptions", "repro.dataclass",
    "repro.core", "repro.core.compiled", "repro.core.dense",
    "repro.dynamic", "repro.dynamic.registry",
})
SERVE_PACKAGES = ("repro.server", "repro.telemetry")


def _outside(modules, packages=SERVE_PACKAGES):
    """The modules that fall outside the serve allowlist."""
    return sorted(name for name in modules
                  if name not in SERVE_MODULES
                  and ".".join(name.split(".")[:2]) not in packages)


def _fresh_modules(body: str, *args: str):
    """Run ``body`` in a fresh interpreter; the ``repro.*`` modules it
    left in ``sys.modules``."""
    script = textwrap.dedent(body) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(name for name in sys.modules
                              if name.split(".")[0] == "repro")))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script, *args],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_serving_one_route_imports_only_the_serve_set(tmp_path):
    """Load through the registry, start broker and server on port 0,
    answer one route over TCP: the e2e server child's whole path."""
    record = ArtifactRegistry(tmp_path).publish(load_artifact(GOLDEN))
    modules = _fresh_modules("""
        import asyncio, sys
        from repro.dynamic import ArtifactRegistry
        from repro.server import RequestBroker, TrafficClient, TrafficServer

        async def main(root, generation):
            artifact = ArtifactRegistry(root).load(generation)
            async with TrafficServer(RequestBroker(router=artifact),
                                     port=0) as server:
                async with await TrafficClient.connect(
                        port=server.port) as client:
                    route = await client.route(0, 24)
            assert route.path[0] == 0 and route.path[-1] == 24, route

        asyncio.run(main(sys.argv[1], int(sys.argv[2])))
    """, str(tmp_path), str(record.generation))
    assert "repro.server.tcp" in modules
    assert _outside(modules) == []


def test_spawn_worker_imports_only_the_serve_set():
    """``import repro.serving`` is what a spawn-mode pool worker runs
    before it attaches its shard."""
    modules = _fresh_modules("import repro.serving")
    assert _outside(modules, SERVE_PACKAGES + ("repro.serving",)) == []


#: What ``repro serve`` adds to the serve set: the CLI, and the graph
#: package's generators, which name the ``--graph`` workloads.
CLI_MODULES = frozenset({
    "repro.cli", "repro.graphs", "repro.graphs.generators",
    "repro.graphs.weighted_graph",
})


def test_cli_serve_parses_without_the_construction():
    """``repro serve`` reaches its handler on the serve set plus the
    CLI and the workload generators."""
    modules = _fresh_modules("""
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "a.cra", "--port", "0", "--workers", "2"])
        assert args.func.__name__ == "cmd_serve"
    """)
    assert set(_outside(modules)) <= CLI_MODULES, _outside(modules)


@pytest.mark.parametrize("package", ["repro", "repro.core",
                                     "repro.dynamic", "repro.graphs"])
def test_every_public_name_resolves(package):
    """The lazy re-exports still hand out every name in ``__all__``,
    by attribute and by ``from package import name``."""
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        namespace = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is value, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")

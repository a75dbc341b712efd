"""Shared fixtures for the paper-figure benchmarks.

Every bench builds with the library's one configuration — Theorem-1
detection with rounded estimates over the fixed link bandwidth — so
what a bench prints is what ``SchemePipeline``, the CLI and the served
artifacts produce on the same graph, ``k`` and seed.
"""

import pytest

from repro.graphs import (
    random_connected,
    random_geometric,
    ring_of_cliques,
)


@pytest.fixture(scope="session")
def small_workload():
    """Sparse random graph, the default Table-1 workload."""
    return random_connected(72, 0.07, seed=1001)


@pytest.fixture(scope="session")
def mesh_workload():
    """Geometric mesh: the large-D regime (D ~ sqrt(n))."""
    return random_geometric(64, seed=1002)


@pytest.fixture(scope="session")
def congested_workload():
    """Ring of cliques: small D, heavy congestion."""
    return ring_of_cliques(6, 8, seed=1003)


@pytest.fixture(scope="session")
def scaling_ns():
    """Instance sizes for exponent-fitting benches."""
    return [48, 96, 144]


@pytest.fixture(scope="session")
def scaling_graphs(scaling_ns):
    """One sparse graph per size, comparable average degree."""
    return {n: random_connected(n, 6.0 / n, seed=2000 + n)
            for n in scaling_ns}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "artifact(id): which paper figure (E1-E9) this "
        "benchmark regenerates")

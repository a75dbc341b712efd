"""Shared fixtures for the test suite."""

import random

import pytest

from repro.graphs import (
    WeightedGraph,
    grid,
    random_connected,
    random_geometric,
    ring_of_cliques,
)


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def triangle():
    """A weighted triangle: classic smallest nontrivial routing instance."""
    g = WeightedGraph(3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 2)
    g.add_edge(0, 2, 4)
    return g


@pytest.fixture
def small_grid():
    return grid(4, 4, seed=1)


@pytest.fixture
def medium_random():
    return random_connected(40, 0.1, seed=2)


@pytest.fixture
def medium_geometric():
    return random_geometric(50, seed=3)


@pytest.fixture
def congested_ring():
    return ring_of_cliques(5, 6, seed=4)


@pytest.fixture(params=["grid", "random", "geometric", "cliques"])
def any_graph(request, small_grid, medium_random, medium_geometric,
              congested_ring):
    """Parametrized over the main workload families."""
    return {
        "grid": small_grid,
        "random": medium_random,
        "geometric": medium_geometric,
        "cliques": congested_ring,
    }[request.param]


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.name`` so it still
    runs, and returns a list that grows by one entry per call."""
    def install(module, name):
        calls = []
        plain = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(None)
            return plain(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install

"""repro — Distributed construction of near-optimal compact routing schemes.

A faithful reproduction of Elkin & Neiman, *"On Efficient Distributed
Construction of Near Optimal Routing Schemes"* (PODC 2016,
arXiv:1602.02293), built on a CONGEST-model simulator.

Quickstart
----------
>>> from repro import build_routing_scheme, random_geometric
>>> graph = random_geometric(100, seed=7)
>>> scheme = build_routing_scheme(graph, k=3, seed=7)
>>> route = scheme.route(0, 42)
>>> route.stretch <= 4 * 3 - 5 + 1.0
True

What is served is the dense routing plane compiled from the same build:

>>> from repro import SchemePipeline
>>> dense = SchemePipeline().graph(graph).params(3).seed(7).compile()
>>> dense.route(0, 42).path == route.path
True
"""

__version__ = "1.0.0"

from .exceptions import (
    ArtifactError,
    CapacityError,
    DisconnectedGraphError,
    GraphError,
    HopsetError,
    InvalidWeightError,
    ParameterError,
    ProtocolError,
    ReproError,
    RoutingLoopError,
    SchemeError,
    ServingError,
    SimulationError,
)
from .graphs import (
    WeightedGraph,
    grid,
    random_connected,
    random_geometric,
    random_tree,
    ring_of_cliques,
    star_of_paths,
    weighted_small_world,
)

__all__ = [
    "__version__",
    # exceptions
    "ArtifactError",
    "CapacityError",
    "DisconnectedGraphError",
    "GraphError",
    "HopsetError",
    "InvalidWeightError",
    "ParameterError",
    "ProtocolError",
    "ReproError",
    "RoutingLoopError",
    "SchemeError",
    "ServingError",
    "SimulationError",
    # graphs
    "WeightedGraph",
    "grid",
    "random_connected",
    "random_geometric",
    "random_tree",
    "ring_of_cliques",
    "star_of_paths",
    "weighted_small_world",
    # populated lazily below
    "build_routing_scheme",
    "RoutingScheme",
    "SchemePipeline",
    "BuildReport",
    "DenseRoutingPlane",
    "CompiledScheme",
    "CompiledEstimation",
    "load_artifact",
    "RouterPool",
    "RequestBroker",
    "TrafficServer",
    "TrafficClient",
]


def __getattr__(name):
    """Lazy re-exports of the heavyweight public API.

    Keeps ``import repro`` cheap while still offering
    ``repro.build_routing_scheme`` etc. at the top level.
    """
    if name in ("build_routing_scheme", "RoutingScheme",
                "DenseRoutingPlane"):
        from . import core as _core
        return getattr(_core, name)
    if name in ("SchemePipeline", "BuildReport"):
        from . import pipeline as _pl
        return getattr(_pl, name)
    if name in ("CompiledScheme", "CompiledEstimation", "load_artifact"):
        from .core import compiled as _cp
        return getattr(_cp, name)
    if name == "RouterPool":
        from .serving import RouterPool
        return RouterPool
    if name in ("RequestBroker", "TrafficServer", "TrafficClient"):
        from . import server as _srv
        return getattr(_srv, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

"""repro — Distributed construction of near-optimal compact routing schemes.

A faithful reproduction of Elkin & Neiman, *"On Efficient Distributed
Construction of Near Optimal Routing Schemes"* (PODC 2016,
arXiv:1602.02293), built on a CONGEST-model simulator.

Quickstart
----------
>>> from repro import build_routing_scheme, random_geometric
>>> from repro.graphs import dijkstra_distances
>>> graph = random_geometric(100, seed=7)
>>> scheme = build_routing_scheme(graph, k=3, seed=7)
>>> route = scheme.route_many([(0, 42)])[0]
>>> route.weight / dijkstra_distances(graph, 0)[42] <= 4 * 3 - 5 + 1.0
True

What is served is the dense routing plane compiled from the same build:

>>> from repro import SchemePipeline
>>> dense = SchemePipeline().graph(graph).params(3).seed(7).compile()
>>> dense.route(0, 42).path == route.path
True
"""

__version__ = "1.0.0"

import sys
from importlib import import_module

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
    # graphs, populated lazily below
    "WeightedGraph",
    "grid",
    "random_connected",
    "random_geometric",
    "random_tree",
    "ring_of_cliques",
    "star_of_paths",
    "weighted_small_world",
    # the construction, artifacts and serving, also lazy
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


#: Lazily re-exported name -> the module defining it (PEP 562): keeps
#: ``import repro`` cheap, and a serving process that imports
#: ``repro.core.compiled`` or ``repro.server`` never loads the graph
#: generators or the construction.
_LAZY = {
    **dict.fromkeys(("WeightedGraph", "grid", "random_connected",
                     "random_geometric", "random_tree", "ring_of_cliques",
                     "star_of_paths", "weighted_small_world"), "graphs"),
    **dict.fromkeys(("build_routing_scheme", "RoutingScheme",
                     "DenseRoutingPlane"), "core"),
    **dict.fromkeys(("SchemePipeline", "BuildReport"), "pipeline"),
    **dict.fromkeys(("CompiledScheme", "CompiledEstimation",
                     "load_artifact"), "core.compiled"),
    "RouterPool": "serving",
    **dict.fromkeys(("RequestBroker", "TrafficServer", "TrafficClient"),
                    "server"),
}


def _lazy(package, exports):
    """A PEP 562 module ``__getattr__`` for ``package`` that imports
    the submodule ``exports`` names for an attribute on first access
    and caches the value on the package."""
    def __getattr__(name):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f".{module}", package), name)
        setattr(sys.modules[package], name, value)
        return value
    return __getattr__


__getattr__ = _lazy(__name__, _LAZY)

"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch one base class at an API boundary while tests can assert on the
specific subclass.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or graph operations."""


class DisconnectedGraphError(GraphError):
    """Raised when an algorithm requires a connected graph but got one
    with more than one component."""


class InvalidWeightError(GraphError):
    """Raised when an edge weight is outside ``{1, ..., poly(n)}``.

    The paper (Section 2) assumes integer polynomial weights so that a
    weight fits in a single ``O(log n)``-bit message word.
    """


class SimulationError(ReproError):
    """Raised when the CONGEST simulator is driven incorrectly
    (e.g. a node program emits a message to a non-neighbor)."""


class CapacityError(SimulationError):
    """Raised when a single message exceeds the per-round link capacity."""


class SchemeError(ReproError):
    """Raised for routing-scheme construction or protocol violations."""


class RoutingLoopError(SchemeError):
    """Raised when the routing protocol fails to make progress
    (exceeds the hop budget for a single packet)."""


class HopBudgetError(SchemeError):
    """Raised when a *caller-supplied* ``max_hops`` budget runs out
    before the packet reaches its target.

    Distinct from the plain :class:`SchemeError` the serve paths raise
    when the default budget (``4n + 4``, which no correct artifact can
    exceed) runs out: that one means the artifact is broken, this one
    means the caller's budget was simply too small — retry with a
    larger ``max_hops``."""


class ArtifactError(SchemeError):
    """Raised when a compiled-scheme artifact is malformed: bad magic,
    unsupported format version, truncated payload, or the wrong kind
    (routing vs estimation) for the requested loader."""


class ServingError(ReproError):
    """Raised when the sharded serving pool is driven incorrectly or
    loses a worker: serving on a closed pool, or a worker that dies or
    fails to attach the shared artifact."""


class ProtocolError(ServingError):
    """Raised for malformed traffic-server frames: bad or oversized
    length prefixes, non-UTF8 payloads, unknown ops, odd pair arity,
    or batches beyond the per-request limit.  The server answers these
    with a typed ``ERR`` frame instead of dying."""


class HopsetError(ReproError):
    """Raised when a hopset fails validation or is used inconsistently."""


class ParameterError(ReproError):
    """Raised for invalid algorithm parameters (e.g. ``k < 1``)."""

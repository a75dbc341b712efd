"""Staged build → compile → serve facade for the whole construction.

The construction has two very different lifecycles: the *expensive,
distributed* build (Theorems 4/5/6/7) and the *cheap, local* serving of
queries.  :class:`SchemePipeline` separates them into explicit stages:

>>> from repro.pipeline import SchemePipeline
>>> built = (SchemePipeline()
...          .workload("grid", n=49)
...          .params(k=2)
...          .seed(7)
...          .build())              # -> BuildReport (measured rounds etc.)
>>> dense = built.pipeline.compile()      # -> DenseRoutingPlane artifact
>>> dense.save("scheme.cra")              # ship the tables, not the build
>>> with built.pipeline.serve(workers=4) as pool:   # scale out serving
...     routes = pool.route_many(pairs)   # == dense.route_many(pairs)

Stages may be chained in any order before ``build()``; ``params()`` is
the only mandatory one.  ``build()`` is cached — ``compile()`` and
``compile_estimation()`` trigger it on demand.

The named workloads (``WORKLOADS``, ``make_workload``) are re-exported
from :mod:`repro.graphs.generators`, wrapped in
:class:`WorkloadInstance` so every report carries the *actual* vertex
count — ``grid``, ``cliques`` and ``star`` round the requested ``n`` to
their natural shapes, and that rounding used to be silent.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from .core.approx_clusters import build_approx_clusters
from .core.compiled import CompiledEstimation, CompiledScheme
from .core.distance_estimation import (
    DistanceEstimation,
    estimation_from_clusters,
)
from .core.routing_scheme import RoutingScheme
from .core.scheme_builder import ConstructionReport, run_construction
from .dataclass import dataclass
from .exceptions import ParameterError
from .graphs.generators import (   # re-exported: the workload ladder
    WORKLOADS,
    WorkloadInstance,
    make_workload,
)
from .graphs.weighted_graph import WeightedGraph


@dataclass
class BuildReport:
    """Everything one pipeline build produced and measured.

    Wraps the :class:`ConstructionReport` (every measured quantity and
    paper bound) with the workload provenance — in particular the
    *actual* vertex count next to the requested one.
    """

    workload: str                 #: workload name or "custom"
    requested_n: Optional[int]    #: None when a graph was supplied
    construction: ConstructionReport
    pipeline: "SchemePipeline" = field(repr=False)

    # -- passthroughs --------------------------------------------------
    @property
    def scheme(self) -> RoutingScheme:
        return self.construction.scheme

    @property
    def estimation(self) -> DistanceEstimation:
        return self.construction.estimation

    @property
    def params(self):
        return self.construction.params

    @property
    def rounds(self) -> int:
        return self.construction.rounds

    @property
    def num_vertices(self) -> int:
        return self.scheme.graph.num_vertices

    def summary(self) -> str:
        head = f"workload={self.workload} n={self.num_vertices}"
        if (self.requested_n is not None
                and self.requested_n != self.num_vertices):
            head += f" (requested n={self.requested_n})"
        return head + "\n" + self.construction.summary()


class SchemePipeline:
    """Staged configuration for one build → compile lifecycle.

    Stages return ``self`` so they chain; ``build()`` freezes the
    configuration and runs the full distributed construction.
    """

    def __init__(self) -> None:
        self._workload: Optional[WorkloadInstance] = None
        self._graph: Optional[WeightedGraph] = None
        self._graph_name = "custom"
        self._k: Optional[int] = None
        self._eps = 0.0
        self._use_tz_trick = True
        self._seed = 0
        self._built: Optional[BuildReport] = None
        self._estimation: Optional[DistanceEstimation] = None
        self._compiled: Optional[CompiledScheme] = None
        self._compiled_dense: Optional["DenseRoutingPlane"] = None
        self._compiled_estimation: Optional[CompiledEstimation] = None

    # -- stages --------------------------------------------------------
    def workload(self, name: str, n: int) -> "SchemePipeline":
        """Generate a named workload of (approximately) ``n`` vertices.

        The graph is materialized at ``build()`` time with the
        pipeline's seed, mirroring the CLI's historical behaviour of
        one seed driving both the workload and the construction.
        """
        if name not in WORKLOADS:
            raise ParameterError(
                f"unknown workload {name!r}; choose from "
                f"{sorted(WORKLOADS)}")
        self._graph = None
        self._graph_name = name
        self._requested_n = n
        self._invalidate()
        return self

    def graph(self, graph: WeightedGraph,
              name: str = "custom") -> "SchemePipeline":
        """Use an explicit graph instead of a named workload."""
        self._graph = graph
        self._graph_name = name
        self._invalidate()
        return self

    def params(self, k: int, eps: float = 0.0,
               use_tz_trick: bool = True) -> "SchemePipeline":
        """Scheme parameters (``eps=0`` means the paper's ``1/48k^4``).

        These are the only settings of the construction: the algorithm
        (rounded Theorem-1 detection, fixed link bandwidth) is one, so
        a pipeline, the CLI and the incremental builder given the same
        graph, ``k`` and seed build the same bytes.
        """
        self._k = k
        self._eps = eps
        self._use_tz_trick = use_tz_trick
        self._invalidate()
        return self

    def seed(self, seed: int) -> "SchemePipeline":
        """Seed for workload generation and every sampling step."""
        self._seed = seed
        self._invalidate()
        return self

    def _invalidate(self) -> None:
        self._workload = None
        self._built = None
        self._estimation = None
        self._compiled = None
        self._compiled_dense = None
        self._compiled_estimation = None

    # -- execution -----------------------------------------------------
    def _resolve_graph(self) -> WeightedGraph:
        if self._graph is not None:
            return self._graph
        if self._graph_name == "custom":
            raise ParameterError(
                "pipeline has no input: call .workload(name, n) or "
                ".graph(g) before .build()")
        self._workload = make_workload(self._graph_name,
                                       self._requested_n, self._seed)
        return self._workload.graph

    def build(self) -> BuildReport:
        """Run the full distributed construction and measure it."""
        if self._built is not None:
            return self._built
        if self._k is None:
            raise ParameterError(
                "pipeline has no parameters: call .params(k, ...) "
                "before .build()")
        graph = self._resolve_graph()
        construction = run_construction(
            graph, k=self._k, seed=self._seed, eps_override=self._eps,
            use_tz_trick=self._use_tz_trick)
        requested = (self._workload.requested_n
                     if self._workload is not None else None)
        self._built = BuildReport(workload=self._graph_name,
                                  requested_n=requested,
                                  construction=construction,
                                  pipeline=self)
        return self._built

    def compile(self, artifact: str = "dense"):
        """Build (if needed) and compile the served artifact, the
        :class:`~repro.core.DenseRoutingPlane`.

        ``compile("flat")`` returns the oracle instead: the
        :class:`~repro.core.CompiledScheme` the plane is compiled from,
        whose Section-6 replay the dense plane is held to.  Both are
        cached.
        """
        if artifact == "dense":
            if self._compiled_dense is None:
                from .core import DenseRoutingPlane

                self._compiled_dense = DenseRoutingPlane.from_compiled(
                    self.compile("flat"))
            return self._compiled_dense
        if artifact == "flat":
            if self._compiled is None:
                self._compiled = self.build().scheme.compile()
            return self._compiled
        raise ParameterError(
            f"unknown artifact {artifact!r}; compile() returns the "
            "dense plane, compile('flat') the oracle")

    def compile_estimation(self) -> CompiledEstimation:
        """Build the sketches (if needed) and flatten them.

        Goes through :meth:`build_estimation`, so an estimation-only
        pipeline never pays for the tree-routing forest.
        """
        if self._compiled_estimation is None:
            self._compiled_estimation = self.build_estimation().compile()
        return self._compiled_estimation

    def serve(self, workers: Optional[int] = None,
              kind: str = "routing") -> "RouterPool":
        """Compile (building if needed) and open a sharded serving pool.

        The final stage of the lifecycle: ``build() → compile() →
        serve(workers=N)``.  Returns a
        :class:`~repro.serving.RouterPool` — a context manager whose
        ``route_many``/``estimate_many`` are bit-identical to the
        compiled artifact's own batch methods, served from ``workers``
        processes sharing one copy of the tables.  ``kind`` selects the
        artifact: ``"routing"`` (default, the dense plane) or
        ``"estimation"``.
        """
        from .serving import RouterPool

        if kind == "routing":
            artifact = self.compile()
        elif kind == "estimation":
            artifact = self.compile_estimation()
        else:
            raise ParameterError(
                f"unknown serve kind {kind!r}; choose 'routing' or "
                "'estimation'")
        return RouterPool(artifact, workers=workers)

    def serve_async(self, workers: int = 0, kind: str = "routing",
                    max_batch: int = 128, max_wait_ms: float = 2.0,
                    max_pending: int = 1024,
                    registry=None) -> "RequestBroker":
        """Compile (building if needed) and front it with the async
        request broker — the streaming counterpart of :meth:`serve`.

        Many concurrent asyncio clients submit single pairs or small
        batches; the broker coalesces everything arriving within a
        micro-batch window (``max_batch`` pairs / ``max_wait_ms``) into
        one fused batch call, so stream traffic approaches the
        pre-assembled-batch serving rate.  ``kind`` is ``"routing"``,
        ``"estimation"`` or ``"both"``; ``workers=0`` serves in-process,
        ``workers=N`` opens a :class:`~repro.serving.RouterPool` per
        artifact which the broker owns and closes on ``aclose()``.

        >>> broker = pipeline.serve_async(max_wait_ms=1.0)
        >>> async with broker:
        ...     route = await broker.route(3, 57)
        """
        from .server import pooled_broker

        if kind not in ("routing", "estimation", "both"):
            raise ParameterError(
                f"unknown serve kind {kind!r}; choose 'routing', "
                "'estimation' or 'both'")
        router = estimator = None
        if kind in ("routing", "both"):
            router = self.compile()
        if kind in ("estimation", "both"):
            estimator = self.compile_estimation()
        return pooled_broker(router, estimator, workers=workers,
                             registry=registry,
                             max_batch=max_batch,
                             max_wait_ms=max_wait_ms,
                             max_pending=max_pending)

    def build_estimation(self) -> DistanceEstimation:
        """Clusters + sketches only (skips the tree-routing forest).

        Cached, and reuses a full build's shared cluster computation
        when one already ran.
        """
        if self._built is not None:
            return self._built.estimation
        if self._estimation is not None:
            return self._estimation
        if self._k is None:
            raise ParameterError(
                "pipeline has no parameters: call .params(k, ...) "
                "before .build_estimation()")
        graph = self._resolve_graph()
        clusters = build_approx_clusters(
            graph, self._k, seed=self._seed, eps_override=self._eps)
        self._estimation = estimation_from_clusters(graph, clusters)
        return self._estimation

"""Incremental rebuilds: a fingerprint cache in front of one scratch build.

:class:`IncrementalBuilder` consumes the pending :class:`ChangeBatch`
of a :class:`~repro.dynamic.TopologyFeed` and produces the same
``(CompiledScheme, DenseRoutingPlane)`` pair a from-scratch
``SchemePipeline.build()`` + ``compile()`` would produce on the mutated
graph — **bit for bit**.  Two strategies:

``reuse``
    The current fingerprint matches a cached build — either the batch
    was net-zero (weight flaps cancelled out) or churn revisited a
    previously built topology (e.g. a failed-and-restored weight spike,
    the flap-dampening pattern real control planes see constantly).
    *Sound because* the fingerprint covers the entire build input —
    vertex count, edge set, weights **and adjacency insertion order**
    (see :func:`~repro.dynamic.feed.graph_fingerprint`) — and the whole
    pipeline is a deterministic function of that input plus the frozen
    parameters: equal fingerprint ⇒ a scratch build would be
    byte-identical to the cached one.

``full``
    Every cache miss: ``run_construction`` + ``compile()`` +
    ``DenseRoutingPlane.from_compiled`` on the live graph, exactly the
    scratch path.  ``fallback_reason`` names the batch class,
    ``topology-changed`` (failures, restores, node failures: adjacency
    order and ports may shift) or ``weights-changed``.  Nothing cheaper
    is attempted: the forest is one column kernel, under a quarter of a
    build, and no certificate that a weight change is invisible to the
    build fires often enough to pay for itself (``dynamic/README.md``).

Either way the result is a cache entry keyed by the new fingerprint
holding construction + compiled artifacts, ready to be served,
registered, or reused by a later flap.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import field
from typing import Dict, Optional

from ..core import DenseRoutingPlane
from ..core.compiled import CompiledScheme
from ..core.scheme_builder import ConstructionReport, run_construction
from ..dataclass import dataclass
from ..exceptions import ParameterError
from ..telemetry.registry import MetricsRegistry
from ..telemetry.trace import maybe_span
from .feed import ChangeBatch, TopologyFeed

#: The strategies, cheapest first (also the order they are attempted).
STRATEGIES = ("reuse", "full")


class _NoCertificate:
    @staticmethod
    def certifies_increase(u: int, v: int, old_w: int, new_w: int) -> bool:
        return False


@dataclass
class BuildEntry:
    """One fully built topology state: everything needed to serve it."""

    fingerprint: str
    construction: ConstructionReport
    compiled: CompiledScheme
    dense: DenseRoutingPlane
    #: Certifies no weight change as invisible, which is the truth: no
    #: build keeps a support transcript.  Kept only because
    #: ``benchmarks/e2e/harness.py:514`` (``start_churn``) still reads
    #: ``current.recorder.certifies_increase``; the harness revision
    #: (ROADMAP item 1) removes it.
    recorder = _NoCertificate()

    @property
    def rounds(self) -> int:
        return self.construction.rounds


@dataclass
class RebuildReport:
    """What one :meth:`IncrementalBuilder.rebuild` call did and cost."""

    strategy: str                 #: "initial" or one of STRATEGIES
    fingerprint: str
    duration_s: float
    entry: BuildEntry = field(repr=False)
    batch: Optional[ChangeBatch] = None
    fallback_reason: Optional[str] = None
    cache_hit: bool = False
    #: Always 0: the per-source splice that counted them is gone, but
    #: ``benchmarks/e2e/harness.py`` (``churn_step``) still reads both.
    reused_clusters: int = 0
    rebuilt_clusters: int = 0
    #: Wall-clock seconds per rebuild stage (``classify`` — reading the
    #: pending batch + fingerprint; ``construct`` — the scratch
    #: build/compile, on a cache miss; ``install`` — cache + feed
    #: baseline bookkeeping).  Stages sum to ~``duration_s``.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    # -- passthroughs ---------------------------------------------------
    @property
    def compiled(self) -> CompiledScheme:
        return self.entry.compiled

    @property
    def dense(self) -> DenseRoutingPlane:
        return self.entry.dense

    @property
    def construction(self):
        return self.entry.construction

    @property
    def rounds(self) -> int:
        return self.entry.rounds

    def summary(self) -> str:
        line = (f"strategy={self.strategy} "
                f"duration={self.duration_s * 1e3:.1f}ms "
                f"fingerprint={self.fingerprint[:12]}")
        if self.batch is not None:
            line += f" batch=[{self.batch.summary()}]"
        if self.fallback_reason:
            line += f" fallback={self.fallback_reason!r}"
        return line


class IncrementalBuilder:
    """Rebuild the scheme after feed mutations: a cache hit or a
    scratch build.

    >>> feed = TopologyFeed(graph)
    >>> builder = IncrementalBuilder(feed, k=3, seed=7)
    >>> initial = builder.build()            # full build, cached
    >>> feed.update_edge_weight(4, 9, 60)
    >>> report = builder.rebuild()           # "reuse" or "full"
    >>> report.strategy, report.compiled     # bit-identical to scratch

    Construction parameters — ``k`` and ``seed``, the pipeline's
    defaults otherwise — are frozen at the builder (they are part of
    the determinism argument — a cached entry stands for "scratch with
    these exact parameters").  ``cache_size`` bounds the
    fingerprint-keyed LRU of built states; churn that revisits a cached
    topology is served from it (the ``reuse`` strategy).
    """

    def __init__(self, feed: TopologyFeed, k: int, seed: int = 0,
                 cache_size: int = 8,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if cache_size < 1:
            raise ParameterError(
                f"cache_size must be >= 1, got {cache_size}")
        self.feed = feed
        self._params = dict(k=k, seed=seed)
        self._cache_size = cache_size
        self._cache: "OrderedDict[str, BuildEntry]" = OrderedDict()
        self._current: Optional[BuildEntry] = None
        self._counts: Dict[str, int] = {s: 0 for s in STRATEGIES}
        self._counts["initial"] = 0
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        self._m_strategy = reg.counter(
            "repro_rebuild_strategy_total",
            "rebuilds by chosen strategy and fallback reason "
            "('none' when the strategy was not a fallback)",
            labelnames=("strategy", "reason"))
        self._m_stage_seconds = reg.counter(
            "repro_rebuild_stage_seconds_total",
            "wall-clock seconds per rebuild stage",
            labelnames=("stage",))

    # -- public API -----------------------------------------------------
    @property
    def current(self) -> Optional[BuildEntry]:
        """The entry matching the feed's last-rebuilt baseline."""
        return self._current

    def build(self) -> RebuildReport:
        """Ensure an initial build exists (full build on first call;
        afterwards equivalent to :meth:`rebuild`)."""
        if self._current is None:
            start = time.perf_counter()
            with maybe_span("rebuild",
                            attrs={"strategy": "initial"}):
                entry = self._full_build()
                construct_s = time.perf_counter() - start
                t_install = time.perf_counter()
                self._install(entry, "initial")
            stage_seconds = {
                "construct": construct_s,
                "install": time.perf_counter() - t_install}
            report = RebuildReport(
                strategy="initial", fingerprint=entry.fingerprint,
                duration_s=time.perf_counter() - start, entry=entry,
                stage_seconds=stage_seconds)
            self._emit_telemetry(report)
            return report
        return self.rebuild()

    def rebuild(self) -> RebuildReport:
        """Process the feed's pending batch into a fresh build entry.

        Always leaves ``current`` matching the live graph and resets
        the feed baseline; the returned report says which strategy ran
        and, on fallback, why.
        """
        if self._current is None:
            return self.build()
        start = time.perf_counter()
        stage_seconds: Dict[str, float] = {}
        with maybe_span("rebuild") as rebuild_span:
            with maybe_span("rebuild.classify"):
                batch = self.feed.pending()
                fp = self.feed.fingerprint()
            stage_seconds["classify"] = time.perf_counter() - start
            with maybe_span("rebuild.strategy") as strategy_span:
                strategy, entry, reason, hit = \
                    self._dispatch(batch, fp, stage_seconds)
                strategy_span.set(strategy=strategy,
                                  reason=reason or "none")
            t_install = time.perf_counter()
            with maybe_span("rebuild.install"):
                self._install(entry, strategy)
            stage_seconds["install"] = time.perf_counter() - t_install
            rebuild_span.set(strategy=strategy,
                             fingerprint=fp[:12])
        report = RebuildReport(
            strategy=strategy, fingerprint=fp,
            duration_s=time.perf_counter() - start, entry=entry,
            batch=batch, fallback_reason=reason, cache_hit=hit,
            stage_seconds=stage_seconds)
        self._emit_telemetry(report)
        return report

    def _emit_telemetry(self, report: RebuildReport) -> None:
        """One strategy count (labeled with the fallback reason) and
        the stage seconds."""
        self._m_strategy.labels(
            strategy=report.strategy,
            reason=report.fallback_reason or "none").inc()
        for stage, seconds in report.stage_seconds.items():
            self._m_stage_seconds.labels(stage=stage).inc(seconds)

    def stats(self) -> Dict[str, object]:
        """Strategy counters and the honest fallback rate (full
        rebuilds over all post-initial rebuilds)."""
        total = sum(self._counts[s] for s in STRATEGIES)
        return {
            "rebuilds": total,
            "by_strategy": dict(self._counts),
            "fallback_rate": (self._counts["full"] / total) if total
            else 0.0,
            "cache_entries": len(self._cache),
        }

    # -- strategies -----------------------------------------------------
    def _dispatch(self, batch: ChangeBatch, fp: str,
                  stage_seconds: Dict[str, float]):
        """Returns (strategy, entry, fallback_reason, cache_hit)."""
        cached = self._cache.get(fp)
        if cached is not None:
            self._cache.move_to_end(fp)
            return ("reuse", cached, None,
                    fp != self._current.fingerprint)
        start = time.perf_counter()
        entry = self._full_build(fp)
        stage_seconds["construct"] = time.perf_counter() - start
        reason = ("topology-changed" if batch.topology_changed
                  else "weights-changed")
        return ("full", entry, reason, False)

    def _full_build(self, fp: Optional[str] = None) -> BuildEntry:
        """``fp`` is the live graph's fingerprint when the caller has
        already hashed it (every rebuild has, to probe the cache)."""
        construction = run_construction(self.feed.graph, **self._params)
        compiled = construction.scheme.compile()
        return BuildEntry(fingerprint=fp or self.feed.fingerprint(),
                          construction=construction, compiled=compiled,
                          dense=DenseRoutingPlane.from_compiled(compiled))

    def _install(self, entry: BuildEntry, strategy: str) -> None:
        self._cache[entry.fingerprint] = entry
        self._cache.move_to_end(entry.fingerprint)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        self._current = entry
        self._counts[strategy] += 1
        # every entry is keyed by the fingerprint of the graph state it
        # was built (or fetched) for, which is the live one
        self.feed.mark_rebuilt(fingerprint=entry.fingerprint)

"""Serving metrics for the async traffic front-end.

The broker's observable contract is latency and batching behaviour, so
both are first-class here:

* :class:`LatencyRecorder` — a bounded reservoir of per-request
  latencies with nearest-rank percentiles (p50/p95/p99).  Bounded so a
  long-lived server never grows without limit; the window (default
  65536 samples) is large enough that percentiles describe *recent*
  traffic, which is what an operator watches.  A recorder can mirror
  its observations into a registry :class:`~repro.telemetry.Histogram`
  so the same samples feed both the exact-percentile snapshot and the
  ``/metrics`` exposition.
* :class:`BrokerMetrics` — the broker's counters, now stored as
  instruments in a :class:`~repro.telemetry.MetricsRegistry` (a
  private one per broker by default; pass ``registry=`` to aggregate
  into a shared or the process-global one).  ``snapshot()`` reads the
  instruments back out and returns the exact same JSON-able dict
  schema as before the migration — pinned by
  ``tests/telemetry/test_schema_stability.py`` — plus the queue-wait /
  service-time decomposition recorded at the dispatch boundary.

Everything is updated from the event loop thread; instrument updates
take an uncontended lock (the registry is also read by the metrics
HTTP endpoint and ``STATS`` verb, which may race the loop).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from ..telemetry.registry import MetricsRegistry

#: Default bounded-reservoir size for per-request latencies.
DEFAULT_WINDOW = 65536

#: The percentiles every snapshot reports, in order.
PERCENTILES = (50.0, 95.0, 99.0)


def percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list.

    Nearest-rank (not interpolated) so a reported p99 is always a
    latency some request actually experienced.

    The rank ``ceil(n * q / 100)`` is computed in exact integer
    arithmetic: ``q`` is taken at its decimal face value (via
    ``Fraction(str(q))``), so e.g. ``q = 99.0`` over ``n = 100``
    samples is rank 99 exactly — never rank 100 through a float
    rounding of ``n * q / 100``.
    """
    if not sorted_samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    frac = Fraction(str(q)) * len(sorted_samples) / 100
    rank = max(1, math.ceil(frac))
    return sorted_samples[rank - 1]


class LatencyRecorder:
    """Bounded reservoir of latencies (seconds) with percentile report.

    ``instrument`` (a registry histogram or one of its label children)
    receives a mirrored ``observe()`` per sample: the reservoir stays
    the source of exact nearest-rank percentiles — bucketed histograms
    can only approximate them — while the instrument gives scrapers
    the cumulative-bucket view.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 instrument: "Optional[object]" = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._samples: deque = deque(maxlen=window)
        self.count = 0          #: total observations (beyond the window)
        self._instrument = instrument

    def observe(self, seconds: float) -> None:
        self.observe_many((seconds,))

    def observe_many(self, seconds: Sequence[float]) -> None:
        self._samples.extend(seconds)
        self.count += len(seconds)
        if self._instrument is not None:
            self._instrument.observe_many(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def summary(self) -> Dict[str, float]:
        """``{count, window, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}``.

        ``count`` is the all-time observation total; ``window`` is how
        many samples the bounded reservoir currently holds — the
        population every other statistic here is computed over.  Keeping
        them separate stops an all-time count from masquerading as the
        sample size of window-scoped percentiles (zeros when nothing was
        observed yet).
        """
        out: Dict[str, float] = {"count": self.count,
                                 "window": len(self._samples)}
        if not self._samples:
            out.update({"mean_ms": 0.0, "max_ms": 0.0})
            out.update({f"p{int(q)}_ms": 0.0 for q in PERCENTILES})
            return out
        ordered = sorted(self._samples)
        out["mean_ms"] = round(
            sum(ordered) / len(ordered) * 1000.0, 4)
        out["max_ms"] = round(ordered[-1] * 1000.0, 4)
        for q in PERCENTILES:
            out[f"p{int(q)}_ms"] = round(
                percentile(ordered, q) * 1000.0, 4)
        return out


class BrokerMetrics:
    """Counters + latency windows for one :class:`RequestBroker`,
    backed by registry instruments.

    The latency triple decomposes at the dispatch boundary:
    ``latency`` (enqueue → demux, the combined number operators always
    had), ``queue_wait`` (enqueue → the fused window's dispatch), and
    ``service`` (dispatch → demux, shared by every submission fused
    into that window).  ``queue_wait + service ≈ latency`` per request
    up to the demux loop's bookkeeping.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 queue_depth: Optional[Callable[[], int]] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        events = reg.counter(
            "repro_broker_requests_total",
            "broker request lifecycle events", labelnames=("event",))
        # the label children, looked up once: the hot path increments
        # them directly
        self._submitted = events.labels(event="submitted")
        self._completed = events.labels(event="completed")
        self._failed = events.labels(event="failed")
        self._cancelled = events.labels(event="cancelled")
        self._dispatches = reg.counter(
            "repro_broker_dispatches_total", "fused backend calls issued")
        self._fused_pairs = reg.counter(
            "repro_broker_fused_pairs_total",
            "total pairs across fused dispatches")
        self._batch_sizes = reg.counter(
            "repro_broker_batch_size_total",
            "fused dispatches by exact batch size", labelnames=("size",))
        self._swaps = reg.counter(
            "repro_broker_swaps_total", "successful artifact hot-swaps")
        self._generation = reg.gauge(
            "repro_broker_generation", "routing-artifact generation")
        self._generation.set(0)   # scrapeable before the first swap
        self._generation_windows = reg.counter(
            "repro_broker_generation_windows_total",
            "fused windows served entirely by one artifact generation",
            labelnames=("generation",))
        self._depth_gauge = reg.gauge(
            "repro_broker_queue_depth",
            "submissions currently waiting for a window")
        self._queue_depth = queue_depth or (lambda: 0)
        self._depth_gauge.set_function(self._queue_depth)

        self.latency = LatencyRecorder(window, instrument=reg.histogram(
            "repro_broker_latency_seconds",
            "end-to-end request latency (enqueue to demux)"))
        self.queue_wait = LatencyRecorder(window, instrument=reg.histogram(
            "repro_broker_queue_wait_seconds",
            "time from enqueue to fused-window dispatch"))
        self.service = LatencyRecorder(window, instrument=reg.histogram(
            "repro_broker_service_seconds",
            "time from fused-window dispatch to demux"))
        self.swap_latency = LatencyRecorder(window, instrument=reg.histogram(
            "repro_broker_swap_latency_seconds",
            "hot-swap duration (request to all-worker rebind)"))

    # -- observations (event-loop thread only) -------------------------
    def record_submit(self) -> None:
        self._submitted.inc()

    def record_dispatch(self, fused_size: int) -> None:
        self._dispatches.inc()
        self._fused_pairs.inc(fused_size)
        self._batch_sizes.labels(size=str(fused_size)).inc()

    def record_window(self, latencies: Sequence[float],
                      queue_waits: Sequence[float],
                      service_seconds: float) -> None:
        """The completed submissions of one fused window, recorded in
        one call: a latency and a queue wait each, and the service time
        they all share."""
        self._completed.inc(len(latencies))
        self.latency.observe_many(latencies)
        self.queue_wait.observe_many(queue_waits)
        self.service.observe_many([service_seconds] * len(latencies))

    def record_failure(self, count: int) -> None:
        self._failed.inc(count)

    def record_cancelled(self) -> None:
        self._cancelled.inc()

    def record_swap(self, latency_seconds: float,
                    generation: int) -> None:
        self._swaps.inc()
        self._generation.set(generation)
        self.swap_latency.observe(latency_seconds)

    def record_window_generation(self, generation: int) -> None:
        self._generation_windows.labels(generation=str(generation)).inc()

    # -- reading the instruments back ----------------------------------
    @property
    def submitted(self) -> int:
        return int(self._submitted.value)

    @property
    def completed(self) -> int:
        return int(self._completed.value)

    @property
    def failed(self) -> int:
        return int(self._failed.value)

    @property
    def cancelled(self) -> int:
        return int(self._cancelled.value)

    @property
    def dispatches(self) -> int:
        return int(self._dispatches.value)

    @property
    def fused_pairs(self) -> int:
        return int(self._fused_pairs.value)

    @property
    def batch_size_hist(self) -> Dict[int, int]:
        """Fused-batch size -> dispatch count (rebuilt from the labeled
        counter children; bounded by ``max_batch`` distinct keys)."""
        return {int(values[0]): int(child.value) for values, child in
                self._batch_sizes.children().items()}

    @property
    def swaps(self) -> int:
        return int(self._swaps.value)

    @property
    def generation(self) -> int:
        return int(self._generation.value)

    @property
    def generation_windows(self) -> Dict[int, int]:
        return {int(values[0]): int(child.value) for values, child in
                self._generation_windows.children().items()}

    # -- reporting -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Submissions currently waiting for a window (live gauge)."""
        return self._queue_depth()

    def mean_fused_size(self) -> float:
        dispatches = self.dispatches
        if not dispatches:
            return 0.0
        return self.fused_pairs / dispatches

    def snapshot(self) -> Dict:
        """One JSON-able dict with everything above.

        Schema-stable across the registry migration (the pre-telemetry
        keys are unchanged); ``queue_wait`` and ``service`` are the
        dispatch-boundary decomposition of ``latency``.
        """
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "dispatches": self.dispatches,
            "fused_pairs": self.fused_pairs,
            "mean_fused_size": round(self.mean_fused_size(), 3),
            "queue_depth": self.queue_depth,
            "batch_size_hist": {str(k): v for k, v in
                                sorted(self.batch_size_hist.items())},
            "latency": self.latency.summary(),
            "queue_wait": self.queue_wait.summary(),
            "service": self.service.summary(),
            "swaps": self.swaps,
            "generation": self.generation,
            "generation_windows": {str(k): v for k, v in
                                   sorted(
                                       self.generation_windows.items())},
            "swap_latency": self.swap_latency.summary(),
        }

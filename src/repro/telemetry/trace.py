"""Structured tracing: explicit spans, contextvar propagation, JSONL export.

A :class:`Span` is one timed operation — a serve request, a broker
dispatch window, one build phase, one worker rebind during a hot-swap.
Spans carry monotonic-clock durations (wall-clock epoch start is
recorded separately for log correlation), a parent link, and free-form
attributes; finished spans land in the owning :class:`Tracer`'s ring
buffer and, optionally, a JSONL sink.

Propagation rules, which are the whole reason this module exists
instead of a ``logging`` call:

* **No ambient globals across asyncio tasks.**  The "current span" is
  a :mod:`contextvars` variable, so two interleaved requests on one
  event loop each see their own ancestry.  ``asyncio`` copies the
  context at task creation; the broker's lane tasks therefore do NOT
  inherit a request's context — cross-task links (submission → fused
  dispatch window) are made *explicitly* by passing a parent span,
  which is also how spans cross thread boundaries into the dispatch
  executor (contextvars don't follow threads).
* **Free when disabled.**  The module-level tracer is ``None`` until
  :func:`set_tracer` installs one; :func:`maybe_span` returns a
  singleton no-op context manager in that case.
* **Cheap when enabled: head sampling.**  A span costs a couple of
  microseconds (object + two ``perf_counter`` calls + a deque
  append), which is real money against a ~30µs fused route request.
  Per-*request* traces are therefore head-sampled: the serve entry
  points ask :meth:`Tracer.sampled` once per request and skip the
  whole span chain for unsampled ones (the default is 1 in
  :data:`DEFAULT_SAMPLE_EVERY`).  Control-plane spans — build,
  rebuild, swap, publish — are rare and always recorded.
  ``telemetry.traced_over_untraced`` in ``BENCHMARK.json`` (tracing on
  vs off, target >= 0.97) measures the default configuration.

Span-name conventions are documented in ``telemetry/README.md``; the
serve path emits ``serve.request → serve.submit → serve.queue →
serve.dispatch → serve.worker → serve.demux``, the build pipeline
emits a ``build`` root with one ``build.phase`` child per
``CostLedger`` phase, and the control plane emits ``rebuild`` /
``pool.swap`` / ``pool.rebind`` / ``registry.publish``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple

__all__ = [
    "Span", "Tracer", "NOOP_SPAN", "DEFAULT_SAMPLE_EVERY",
    "current_span", "get_tracer", "set_tracer",
    "maybe_span", "sampled_request_tracer",
    "span_tree", "format_span_tree",
]

_ids = itertools.count(1)

#: The innermost live span of the current asyncio task / thread.
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = (
    contextvars.ContextVar("repro_current_span", default=None))


def current_span() -> "Optional[Span]":
    return _CURRENT.get()


class Span:
    """One timed operation.

    Use as a context manager (entering makes it the current span for
    the calling context; exiting restores the previous one and hands
    the finished record to the tracer) or drive ``finish()`` by hand
    for spans whose start and end live in different callbacks.
    """

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "attrs", "start_wall", "_start", "duration_s",
                 "_token", "_finished")

    def __init__(self, tracer: "Tracer", name: str,
                 parent: "Optional[Span]" = None,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = next(_ids)
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = self.span_id
            self.parent_id = None
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start_wall = time.time()
        self._start = time.perf_counter()
        self.duration_s: Optional[float] = None
        self._token: Optional[contextvars.Token] = None
        self._finished = False

    def child(self, name: str,
              attrs: Optional[Dict[str, Any]] = None) -> "Span":
        """A new span parented to this one — the explicit cross-task /
        cross-thread link (bypasses the contextvar)."""
        return Span(self.tracer, name, parent=self, attrs=attrs)

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, duration_s: Optional[float] = None,
               **attrs: Any) -> "Span":
        """End the span.  ``duration_s`` overrides the measured
        monotonic duration — used for *synthesized* spans replaying an
        externally-timed quantity (e.g. the build pipeline's per-phase
        spans, whose seconds come from the ``CostLedger``)."""
        if self._finished:
            return self
        self._finished = True
        self.duration_s = (time.perf_counter() - self._start
                           if duration_s is None else float(duration_s))
        if attrs:
            self.attrs.update(attrs)
        self.tracer._record(self)
        return self

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.finish()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_wall,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (f"{self.duration_s * 1e3:.3f}ms"
                 if self.duration_s is not None else "live")
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NoopSpan:
    """Singleton stand-in when tracing is disabled: every operation is
    a no-op, so instrumentation sites need no ``if`` guards."""

    __slots__ = ()

    trace_id = 0
    span_id = 0
    parent_id = None
    name = ""
    duration_s = None
    attrs: Dict[str, Any] = {}

    def child(self, name: str, attrs=None) -> "_NoopSpan":
        return self

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def finish(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


#: Default head-sampling period: 1 in this many serve requests gets a
#: full span chain.  Control-plane spans ignore sampling entirely.
#: Chosen so always-on tracing stays inside a 3% overhead budget
#: (``telemetry.traced_over_untraced`` in ``BENCHMARK.json``) while
#: still feeding the live ``TRACE`` verb ~1% of traffic.
DEFAULT_SAMPLE_EVERY = 128


class Tracer:
    """Collects finished spans in a bounded ring buffer and optionally
    streams them to a JSONL sink (one span object per line).

    ``sample_every`` is the head-sampling period serve entry points
    consult via :meth:`sampled` — pass ``1`` to trace every request
    (tests, interactive debugging); the default traces 1 in
    :data:`DEFAULT_SAMPLE_EVERY`, which is what keeps always-on
    tracing inside the 3% overhead gate.
    """

    def __init__(self, capacity: int = 4096,
                 sink: Optional[IO[str]] = None,
                 sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.capacity = capacity
        self.sample_every = int(sample_every)
        self._sample_counter = itertools.count()
        self._finished: "deque[Span]" = deque(maxlen=capacity)
        self._sink = sink
        self._lock = threading.Lock()
        self._dropped = 0

    def sampled(self) -> bool:
        """The head-sampling decision: ``True`` for the first call and
        then every ``sample_every``-th one.  Call exactly once per
        request, at the trace entry point; everything downstream keys
        off whether a span actually exists (``current_span()`` /
        an explicit parent), never off a second decision."""
        if self.sample_every <= 1:
            return True
        return next(self._sample_counter) % self.sample_every == 0

    # -- span creation --------------------------------------------------
    def span(self, name: str, parent: "Optional[Span]" = None,
             attrs: Optional[Dict[str, Any]] = None,
             root: bool = False) -> Span:
        """A new span.  Parent resolution order: explicit ``parent``
        argument, else the contextvar's current span, else none.  Pass
        ``root=True`` to force a new trace even inside a live span."""
        if parent is None and not root:
            parent = _CURRENT.get()
        return Span(self, name, parent=parent, attrs=attrs)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self._dropped += 1
            self._finished.append(span)
            sink = self._sink
            if sink is not None:
                try:
                    sink.write(json.dumps(span.to_dict(),
                                          separators=(",", ":"),
                                          default=str) + "\n")
                    sink.flush()
                except ValueError:
                    # sink closed under us (shutdown race): keep the
                    # ring buffer, drop the stream
                    self._sink = None

    # -- inspection -----------------------------------------------------
    def finished(self, limit: Optional[int] = None) -> List[Span]:
        """Finished spans, oldest first (most recent ``limit`` if set)."""
        with self._lock:
            spans = list(self._finished)
        if limit is not None and limit < len(spans):
            spans = spans[-limit:]
        return spans

    def export(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.finished(limit)]

    @property
    def dropped(self) -> int:
        return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._dropped = 0

    def set_sink(self, sink: Optional[IO[str]]) -> None:
        with self._lock:
            self._sink = sink


# ----------------------------------------------------------------------
# Module-level tracer (disabled by default)
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, disable) the process tracer;
    returns the previous one so tests can restore it."""
    global _TRACER
    old = _TRACER
    _TRACER = tracer
    return old


def sampled_request_tracer() -> Optional[Tracer]:
    """The installed tracer iff the current request should be traced:
    an already-sampled ancestor span (the serve entry point's decision,
    carried by the contextvar) wins; otherwise the tracer's own
    head-sampling decision.  ``None`` when tracing is disabled or the
    request lost the sampling draw.

    One fused call, inlining :func:`current_span` and
    :meth:`Tracer.sampled`: this sits on the broker's per-request hot
    path, where three separate lookups are measurable against a ~30µs
    request.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    if _CURRENT.get() is not None:
        return tracer
    if tracer.sample_every <= 1:
        return tracer
    if next(tracer._sample_counter) % tracer.sample_every == 0:
        return tracer
    return None


def maybe_span(name: str, parent: Optional[Span] = None,
               attrs: Optional[Dict[str, Any]] = None,
               root: bool = False):
    """A span from the installed tracer, or the no-op singleton when
    tracing is disabled.  This is THE instrumentation entry point —
    call sites never check ``get_tracer()`` themselves."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, parent=parent, attrs=attrs, root=root)


# ----------------------------------------------------------------------
# Trace rendering (CLI `repro telemetry tail`, tests)
# ----------------------------------------------------------------------
def span_tree(records: List[Dict[str, Any]]
              ) -> List[Tuple[Dict[str, Any], int]]:
    """Order span records as depth-first trees: ``(record, depth)``
    pairs, roots in start order.  Orphans (parent not in the list —
    e.g. a tail of a rotated JSONL) surface as roots."""
    by_id = {r["span_id"]: r for r in records}
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(record)
    for bucket in children.values():
        bucket.sort(key=lambda r: (r.get("start_unix") or 0,
                                   r["span_id"]))
    out: List[Tuple[Dict[str, Any], int]] = []

    def walk(record: Dict[str, Any], depth: int) -> None:
        out.append((record, depth))
        for kid in children.get(record["span_id"], ()):
            walk(kid, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return out


def format_span_tree(records: List[Dict[str, Any]]) -> str:
    """Human-readable indented rendering of :func:`span_tree`."""
    lines: List[str] = []
    for record, depth in span_tree(records):
        duration = record.get("duration_s")
        timing = (f"{duration * 1e3:9.3f}ms" if duration is not None
                  else "      live")
        attrs = record.get("attrs") or {}
        suffix = ""
        if attrs:
            body = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            suffix = f"  [{body}]"
        lines.append(f"{timing}  {'  ' * depth}{record['name']}{suffix}")
    return "\n".join(lines)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load span records from a JSONL trace file, skipping blank and
    truncated trailing lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records

"""Request broker: micro-batch coalescing over a warm serving backend.

`RouterPool` (PR 4) scales one *big* batch across processes, but real
traffic arrives as a stream of small, concurrent lookups.  The broker is
the missing front half: many asyncio clients each submit one pair or a
small batch (``await broker.route(s, t)``), the broker coalesces
everything that arrives inside a micro-batch window into **one** fused
``route_many``/``estimate_many`` call, and demultiplexes the results
back to each awaiting future in that client's input order.

Why this wins: every dispatch pays fixed costs (an executor hop, and —
with a pool backend — sharding plus queue round-trips) that dwarf the
per-pair serving cost.  Coalescing amortizes those fixed costs over the
whole window, so throughput under many small clients approaches the big
pre-assembled-batch rate; the CLI's ``bench-traffic`` prints the ratio.

Design points, in contract order:

* **Bit-identity.**  A fused window is served by the *same*
  ``route_many``/``estimate_many`` the backend already has, and those
  are per-query deterministic — so any window shape returns exactly the
  bytes in-process serving would.  Pinned by ``tests/server/``.
* **Backpressure.**  A lane holds at most ``max_pending`` submissions
  that no window has taken yet; when it is full, ``await
  broker.route(...)`` blocks *the submitting client* until a window
  takes some.  Slow consumers wait; memory never grows without bound.
* **Validation at the door.**  Pairs are validated at submit time with
  the same ``validate_pairs`` prepass every other serve path uses —
  a malformed request raises immediately in the caller and can never
  poison a fused window that carries other clients' queries.
* **Per-window failure domain.**  If the backend itself raises
  mid-window (artifact bug, dead pool worker), every submission in that
  window gets the error; queued windows behind it are unaffected.
* **Cancellation.**  A client abandoning its future (``asyncio``
  cancellation) is dropped at dispatch time — its pairs are excluded
  from the fused call and nobody else notices.
* **Graceful shutdown.**  ``aclose()`` rejects new submissions with
  :class:`~repro.exceptions.ServingError`, flushes every queued window,
  waits for in-flight dispatches, then closes owned backends (e.g. a
  pool opened by ``SchemePipeline.serve_async``).

Mechanism: there is no dispatcher coroutine.  :meth:`RequestBroker.
submit` is a plain function — validate, append to the lane's window,
return a future — and a window is closed by whichever comes first: the
arrival that brings it to ``max_batch`` pairs, one timer armed by its
first arrival, or, while a fused call is running, the end
of that call (the executor future's done-callback dispatches the next
window).  The per-request cost on the event loop is one future and one
deque append; everything else is paid once per window.

The broker is loop-bound: it binds to the running event loop on first
use, and all its methods must be called from that loop.  Backends are
driven on a single worker thread (``run_in_executor``), which both
keeps the event loop responsive during a fused call and serializes
dispatches FIFO — a pool backend serializes batches internally anyway.
"""

from __future__ import annotations

import asyncio
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..exceptions import ParameterError, ServingError
from ..telemetry.trace import NOOP_SPAN, get_tracer, maybe_span, \
    sampled_request_tracer
from .metrics import BrokerMetrics

_ROUTE = "route"
_ESTIMATE = "estimate"


class _Submission:
    """One client request: its pairs, its future, its clock, and (when
    it is traced) its ``serve.queue`` span — started at submit,
    finished when a window takes it."""

    __slots__ = ("pairs", "future", "enqueued_at", "span")

    def __init__(self, pairs, future, enqueued_at, span=None):
        self.pairs = pairs
        self.future = future
        self.enqueued_at = enqueued_at
        self.span = span


class _Lane:
    """One coalescing lane (route or estimate): the submissions no
    window has taken yet, and what will close the window they form."""

    __slots__ = ("name", "serve", "queue", "queued_pairs", "timer",
                 "busy", "admitted", "settled", "progress",
                 "room_waiters")

    def __init__(self, name, serve):
        self.name = name
        #: blocking callable(pairs) -> (generation, results); rebound
        #: atomically by an in-process hot swap
        self.serve = serve
        self.queue: deque = deque()
        self.queued_pairs = 0
        #: the ``call_at`` handle that closes the open window on time;
        #: ``None`` while a fused call runs (its end closes the next)
        self.timer: Optional[asyncio.TimerHandle] = None
        self.busy = False
        self.admitted = 0        #: submissions ever queued
        self.settled = 0         #: ... resolved, or dropped as abandoned
        self.progress = asyncio.Event()   #: set when ``settled`` moves
        #: futures of submitters waiting for room, first come first woken
        self.room_waiters: deque = deque()


def _tagged_serve(backend, method: str, generation: int):
    """A blocking ``callable(pairs) -> (generation, results)``.

    Pool backends expose a generation-tagged validated entry point —
    the pool's own counter is the attribution authority there, captured
    under its serve lock.  Plain artifacts get a closure pinning the
    broker-assigned ``generation``: a hot swap installs a *new* closure
    (and artifact) atomically, so a window mid-dispatch keeps serving —
    and reporting — the old generation while new windows pick up the
    new one.  Dispatch goes through the backend's ``*_validated`` entry
    point when it has one: the broker already ran the exact same
    prepass per submission, so fused windows skip a second O(window)
    validation sweep.
    """
    tagged = getattr(backend, f"_{method}_validated_tagged", None)
    if tagged is not None:
        return tagged
    base = getattr(backend, f"_{method}_validated", None) \
        or getattr(backend, method)

    def serve(pairs):
        return generation, base(pairs)

    return serve


class RequestBroker:
    """Coalesce concurrent small requests into fused backend batches.

    >>> broker = RequestBroker(router=dense, max_batch=128,
    ...                        max_wait_ms=2.0)
    >>> async with broker:
    ...     route = await broker.route(3, 57)
    ...     routes = await broker.route_batch([(0, 9), (4, 4)])

    Parameters
    ----------
    router:
        Anything with ``route_many(pairs)`` + ``validate_pairs(pairs)``
        — the :class:`~repro.core.DenseRoutingPlane` or a warm
        :class:`~repro.serving.RouterPool` over it.  ``None`` disables
        the route lane.
    estimator:
        Same for ``estimate_many`` — a ``CompiledEstimation`` or an
        estimation pool.  ``None`` disables the estimate lane.
    max_batch:
        Fused-window pair budget: a window closes as soon as it holds
        this many pairs.  ``1`` disables coalescing (every submission
        dispatches alone) — the benchmark's baseline mode.
    max_wait_ms:
        How long a window stays open for more arrivals after its first
        pair, in milliseconds.  ``0`` means "grab whatever is already
        queued, never sleep": minimum latency, coalescing only under
        concurrency pressure.
    max_pending:
        Bound on queued submissions per lane — the backpressure knob.
        Submitters beyond it wait in :meth:`room`, first come first
        woken.
    own:
        Backends the broker should ``close()`` on ``aclose()`` (the
        pipeline hands pools it opened here).
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` the broker's
        instruments register into (shared with a metrics endpoint or
        the pools); default is a private registry per broker.
    """

    def __init__(self, router=None, estimator=None, *,
                 max_batch: int = 128, max_wait_ms: float = 2.0,
                 max_pending: int = 1024, own: Sequence = (),
                 registry=None) -> None:
        if router is None and estimator is None:
            raise ParameterError(
                "RequestBroker needs a router and/or an estimator "
                "backend")
        for backend, methods in ((router, ("route_many",)),
                                 (estimator, ("estimate_many",))):
            if backend is None:
                continue
            for name in methods + ("validate_pairs",):
                if not callable(getattr(backend, name, None)):
                    raise ParameterError(
                        f"broker backend {type(backend).__name__} "
                        f"lacks a callable {name}()")
        if max_batch < 1:
            raise ParameterError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ParameterError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if max_pending < 1:
            raise ParameterError(
                f"max_pending must be >= 1, got {max_pending}")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self._max_pending = int(max_pending)
        self._router = router
        self._estimator = estimator
        self._own = list(own)
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Routing-artifact generation as this broker knows it: the
        #: backend pool's counter, or the broker's own for in-process
        #: backends.  Bumped by :meth:`swap_router`.
        self._router_generation = getattr(router, "generation", 0)
        self._lanes = {}
        if router is not None:
            serve = _tagged_serve(router, "route_many",
                                  self._router_generation)
            self._lanes[_ROUTE] = _Lane(_ROUTE, serve)
        if estimator is not None:
            serve = _tagged_serve(estimator, "estimate_many", 0)
            self._lanes[_ESTIMATE] = _Lane(_ESTIMATE, serve)
        # latency reservoirs of metrics.DEFAULT_WINDOW samples
        self.metrics = BrokerMetrics(
            queue_depth=lambda: sum(len(lane.queue)
                                    for lane in self._lanes.values()),
            registry=registry)
        # One worker thread: fused dispatches run off-loop (the event
        # loop keeps accepting arrivals mid-dispatch, which is where
        # the next window's coalescing comes from) and strictly FIFO.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-broker")

    # -- introspection -------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def serves_routing(self) -> bool:
        return _ROUTE in self._lanes

    @property
    def serves_estimation(self) -> bool:
        return _ESTIMATE in self._lanes

    @property
    def router(self):
        return self._router

    @property
    def estimator(self):
        return self._estimator

    def __repr__(self) -> str:
        kinds = "+".join(sorted(self._lanes))
        state = "closed" if self._closed else "open"
        return (f"RequestBroker({kinds}, max_batch={self.max_batch}, "
                f"max_wait_ms={self.max_wait * 1000:g}, {state})")

    # -- public API ----------------------------------------------------
    async def route(self, source: int, target: int):
        """One routing lookup; returns a ``CompiledRoute``."""
        return (await self.route_batch([(source, target)]))[0]

    async def route_batch(self, pairs: Sequence[Tuple[int, int]]
                          ) -> List:
        """A small client batch of routing lookups, served fused with
        whatever else the window collects; results in input order."""
        return await self._request(_ROUTE, pairs)

    async def estimate(self, u: int, v: int) -> float:
        """One distance estimate (Algorithm 2)."""
        return (await self.estimate_batch([(u, v)]))[0]

    async def estimate_batch(self, pairs: Sequence[Tuple[int, int]]
                             ) -> List[float]:
        """A small client batch of distance estimates."""
        return await self._request(_ESTIMATE, pairs)

    # -- hot swap ------------------------------------------------------
    @property
    def router_generation(self) -> int:
        """Generation of the routing artifact currently serving."""
        return self._router_generation

    async def swap_router(self, artifact) -> float:
        """Hot-swap the routing artifact with zero dropped windows.

        Returns the swap latency in seconds.  In-flight fused windows
        complete on the old generation; every window dispatched after
        the swap serves on the new one — no window ever mixes
        generations (each window's serve callable and the pool's
        artifact swap both switch atomically with respect to window
        boundaries).  The swap and the windows share the broker's
        single dispatch thread, so ordering is strictly FIFO: windows
        queued before the swap drain first.

        With a :class:`~repro.serving.RouterPool` backend this
        delegates to :meth:`RouterPool.swap` (workers re-attach the new
        artifact's shared buffers); with an in-process artifact it
        atomically rebinds the lane to the new artifact.  Metrics
        record the swap count, latency, and per-generation window
        counts.
        """
        if self._closed:
            raise ServingError("cannot swap the router of a closed "
                               "broker")
        lane = self._lanes.get(_ROUTE)
        if lane is None:
            raise ParameterError("this broker has no routing backend "
                                 "to swap")
        loop = self._bind_loop()
        router = self._router
        swap_span = maybe_span("broker.swap",
                               attrs={"backend": type(router).__name__})
        if callable(getattr(router, "swap", None)):
            # Pool backend: the pool swaps in place; the lane's serve
            # callable (bound to the pool) stays valid, and the pool's
            # generation counter is the attribution authority.  Runs on
            # the broker's own dispatch thread, strictly FIFO with the
            # fused windows.
            swap_call = router.swap
            if get_tracer() is not None:
                # The pool swap runs on the dispatch thread, where the
                # contextvar chain is empty — link its span explicitly.
                def swap_call(art, _swap=router.swap,
                              _parent=swap_span):
                    return _swap(art, parent_span=_parent)
            try:
                latency = await loop.run_in_executor(
                    self._executor, swap_call, artifact)
            except BaseException as exc:
                swap_span.finish(error=type(exc).__name__)
                raise
            generation = router.generation
        else:
            for name in ("route_many", "validate_pairs"):
                if not callable(getattr(artifact, name, None)):
                    raise ParameterError(
                        f"swap_router needs an artifact with a "
                        f"callable {name}(), got "
                        f"{type(artifact).__name__}")
            start = loop.time()
            generation = self._router_generation + 1
            # Atomic rebinds on the event-loop thread: _dispatch reads
            # lane.serve on this same thread, so a window is either
            # entirely old or entirely new.
            lane.serve = _tagged_serve(artifact, "route_many",
                                       generation)
            self._router = artifact
            latency = loop.time() - start
        self._router_generation = generation
        self.metrics.record_swap(latency, generation)
        swap_span.finish(generation=generation,
                         swap_latency_s=round(latency, 6))
        return latency

    # -- submission ----------------------------------------------------
    async def _request(self, kind: str, pairs) -> List:
        await self.room(kind)
        future = self.submit(kind, pairs)
        try:
            return await future
        except asyncio.CancelledError:
            self.metrics.record_cancelled()
            raise

    def _open_lane(self, kind: str) -> _Lane:
        if self._closed:
            raise ServingError(
                f"cannot submit {kind} requests to a closed broker")
        lane = self._lanes.get(kind)
        if lane is None:
            raise ParameterError(
                f"this broker has no {kind} backend")
        return lane

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        """The running loop, which the first use binds the broker to."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            if self._loop is not None:
                raise ServingError(
                    "RequestBroker is bound to another event loop; "
                    "create one broker per loop")
            self._loop = loop
        return loop

    async def room(self, kind: str) -> None:
        """Wait until the ``kind`` lane can take one more submission —
        the backpressure point.  Returns at once while it can."""
        while True:
            lane = self._open_lane(kind)
            # tested again after every wake-up: the room this caller was
            # woken for may have gone to a submitter that did not wait
            if len(lane.queue) < self._max_pending:
                return
            waiter = self._bind_loop().create_future()
            lane.room_waiters.append(waiter)
            try:
                await waiter
            except asyncio.CancelledError:
                # a wake-up spent on this caller goes to the next one
                self._wake_room(lane)
                raise

    def _wake_room(self, lane: _Lane) -> None:
        room = self._max_pending - len(lane.queue)
        waiters = lane.room_waiters
        while waiters and (room > 0 or self._closed):
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                room -= 1

    def submit(self, kind: str, pairs: Sequence[Tuple[int, int]],
               parent=None) -> "asyncio.Future":
        """Queue one request without waiting; the returned future
        resolves to its results, in input order.

        Everything that can be wrong with the request is raised here,
        in the caller, before it enters a window shared with others:
        :class:`ServingError` on a closed broker, :class:`ParameterError`
        from the backend's own ``validate_pairs``.  A full lane is a
        :class:`ServingError` too — a caller that can outrun the backend
        awaits :meth:`room` first, as ``route``/``estimate`` do.

        ``parent`` carries the caller's tracing decision for this
        request: its sampled span (the TCP server's ``serve.request``),
        or ``NOOP_SPAN`` for a request it chose not to trace.  ``None``
        leaves head sampling to the broker.
        """
        lane = self._open_lane(kind)
        loop = self._bind_loop()
        pairs = list(pairs)
        if not pairs:
            served = loop.create_future()
            served.set_result([])
            return served
        # Same validation authority as every other serve path.
        backend = self._router if kind == _ROUTE else self._estimator
        backend.validate_pairs(pairs)
        index = operator.index
        pairs = [(index(u), index(v)) for u, v in pairs]
        if len(lane.queue) >= self._max_pending:
            raise ServingError(
                f"the {kind} lane already holds {self._max_pending} "
                "waiting submissions; await room() before submit()")
        sub = _Submission(pairs, loop.create_future(), loop.time())
        submit_span = None
        if parent is None:
            tracer = sampled_request_tracer()
            if tracer is not None:
                submit_span = tracer.span("serve.submit")
        elif parent is not NOOP_SPAN:
            submit_span = parent.child("serve.submit")
        if submit_span is not None:
            submit_span.set(lane=kind, pairs=len(pairs))
            sub.span = submit_span.child("serve.queue")
        lane.queue.append(sub)
        lane.queued_pairs += len(pairs)
        lane.admitted += 1
        self.metrics.record_submit()
        # A running fused call closes the next window when it ends; an
        # idle lane needs its timer armed by the window's first arrival,
        # or the window closed now by the arrival that fills it.
        if not lane.busy:
            self._schedule(lane)
        if submit_span is not None:
            submit_span.finish()
        return sub.future

    # -- windows -------------------------------------------------------
    def _schedule(self, lane: _Lane) -> None:
        """Idle lane: dispatch what is queued if the window is full (or
        the broker is flushing), else close it ``max_wait`` after its
        first arrival."""
        if lane.queued_pairs >= self.max_batch or self._closed:
            self._dispatch(lane)
        elif lane.queue and lane.timer is None:
            # call_at, also for a time already past (max_wait 0, or a
            # window that aged while the last call ran): what arrives in
            # this pass of the loop still joins
            lane.timer = self._loop.call_at(
                lane.queue[0].enqueued_at + self.max_wait,
                self._dispatch, lane)

    def _dispatch(self, lane: _Lane) -> None:
        """Take one window off the lane and serve it off-loop.

        The dispatch boundary is where the latency decomposition is
        recorded: everything before ``dispatch_start`` is queue-wait
        (per submission), everything after is service time (shared by
        the whole fused window).
        """
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        queue = lane.queue
        live: List[_Submission] = []
        fused: List[Tuple[int, int]] = []
        while queue and len(fused) < self.max_batch:
            sub = queue.popleft()
            lane.queued_pairs -= len(sub.pairs)
            if sub.future.done():
                # abandoned by its client: dropped here, and nobody
                # else in the window notices
                lane.settled += 1
                lane.progress.set()
                if sub.span is not None:
                    sub.span.finish(error="cancelled")
            else:
                live.append(sub)
                fused.extend(sub.pairs)
        self._wake_room(lane)
        if not live:
            return
        self.metrics.record_dispatch(len(fused))
        dispatch_start = self._loop.time()
        # Span bookkeeping: the window span parents to the first
        # *sampled* submission's queue span (one connected trace per
        # sampled request; other sampled submissions in the window
        # link via their own queue spans), and each queue span ends
        # now with its measured wait.  Windows with no sampled
        # submission cost nothing — that is the sampling contract.
        dispatch_span = None
        # lane.serve is captured here, before the executor hop: an
        # in-process swap rebinding it mid-window cannot split the
        # window across artifacts.
        serve = lane.serve
        for sub in live:
            if sub.span is None:
                continue
            if dispatch_span is None:
                dispatch_span = sub.span.child(
                    "serve.dispatch",
                    {"lane": lane.name, "fused_size": len(fused),
                     "submissions": len(live)})
            sub.span.finish(queue_wait_s=round(
                dispatch_start - sub.enqueued_at, 6))
        if dispatch_span is not None:
            def serve(pairs, _serve=serve, _parent=dispatch_span):
                # Executor thread: contextvars don't follow, so the
                # worker span links to its parent explicitly.
                worker_span = _parent.child("serve.worker")
                try:
                    return _serve(pairs)
                finally:
                    worker_span.finish()
        lane.busy = True
        self._loop.run_in_executor(
            self._executor, serve, fused).add_done_callback(partial(
                self._demux, lane, live, dispatch_start, dispatch_span))

    def _demux(self, lane: _Lane, live: List[_Submission],
               dispatch_start: float, dispatch_span,
               served: "asyncio.Future") -> None:
        """A fused call ended: hand every submission its slice (or the
        window's error), then dispatch or time the next window."""
        lane.busy = False
        try:
            generation, results = served.result()
        except Exception as exc:
            # Window-scoped failure: every submission in this window
            # shares the cause; the lane keeps serving the next one.
            if dispatch_span is not None:
                dispatch_span.finish(error=type(exc).__name__)
            failed = [sub.future for sub in live
                      if not sub.future.done()]
            for future in failed:
                future.set_exception(exc)
            self.metrics.record_failure(len(failed))
        else:
            if lane.name == _ROUTE:
                self.metrics.record_window_generation(generation)
            demux_span = (dispatch_span.child("serve.demux")
                          if dispatch_span is not None else None)
            now = self._loop.time()
            latencies: List[float] = []
            queue_waits: List[float] = []
            offset = 0
            for sub in live:
                end = offset + len(sub.pairs)
                if not sub.future.done():
                    sub.future.set_result(results[offset:end])
                    latencies.append(now - sub.enqueued_at)
                    queue_waits.append(dispatch_start - sub.enqueued_at)
                offset = end
            self.metrics.record_window(latencies, queue_waits,
                                       now - dispatch_start)
            if demux_span is not None:
                demux_span.finish()
                dispatch_span.finish(generation=generation)
        lane.settled += len(live)
        lane.progress.set()
        self._schedule(lane)

    # -- lifecycle -----------------------------------------------------
    async def drain(self) -> None:
        """Wait until every currently outstanding submission has
        resolved (without closing).  Useful between load phases."""
        for lane in self._lanes.values():
            target = lane.admitted
            while lane.settled < target:
                lane.progress.clear()
                await lane.progress.wait()

    async def aclose(self) -> None:
        """Graceful shutdown: reject new submissions, flush every
        queued window, then close owned backends.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes.values():
            # closed: windows no longer wait to fill, and each fused
            # call's end dispatches the next until the lane is empty
            if not lane.busy:
                self._schedule(lane)
            # submitters still waiting for room get the closed error
            self._wake_room(lane)
        await self.drain()
        self._executor.shutdown(wait=True)
        for backend in self._own:
            close = getattr(backend, "close", None)
            if callable(close):
                close()
        self._own = []

    async def __aenter__(self) -> "RequestBroker":
        return self

    async def __aexit__(self, *_exc) -> bool:
        await self.aclose()
        return False


def pooled_broker(router=None, estimator=None, *, workers: int = 0,
                  registry=None, **broker_kwargs) -> RequestBroker:
    """Construct a broker, optionally over fresh ``RouterPool``s.

    The one place the wrap-in-pools-then-broker sequence lives (both
    ``SchemePipeline.serve_async`` and the CLI ``serve`` path call
    it): with ``workers > 0`` each given artifact is wrapped in a
    :class:`~repro.serving.RouterPool` the broker *owns* (closed by
    ``aclose()``); any failure mid-construction closes the pools
    already opened instead of leaving orphaned worker processes.

    ``registry`` (optional) is threaded through to both the broker and
    the pools, so one :class:`~repro.telemetry.MetricsRegistry` holds
    the whole serve path — this is what ``--metrics-port`` exposes.
    """
    from ..serving import RouterPool

    own = []
    try:
        if workers:
            if router is not None:
                router = RouterPool(router, workers=workers,
                                    registry=registry)
                own.append(router)
            if estimator is not None:
                estimator = RouterPool(estimator, workers=workers,
                                       registry=registry)
                own.append(estimator)
        return RequestBroker(router=router, estimator=estimator,
                             own=own, registry=registry,
                             **broker_kwargs)
    except BaseException:
        for pool in own:
            pool.close()
        raise

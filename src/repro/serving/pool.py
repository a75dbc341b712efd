"""`RouterPool`: process-parallel batch serving over one shared artifact.

One pool = one served artifact (the dense routing plane or the compiled
estimation) + N persistent worker processes.  The artifact is shipped
once through shared memory (``shared.py``), each call to
:meth:`RouterPool.route_many` / :meth:`RouterPool.estimate_many` deals
the batch round-robin into shards, workers serve their shards with the
*same* single-process batch methods the artifact already has, results
travel back as packed columns (``columnar.py``), and the parent merges
them in input order.  Because those batch methods are per-query
deterministic, the merged output is bit-identical to calling the
artifact directly — the contract pinned by
``tests/serving/test_pool_equivalence.py``.

Lifecycle: the pool is a context manager with deterministic shutdown —
``close()`` sentinels every worker, joins with a timeout, terminates
stragglers, drains both queues and unlinks the shared memory.  It is
idempotent and also runs from the constructor's error path, so no
exception leaks processes or shm segments.

Error model: batch *input* errors are raised parent-side by the shared
``validate_pairs`` prepass before anything is dispatched — same
exception, same offending pair as the single-process path, and a bad
query can never take a worker down.  Anything a worker itself raises
mid-shard travels back over the result queue and re-raises in the
caller; a worker *dying* (signal, OOM) surfaces as
:class:`~repro.exceptions.ServingError` instead of a hang.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import operator
import os
import pickle
import queue as _queue
import signal
import threading
import time
import weakref
from typing import List, Optional, Sequence, Tuple

from ..core.compiled import CompiledEstimation, CompiledScheme, _as_batch
from ..core.dense import DenseRoutingPlane
from ..exceptions import ParameterError, ServingError
from ..telemetry.registry import MetricsRegistry
from ..telemetry.trace import maybe_span
from . import columnar
from .shared import ArtifactHandle, attach_from_init

#: Shards each batch is dealt into per worker.  Workers pull shards off
#: one shared queue, so oversharding both load-balances and *streams*:
#: the parent decodes early shards while workers still serve later ones.
_SHARDS_PER_WORKER = 4

#: How long ``close()`` waits for workers to drain before terminating.
_JOIN_TIMEOUT = 5.0

#: How long workers get to attach + report ready at pool start.
_READY_TIMEOUT = 60.0

#: Every pool not yet closed, so interpreter shutdown (and only
#: shutdown — the set holds weak refs) can tear down stragglers whose
#: owners never reached ``close()``: no leaked worker processes or shm
#: segments after an uncaught exception unwinds past the pool.
_OPEN_POOLS: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _close_leftover_pools() -> None:  # pragma: no cover - process exit
    for pool in list(_OPEN_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _portable(exc: BaseException) -> BaseException:
    """An exception safe to ship over the result queue.  ``mp.Queue``
    pickles in a background feeder thread where failures vanish and
    the parent would hang waiting, so the pickle check happens here."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServingError(f"worker error (unpicklable "
                            f"{type(exc).__name__}): {exc}")


def _check_served(artifact, what: str) -> None:
    """Refuse anything but a served artifact.  The flat
    :class:`CompiledScheme` is the dense plane's oracle, not a served
    tier, so it gets its own message."""
    if isinstance(artifact, CompiledScheme):
        raise ParameterError(
            f"{what} serves the dense plane, not a CompiledScheme "
            "(the Section-6 oracle): pass "
            "DenseRoutingPlane.from_compiled(scheme)")
    if not isinstance(artifact, (DenseRoutingPlane, CompiledEstimation)):
        raise ParameterError(
            f"{what} serves compiled artifacts (DenseRoutingPlane/"
            f"CompiledEstimation), got {type(artifact).__name__}")


#: Task-queue control message marking an artifact hot-swap (the other
#: control message is the plain ``None`` shutdown sentinel).
_SWAP = "__swap__"


def _serve_shards(artifact, task_q, result_q) -> None:
    """Serve shard tasks until the ``None`` sentinel.  Every serving
    exception is shipped back as that shard's result — a failing shard
    fails one call, never the worker.

    A ``(_SWAP, swap_id, init)`` control message replaces the served
    artifact in place: the worker attaches the new segment and acks
    with ``("swapped", pid, swap_id)``.  The parent enqueues one swap
    message per worker on the shared queue; a worker that already
    handled this ``swap_id`` re-enqueues the message (with a short
    sleep, so it does not immediately steal it back) for a sibling
    still waiting — every worker acks exactly once.
    """
    seen_swaps = set()
    while True:
        task = task_q.get()
        if task is None:
            return
        if task[0] is _SWAP or task[0] == _SWAP:
            _tag, swap_id, init = task
            if swap_id in seen_swaps:
                task_q.put(task)
                time.sleep(0.002)
                continue
            seen_swaps.add(swap_id)
            try:
                artifact = attach_from_init(init)
            except BaseException as exc:
                result_q.put(("swap-err", os.getpid(),
                              (swap_id, _portable(exc))))
                continue
            result_q.put(("swapped", os.getpid(), swap_id))
            continue
        call_id, shard_id, method, pairs, kwargs = task
        try:
            out = getattr(artifact, method)(pairs, **kwargs)
            result_q.put(("ok", (call_id, shard_id),
                          columnar.encode_result(out)))
        except BaseException as exc:
            result_q.put(("err", (call_id, shard_id), _portable(exc)))
        del task, pairs


def _worker_main(init, task_q, result_q) -> None:
    """Worker body: attach the shared artifact once, report readiness,
    serve until the sentinel."""
    # The parent owns shutdown: on Ctrl-C the whole foreground process
    # group gets SIGINT, and workers dying mid-teardown with
    # KeyboardInterrupt tracebacks would race the parent's own
    # close() (sentinels, joins, shm unlink).  Workers ignore the
    # signal; the parent's close() path retires them deterministically.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass
    try:
        artifact = attach_from_init(init)
    except BaseException as exc:
        result_q.put(("fatal", os.getpid(), _portable(exc)))
        return
    result_q.put(("ready", os.getpid(), None))
    _serve_shards(artifact, task_q, result_q)


class RouterPool:
    """Serve ``route_many``/``estimate_many`` from N worker processes
    sharing one compiled artifact.

    >>> with RouterPool(dense, workers=4) as pool:
    ...     routes = pool.route_many(pairs)      # == dense.route_many(pairs)

    Calls are thread-safe but serialized: one batch is in flight at a
    time (parallelism lives *inside* the batch); multi-threaded
    callers queue up on an internal lock.

    Parameters
    ----------
    artifact:
        A :class:`DenseRoutingPlane` or :class:`CompiledEstimation`.
        Routing pools answer :meth:`route_many`, estimation pools
        :meth:`estimate_many`; asking the wrong kind raises
        :class:`~repro.exceptions.ParameterError`.
    workers:
        Worker process count (default: ``os.cpu_count()``).  ``1`` is a
        real single-worker pool — useful for measuring pool overhead;
        for latency-sensitive small batches call the artifact directly.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default).
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` for the
        pool's dispatch/swap instruments (default: a private registry
        per pool).  A routing and an estimation pool may share one
        registry — series carry a ``role`` label, ``route`` or
        ``estimate`` from the artifact kind.
    """

    def __init__(self, artifact, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        # State first, so close() is safe from any failure below.
        self._closed = False
        self._procs: List = []
        self._handle: Optional[ArtifactHandle] = None
        self._task_q = None
        self._result_q = None
        self._call_counter = itertools.count()
        self._swap_counter = itertools.count(1)
        self._generation = 0
        #: Set to an error string when a swap left workers on mixed
        #: artifact generations; every serve fails fast from then on.
        self._poisoned: Optional[str] = None
        # One batch in flight at a time: concurrent _serve calls would
        # steal each other's shard results off the shared result queue
        # and deadlock.  Caller threads serialize here; the batch
        # itself is already parallel inside.
        self._serve_lock = threading.Lock()

        _check_served(artifact, "RouterPool")
        if workers is None:
            workers = os.cpu_count() or 1
        workers = int(workers)
        if workers < 1:
            raise ParameterError(
                f"RouterPool needs at least one worker, got {workers}")
        self._artifact = artifact
        self._role = ("estimate" if isinstance(artifact,
                                               CompiledEstimation)
                      else "route")
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        label = {"role": self._role}
        self._m_dispatches = reg.counter(
            "repro_pool_dispatches_total",
            "sharded batches served by the pool",
            labelnames=("role",)).labels(**label)
        self._m_pairs = reg.counter(
            "repro_pool_pairs_total",
            "total pairs served across pool batches",
            labelnames=("role",)).labels(**label)
        self._m_shards = reg.counter(
            "repro_pool_shards_total",
            "shard tasks dispatched to workers",
            labelnames=("role",)).labels(**label)
        self._m_swaps = reg.counter(
            "repro_pool_swaps_total",
            "successful artifact hot-swaps",
            labelnames=("role",)).labels(**label)
        self._m_swap_failures = reg.counter(
            "repro_pool_swap_failures_total",
            "hot-swaps that failed (pool poisoned)",
            labelnames=("role",)).labels(**label)
        self._m_generation = reg.gauge(
            "repro_pool_generation",
            "artifact generation currently serving",
            labelnames=("role",)).labels(**label)
        self._m_workers = reg.gauge(
            "repro_pool_workers", "live worker process count",
            labelnames=("role",)).labels(**label)
        self._m_workers.set_function(
            lambda procs=self._procs: sum(
                1 for p in procs if p.is_alive()))
        try:
            ctx = mp.get_context(start_method)
        except ValueError:
            raise ParameterError(
                f"unknown start method {start_method!r}; this "
                f"platform offers {mp.get_all_start_methods()}"
            ) from None
        self._start_method = ctx.get_start_method()
        try:
            self._handle = ArtifactHandle(artifact)
            self._task_q = ctx.Queue()
            self._result_q = ctx.Queue()
            for _ in range(workers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(self._handle.init, self._task_q,
                          self._result_q),
                    daemon=True)
                proc.start()
                self._procs.append(proc)
            self._await_ready()
        except BaseException:
            self.close()
            raise
        _OPEN_POOLS.add(self)

    # -- introspection -------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._procs)

    @property
    def start_method(self) -> str:
        return self._start_method

    def validate_pairs(self, pairs: Sequence) -> None:
        """The artifact's batch-input prepass, re-exposed so front-ends
        (e.g. the async broker) can fail a request at *submission* time
        with the exact exception any serve path would raise."""
        self._artifact.validate_pairs(pairs)

    @property
    def pids(self) -> List[int]:
        """Worker process ids (empty once closed), for monitoring and
        the lifecycle tests."""
        return [p.pid for p in self._procs]

    @property
    def shm_name(self) -> Optional[str]:
        """Shared-memory segment name, for lifecycle tests and
        external monitoring."""
        return self._handle.shm_name if self._handle else None

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """JSON-able counter snapshot read from the pool's registry
        instruments (schema pinned by the telemetry tests)."""
        return {
            "role": self._role,
            "workers": self.workers,
            "generation": self._generation,
            "dispatches": int(self._m_dispatches.value),
            "pairs": int(self._m_pairs.value),
            "shards": int(self._m_shards.value),
            "swaps": int(self._m_swaps.value),
            "swap_failures": int(self._m_swap_failures.value),
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"RouterPool(workers={self.workers}, "
                f"start_method={self._start_method!r}, {state})")

    # -- serving -------------------------------------------------------
    def route_many(self, pairs: Sequence[Tuple[int, int]],
                   max_hops: Optional[int] = None) -> List:
        """Sharded :meth:`DenseRoutingPlane.route_many`; bit-identical,
        input order preserved."""
        kwargs = {} if max_hops is None else {"max_hops": max_hops}
        return self._serve("_route_many_validated", pairs, kwargs,
                           DenseRoutingPlane)

    def estimate_many(self, pairs: Sequence[Tuple[int, int]]
                      ) -> List[float]:
        """Sharded :meth:`CompiledEstimation.estimate_many`."""
        return self._serve("_estimate_many_validated", pairs, {},
                           CompiledEstimation)

    def route_many_tagged(self, pairs: Sequence[Tuple[int, int]],
                          max_hops: Optional[int] = None
                          ) -> Tuple[int, List]:
        """:meth:`route_many` returning ``(generation, results)``.

        The generation is captured under the serve lock, so every
        result in the batch is attributable to exactly that artifact
        generation — the invariant the hot-swap tests pin.
        """
        kwargs = {} if max_hops is None else {"max_hops": max_hops}
        return self._serve("_route_many_validated", pairs, kwargs,
                           DenseRoutingPlane,
                           tag_generation=True)

    def estimate_many_tagged(self, pairs: Sequence[Tuple[int, int]]
                             ) -> Tuple[int, List[float]]:
        """:meth:`estimate_many` returning ``(generation, results)``
        (see :meth:`route_many_tagged`)."""
        return self._serve("_estimate_many_validated", pairs, {},
                           CompiledEstimation, tag_generation=True)

    def _route_many_validated(self, pairs: Sequence[Tuple[int, int]],
                              max_hops: Optional[int] = None) -> List:
        """:meth:`route_many` minus the input prepass — the same
        contract (and name) the compiled artifacts expose, so a
        front-end that already validated at submission (the async
        broker) does not re-validate every fused window."""
        kwargs = {} if max_hops is None else {"max_hops": max_hops}
        return self._serve("_route_many_validated", pairs, kwargs,
                           DenseRoutingPlane,
                           validated=True)

    def _estimate_many_validated(self, pairs: Sequence[Tuple[int, int]]
                                 ) -> List[float]:
        """:meth:`estimate_many` minus the input prepass (see
        :meth:`_route_many_validated`)."""
        return self._serve("_estimate_many_validated", pairs, {},
                           CompiledEstimation, validated=True)

    def _route_many_validated_tagged(
            self, pairs: Sequence[Tuple[int, int]],
            max_hops: Optional[int] = None) -> Tuple[int, List]:
        """Pre-validated + generation-tagged serve — what the async
        broker dispatches fused windows through, so each window is
        attributed to the artifact generation that actually served it."""
        kwargs = {} if max_hops is None else {"max_hops": max_hops}
        return self._serve("_route_many_validated", pairs, kwargs,
                           DenseRoutingPlane,
                           validated=True, tag_generation=True)

    def _estimate_many_validated_tagged(
            self, pairs: Sequence[Tuple[int, int]]
    ) -> Tuple[int, List[float]]:
        """Estimation sibling of :meth:`_route_many_validated_tagged`."""
        return self._serve("_estimate_many_validated", pairs, {},
                           CompiledEstimation, validated=True,
                           tag_generation=True)

    def _serve(self, method: str, pairs: Sequence, kwargs: dict,
               required_cls, validated: bool = False,
               tag_generation: bool = False) -> List:
        if self._closed:
            raise ServingError(
                f"cannot call {method} on a closed RouterPool")
        if self._poisoned is not None:
            raise ServingError(self._poisoned)
        # Fail fast on a degraded pool: surviving workers *could* steal
        # a dead sibling's shards off the shared queue, but serving at
        # reduced capacity silently is worse than telling the caller.
        self._check_liveness()
        if not isinstance(self._artifact, required_cls):
            raise ParameterError(
                f"{method} needs a {required_cls.__name__}; this pool "
                f"serves a {type(self._artifact).__name__}")
        # Same validator, parent-side, *before* any dispatch: identical
        # exceptions to the single-process path, and workers only ever
        # see well-formed shards — which is why dispatch goes to the
        # ``*_validated`` entry points (no re-validation per shard).
        # ``validated=True`` callers already ran this exact prepass
        # (and normalized to plain-int tuples) at their own boundary.
        if not validated:
            pairs = _as_batch(pairs)
            self._artifact.validate_pairs(pairs)
            # Normalize to plain-int tuples before sharding: an exotic
            # pair object that validates but cannot pickle would
            # otherwise die silently in the task queue's feeder thread
            # and hang the call — and plain ints pickle cheapest.
            index = operator.index
            pairs = [(index(u), index(v)) for u, v in pairs]
        if len(pairs) == 0:
            return (self._generation, []) if tag_generation else []
        with self._serve_lock:
            # Re-check under the lock: close() (and swap failure) tear
            # down while *holding* it, so a call that raced past the
            # fast checks above and then won the lock afterwards must
            # not touch the dismantled queues.
            if self._closed:
                raise ServingError(
                    f"cannot call {method} on a closed RouterPool")
            if self._poisoned is not None:
                raise ServingError(self._poisoned)
            results = self._dispatch(method, pairs, kwargs)
            if tag_generation:
                # Captured under the lock: swaps serialize on it, so
                # the whole batch was served by exactly this
                # generation.
                return (self._generation, results)
            return results

    def _dispatch(self, method: str, pairs: Sequence,
                  kwargs: dict) -> List:
        # Round-robin: shard j serves input positions j, j + S, j + 2S...
        # Any partition would do (results merge back by position), and
        # this one balances every input distribution.
        num_shards = min(len(pairs), len(self._procs) * _SHARDS_PER_WORKER)
        call_id = next(self._call_counter)
        self._m_dispatches.inc()
        self._m_pairs.inc(len(pairs))
        self._m_shards.inc(num_shards)
        for shard_id in range(num_shards):
            self._task_q.put((call_id, shard_id, method,
                              pairs[shard_id::num_shards], kwargs))
        results: List = [None] * len(pairs)
        errors = {}
        outstanding = num_shards
        while outstanding:
            tag, key, payload = self._next_result()
            if tag in ("ready", "fatal"):  # late startup noise
                continue
            got_call, shard_id = key
            if got_call != call_id:  # stale shard from an aborted call
                continue
            outstanding -= 1
            if tag == "err":
                errors[shard_id] = payload
            else:
                results[shard_id::num_shards] = \
                    columnar.decode_result(payload)
        if errors:
            # Deterministic pick: the failing shard holding the
            # earliest input positions (shards are emitted in order).
            raise errors[min(errors)]
        return results

    def _next_result(self):
        while True:
            try:
                return self._result_q.get(timeout=0.25)
            except _queue.Empty:
                self._check_liveness()

    def _check_liveness(self) -> None:
        dead = [p for p in self._procs if not p.is_alive()]
        if dead:
            codes = ", ".join(f"pid {p.pid} exit {p.exitcode}"
                              for p in dead)
            raise ServingError(
                f"{len(dead)} pool worker(s) died while serving "
                f"({codes}); close the pool and open a new one")

    def _await_ready(self) -> None:
        pending = len(self._procs)
        deadline = time.monotonic() + _READY_TIMEOUT
        while pending:
            try:
                tag, _who, info = self._result_q.get(timeout=0.25)
            except _queue.Empty:
                self._check_liveness()
                if time.monotonic() > deadline:  # pragma: no cover
                    raise ServingError(
                        "pool workers failed to start in time")
                continue
            if tag == "fatal":
                raise ServingError(
                    "pool worker failed to attach the shared "
                    "artifact") from info
            if tag == "ready":
                pending -= 1

    # -- hot swap ------------------------------------------------------
    @property
    def generation(self) -> int:
        """Artifact generation counter: ``0`` for the artifact the pool
        opened with, ``+1`` per successful :meth:`swap`."""
        return self._generation

    def swap(self, artifact, parent_span=None) -> float:
        """Atomically replace the served artifact in every worker.

        Returns the swap latency in seconds.  The swap serializes with
        serving on the pool's one-batch-at-a-time lock, which is the
        whole zero-downtime argument: any batch dispatched before the
        swap completes entirely on the old artifact, any batch after
        it entirely on the new one — no batch ever sees both, and
        :meth:`route_many_tagged` exposes which generation served it.

        The new artifact ships in its own shared-memory segment; once
        every worker acks, the old segment unlinks and the generation
        counter bumps.

        A worker failing to attach mid-swap leaves the pool on mixed
        generations; it is **poisoned** — every later call raises
        :class:`~repro.exceptions.ServingError` — and must be closed.
        """
        if self._closed:
            raise ServingError("cannot swap a closed RouterPool")
        if self._poisoned is not None:
            raise ServingError(self._poisoned)
        _check_served(artifact, "RouterPool.swap")
        if type(artifact) is not type(self._artifact):
            raise ParameterError(
                f"cannot swap a {type(artifact).__name__} into a "
                f"pool serving a {type(self._artifact).__name__}: "
                "the route/estimate surface would change under the "
                "callers")
        swap_span = maybe_span(
            "pool.swap", parent=parent_span,
            attrs={"role": self._role, "workers": len(self._procs)})
        start = time.perf_counter()
        with self._serve_lock:
            if self._closed:
                raise ServingError("cannot swap a closed RouterPool")
            self._check_liveness()
            new_handle = ArtifactHandle(artifact)
            # One rebind span per worker, finished as its ack arrives:
            # the parent-side observation of each worker's re-attach
            # window (enqueue of the swap message to that pid's ack).
            rebind_spans = {p.pid: swap_span.child(
                "pool.rebind", {"pid": p.pid}) for p in self._procs}
            try:
                swap_id = next(self._swap_counter)
                for _ in self._procs:
                    self._task_q.put((_SWAP, swap_id, new_handle.init))
                acked = set()
                while len(acked) < len(self._procs):
                    tag, who, payload = self._next_result()
                    if tag == "swapped" and payload == swap_id:
                        acked.add(who)
                        span = rebind_spans.pop(who, None)
                        if span is not None:
                            span.finish()
                    elif tag == "swap-err" and payload[0] == swap_id:
                        span = rebind_spans.pop(who, None)
                        if span is not None:
                            span.finish(error="attach-failed")
                        raise ServingError(
                            f"worker pid {who} failed to attach the "
                            "new artifact during swap"
                        ) from payload[1]
            except BaseException as exc:
                self._poisoned = (
                    "RouterPool is poisoned: a hot swap failed midway "
                    f"({exc}); workers may serve mixed artifact "
                    "generations — close the pool")
                self._m_swap_failures.inc()
                for span in rebind_spans.values():
                    span.finish(error="swap-aborted")
                swap_span.finish(error=type(exc).__name__)
                new_handle.close()
                raise
            old_handle, self._handle = self._handle, new_handle
            old_handle.close()
            self._artifact = artifact
            self._generation += 1
            self._m_swaps.inc()
            self._m_generation.set(self._generation)
        latency = time.perf_counter() - start
        swap_span.finish(generation=self._generation,
                         swap_latency_s=round(latency, 6))
        return latency

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Deterministic shutdown; idempotent, exception-safe.

        Sentinels every worker, joins with a timeout, escalates to
        ``terminate``/``kill`` for stragglers, drains and closes both
        queues, then unlinks the shared memory segment.  After ``close()``,
        ``multiprocessing.active_children()`` contains none of the
        pool's workers and the shm name no longer resolves.

        ``close()`` serializes with in-flight serving: it marks the
        pool closed (new calls fail fast), then waits on the serve
        lock, so a batch already dispatched completes — results,
        errors and all — before any queue or worker is torn down.  It
        used to race that dispatch and could yank the queues out from
        under a caller mid-batch.
        """
        if self._closed:
            return
        self._closed = True
        _OPEN_POOLS.discard(self)
        with self._serve_lock:
            self._teardown()

    def _teardown(self) -> None:
        if self._task_q is not None:
            for _ in self._procs:
                try:
                    self._task_q.put(None)
                except Exception:  # pragma: no cover - queue torn down
                    break
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - hard hang
                proc.kill()
                proc.join(timeout=1.0)
        for q in (self._task_q, self._result_q):
            if q is None:
                continue
            try:
                while True:
                    q.get_nowait()
            except Exception:
                pass
            try:
                q.close()
                # Never join_thread() here: with the workers gone there
                # is no reader, so a feeder thread still flushing large
                # buffered shards into the full pipe would block it —
                # and this close() — forever.  Dropping in-flight data
                # is exactly right at shutdown.
                q.cancel_join_thread()
            except Exception:  # pragma: no cover
                pass
        self._task_q = self._result_q = None
        if self._handle is not None:
            self._handle.close()
        for proc in self._procs:
            try:
                proc.close()
            except Exception:  # pragma: no cover
                pass
        self._procs = []

    def __enter__(self) -> "RouterPool":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - safety net only
        try:
            self.close()
        except Exception:
            pass

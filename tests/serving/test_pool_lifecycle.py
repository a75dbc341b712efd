"""Worker lifecycle robustness: deterministic shutdown, no leaks.

`RouterPool` promises that no code path — normal exit, exception
inside the ``with`` block, constructor failure, double close, even a
SIGKILLed worker — leaves behind worker processes
(``multiprocessing.active_children()``) or shared-memory segments
(the segment name must stop resolving after close).
"""

import multiprocessing as mp
import os
import signal
import threading
import time

import pytest

from repro.exceptions import ParameterError, ServingError
from repro.serving import RouterPool

from serving_cases import build_case

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None


def _assert_gone(pids, timeout=5.0):
    """The pool's workers are no longer among our children."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = {p.pid for p in mp.active_children()}
        if not alive & set(pids):
            return
        time.sleep(0.05)
    raise AssertionError(
        f"leaked worker processes: {alive & set(pids)}")


def _assert_shm_unlinked(name):
    if name is None:
        return
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


@pytest.fixture(scope="module")
def case():
    return build_case("grid25-k2")


class TestShutdown:

    def test_context_exit_cleans_up(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            pids = pool.pids
            name = pool.shm_name
            assert len(pids) == 2
            batch = case["batches"]["random"][:50]
            assert pool.route_many(batch) == \
                case["expected_routes"]["random"][:50]
        assert pool.closed
        assert pool.pids == []
        _assert_gone(pids)
        _assert_shm_unlinked(name)

    def test_exception_in_with_block_cleans_up(self, case,
                                               start_method):
        with pytest.raises(RuntimeError, match="boom"):
            with RouterPool(case["compiled"], workers=2,
                            start_method=start_method) as pool:
                pids = pool.pids
                name = pool.shm_name
                raise RuntimeError("boom")
        _assert_gone(pids)
        _assert_shm_unlinked(name)

    def test_close_is_idempotent(self, case, start_method):
        pool = RouterPool(case["compiled"], workers=1,
                          start_method=start_method)
        pool.close()
        pool.close()
        with pytest.raises(ServingError, match="closed"):
            pool.route_many([(0, 1)])
        with pytest.raises(ServingError, match="closed"):
            pool.estimate_many([(0, 1)])

    def test_constructor_failure_leaks_nothing(self, case):
        before = {p.pid for p in mp.active_children()}
        with pytest.raises(ParameterError, match="not a CompiledScheme"):
            RouterPool(case["flat"], workers=2)
        with pytest.raises(ParameterError, match="at least one"):
            RouterPool(case["compiled"], workers=0)
        with pytest.raises(ParameterError, match="start method"):
            RouterPool(case["compiled"], workers=1,
                       start_method="teleport")
        with pytest.raises(ParameterError, match="compiled artifacts"):
            RouterPool(object())
        after = {p.pid for p in mp.active_children()}
        assert after <= before

    def test_estimation_pool_cleans_up_too(self, case, start_method):
        with RouterPool(case["estimation"], workers=2,
                        start_method=start_method) as pool:
            pids = pool.pids
            name = pool.shm_name
            pool.estimate_many(case["batches"]["single"])
        _assert_gone(pids)
        _assert_shm_unlinked(name)


class TestSignals:

    def test_workers_ignore_sigint(self, case, start_method):
        """Ctrl-C hits the whole foreground process group; workers must
        shrug it off so the parent's close() drives one deterministic
        teardown instead of racing worker KeyboardInterrupt deaths."""
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            pids = pool.pids
            name = pool.shm_name
            for pid in pids:
                os.kill(pid, signal.SIGINT)
            time.sleep(0.2)
            # all workers alive and still serving after the signal
            batch = case["batches"]["random"][:50]
            assert pool.route_many(batch) == \
                case["expected_routes"]["random"][:50]
        _assert_gone(pids)
        _assert_shm_unlinked(name)


class TestWorkerDeath:

    def test_killed_worker_raises_not_hangs(self, case, start_method):
        with RouterPool(case["compiled"], workers=2,
                        start_method=start_method) as pool:
            pids = pool.pids
            name = pool.shm_name
            os.kill(pids[0], signal.SIGKILL)
            # liveness detection: ServingError, not a silent hang
            with pytest.raises(ServingError, match="died"):
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    pool.route_many(case["batches"]["random"])
        _assert_gone(pids)
        _assert_shm_unlinked(name)

    def test_worker_attach_failure_surfaces(self, case, fork_only,
                                            monkeypatch):
        """A worker that cannot attach the shared artifact reports a
        fatal handshake and the constructor raises ServingError (and
        cleans up) instead of hanging.  Fork-only: the sabotage is a
        parent-side patch the workers must inherit."""
        import repro.serving.pool as pool_mod

        def sabotage(_init):
            raise RuntimeError("attach sabotaged")

        monkeypatch.setattr(pool_mod, "attach_from_init", sabotage)
        before = {p.pid for p in mp.active_children()}
        with pytest.raises(ServingError, match="attach"):
            RouterPool(case["compiled"], workers=1,
                       start_method="fork")
        monkeypatch.undo()
        after = {p.pid for p in mp.active_children()}
        assert after <= before


class TestCloseServeRace:
    """close() must not tear down transport state under an in-flight
    dispatch.  The lock order is deterministic: whoever holds the
    serve lock finishes; the other side then observes the final state
    (completed results, or a fast ServingError — never a queue error
    or a hang)."""

    def test_close_waits_for_inflight_dispatch(self, case,
                                               start_method):
        """Deterministic interleaving: a serve holds the lock, close()
        runs concurrently.  The serve must complete with correct
        results; close() finishes afterwards."""
        pool = RouterPool(case["compiled"], workers=2,
                          start_method=start_method)
        pairs = case["batches"]["random"]
        results = {}
        entered = threading.Event()

        # Instrument _dispatch: it runs *inside* the serve lock, so
        # the sleep deterministically holds the lock while close()
        # contends for it.
        real_dispatch = pool._dispatch

        def instrumented(*args, **kwargs):
            entered.set()
            time.sleep(0.15)  # hold the serve window open
            return real_dispatch(*args, **kwargs)

        pool._dispatch = instrumented

        def serve():
            try:
                results["routes"] = pool.route_many(pairs)
            except ServingError as exc:
                results["error"] = exc

        t = threading.Thread(target=serve)
        t.start()
        assert entered.wait(5.0)
        pool.close()  # must block until the dispatch drains
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert results.get("routes") == case["expected_routes"]["random"]
        assert pool.closed

    def test_serve_during_teardown_fails_fast(self, case,
                                              start_method):
        """While close() holds the serve lock for teardown, a new
        serve call must raise ServingError immediately (the _closed
        flag is set before the lock is taken) — not deadlock, not
        touch half-torn-down queues."""
        pool = RouterPool(case["compiled"], workers=2,
                          start_method=start_method)
        pool._serve_lock.acquire()  # simulate an in-flight dispatch
        try:
            closer = threading.Thread(target=pool.close)
            closer.start()
            # close() set _closed first, then blocked on the lock
            deadline = time.monotonic() + 5.0
            while not pool.closed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.closed
            assert closer.is_alive()  # teardown still waiting on us
            with pytest.raises(ServingError):
                pool.route_many(case["batches"]["single"])
        finally:
            pool._serve_lock.release()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        _assert_shm_unlinked(pool.shm_name)

    def test_concurrent_serves_and_close(self, case, start_method):
        """Stress the race: many small batches from several threads
        while close() fires.  Every call either completes with correct
        results or raises ServingError — nothing leaks, nothing
        hangs."""
        pool = RouterPool(case["compiled"], workers=2,
                          start_method=start_method)
        pairs = case["batches"]["random"][:40]
        expected = case["compiled"].route_many(pairs)
        outcomes = []

        def hammer():
            for _ in range(50):
                try:
                    outcomes.append(pool.route_many(pairs) == expected)
                except ServingError:
                    outcomes.append(True)  # fast failure is fine
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        pool.close()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert all(outcomes)
        _assert_gone(pool.pids if not pool.closed else [])

    def test_close_then_serve_and_swap_fail_fast(self, case,
                                                 start_method):
        pool = RouterPool(case["compiled"], workers=2,
                          start_method=start_method)
        pool.close()
        start = time.monotonic()
        with pytest.raises(ServingError):
            pool.route_many(case["batches"]["single"])
        with pytest.raises(ServingError):
            pool.swap(case["compiled"])
        assert time.monotonic() - start < 1.0  # fail fast, no timeout

"""The server under test, in its own process.

The harness (``harness.py``) is the only load source; the system it
loads must not share its interpreter, or client-side work would be
billed to the server and the other way round.  :class:`ServerChild`
spawns one child hosting ``TrafficServer(RequestBroker(dense))`` and
drives it over a ``multiprocessing.Pipe``:

``start``   load generation *g* from the registry directory (sha256
            verified by ``ArtifactRegistry.load``), open the broker and
            the TCP listener on a kernel-chosen loopback port
``swap``    re-open the registry, load generation *g*, hot-swap it in
``report``  ``ru_maxrss``, CPU seconds, frames served
``stop``    graceful ``TrafficServer.shutdown()``, then exit 0

Only the public API is used: ``ArtifactRegistry``, ``RequestBroker``,
``TrafficServer``.  The child's stderr goes to a file the harness reads
back (its line count is ``harness.server_stderr_lines``).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import time

#: Broker window of the server under test — the package defaults,
#: written out because ``unloaded_p50_ms`` is set by ``max_wait_ms``.
MAX_BATCH = 128
MAX_WAIT_MS = 2.0

#: How long the harness waits for one reply before it gives up on the
#: child (a start at n=1000 loads and verifies in well under a second).
REPLY_TIMEOUT_S = 60.0


def main(conn, stderr_path: str, cpu: int) -> None:
    """Spawn target: redirect stderr, pin, serve pipe commands."""
    fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.dup2(fd, 2)
    os.close(fd)
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    asyncio.run(_serve(conn))


async def _serve(conn) -> None:
    from repro.dynamic import ArtifactRegistry
    from repro.server import RequestBroker, TrafficServer

    loop = asyncio.get_running_loop()
    readable = asyncio.Event()
    loop.add_reader(conn.fileno(), readable.set)
    server = None
    root = None
    try:
        while True:
            await readable.wait()
            readable.clear()
            while conn.poll():
                command, *args = conn.recv()
                try:
                    if command == "start":
                        root, generation = args
                        artifact = ArtifactRegistry(root).load(generation)
                        server = TrafficServer(RequestBroker(
                            router=artifact, max_batch=MAX_BATCH,
                            max_wait_ms=MAX_WAIT_MS))
                        await server.start()
                        reply = server.port
                    elif command == "swap":
                        start = time.perf_counter()
                        # a fresh registry object: the manifest this
                        # process read at ``start`` predates the publish
                        artifact = ArtifactRegistry(root).load(args[0])
                        loaded = time.perf_counter()
                        await server.swap_routing(artifact)
                        reply = (loaded - start,
                                 time.perf_counter() - loaded)
                    elif command == "report":
                        usage = resource.getrusage(resource.RUSAGE_SELF)
                        reply = {
                            "maxrss_kb": usage.ru_maxrss,
                            "cpu_s": usage.ru_utime + usage.ru_stime,
                            "frames": server.frames_served if server
                            else 0}
                    elif command == "stop":
                        if server is not None:
                            await server.shutdown()
                        conn.send(("ok", None))
                        return
                    else:
                        raise ValueError(f"unknown command {command!r}")
                except Exception as exc:   # reported to the harness
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", reply))
    finally:
        loop.remove_reader(conn.fileno())
        conn.close()


def child_pids() -> list:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def reap_children(grace_s: float = 5.0) -> int:
    """On every path out of a run: no process this one started outlives
    it.  Returns how many had to be killed.

    The one that otherwise does is ``multiprocessing``'s resource
    tracker: the first ``spawn`` (the server child here, the pool
    worker's shared memory in the traced run) starts it, and it only
    exits once this process has closed its end of the tracker's pipe —
    which the interpreter leaves to process exit, so the tracker is still
    running, and then a zombie nobody waits for, when the caller of the
    benchmark looks.  ``_stop`` closes the pipe and waits for it."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    killed = 0
    deadline = time.monotonic() + grace_s
    for pid in child_pids():
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() >= deadline:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                    killed += 1
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass                      # waited for elsewhere
    return killed


class ServerChild:
    """Parent-side handle: spawn, ``await call(...)``, stop or kill."""

    def __init__(self, stderr_path: str, cpu: int = -1) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self.stderr_path = stderr_path
        self.process = ctx.Process(
            target=main, args=(child_conn, stderr_path, cpu),
            name="e2e-server")
        self.process.start()
        child_conn.close()

    async def call(self, *message):
        """Send one command and await its reply without blocking the
        event loop (client traffic keeps flowing across a swap)."""
        loop = asyncio.get_running_loop()
        ready = asyncio.Event()
        self._conn.send(message)
        loop.add_reader(self._conn.fileno(), ready.set)
        try:
            await asyncio.wait_for(ready.wait(), REPLY_TIMEOUT_S)
        finally:
            loop.remove_reader(self._conn.fileno())
        status, reply = self._conn.recv()
        if status != "ok":
            raise RuntimeError(f"server child: {message[0]}: {reply}")
        return reply

    async def stop(self) -> int:
        """Graceful stop; returns the child's exit code."""
        await self.call("stop")
        self.process.join(REPLY_TIMEOUT_S)
        if self.process.is_alive():
            self.kill()
            return -9
        self._conn.close()
        return self.process.exitcode

    def kill(self) -> None:
        """Last resort on a harness failure: never leave it running."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(REPLY_TIMEOUT_S)
        self._conn.close()

    def stderr_lines(self) -> int:
        try:
            with open(self.stderr_path, "rb") as handle:
                return sum(1 for _ in handle)
        except FileNotFoundError:
            return 0

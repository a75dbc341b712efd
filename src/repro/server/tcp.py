"""Asyncio traffic server + client for the length-prefixed TSV protocol.

:class:`TrafficServer` fronts one :class:`RequestBroker` with
``asyncio.start_server`` (TCP) or ``asyncio.start_unix_server``
(unix-domain socket), so non-Python clients can drive the warm pool
with nothing but a socket and ``struct``.  A connection is one
coroutine: it reads whatever bytes the socket has, splits every
complete frame out of them and submits each request to the broker
without waiting for the answer, so one connection can keep many
requests in flight and the broker's micro-batch window sees *all*
connections' traffic at once — the server is itself a coalescing
funnel, not a per-connection pipeline.  Answers go out from the
broker futures' callbacks, every reply that resolves in one pass of the
event loop in one ``write``.  The coroutine waits in three places only:
for bytes, for room in a full broker lane, and for a client that is not
reading its replies (the transport's high-water mark) — the last two
are what bounds the work a pipelining client can pile up.

Error containment (pinned by ``tests/server/test_server_fuzz.py``):

* a malformed-but-framed request (bad op, odd arity, non-integer,
  oversized batch, non-UTF8 payload) gets a typed ``ERR`` frame and
  the connection keeps serving;
* a frame that destroys framing (oversized declared length, truncated
  stream) gets a final ``ERR`` with id ``-`` and the connection closes
  — the *server* and every other connection stay up;
* backend errors map to ``ERR`` codes: ``parameter`` for invalid
  queries, ``serving`` for shutdown/pool death, ``internal`` for
  anything unexpected;
* an answer too large for one frame (``MAX_FRAME_BYTES``) is an
  ``ERR protocol`` that names its size and asks for a smaller batch.

Graceful shutdown: :meth:`TrafficServer.shutdown` (wired to
SIGINT/SIGTERM by :meth:`install_signal_handlers`) stops accepting
connections, lets in-flight requests drain through the broker's
flush, answers anything submitted after the cut with ``ERR serving``,
then closes the broker (which closes owned pools, unlinking shm).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from functools import partial
from typing import Dict, List, Optional

from ..exceptions import ParameterError, ProtocolError, ReproError, \
    ServingError
from ..telemetry.trace import NOOP_SPAN, get_tracer
from . import protocol
from .broker import RequestBroker
from .protocol import FramePayloadError, FrameSplitter, Request

#: How long shutdown waits for in-flight connection tasks.
_DRAIN_TIMEOUT = 10.0

#: Most bytes taken from a socket per read — with the broker's
#: ``max_pending``, the bound on what one connection can have submitted
#: before it has to wait.
_READ_BYTES = 1 << 16

#: Request op -> broker lane.
_LANES = {"R": "route", "E": "estimate"}


def _error_frame(request_id: str, exc: Exception) -> str:
    """The typed ``ERR`` payload for anything serving a frame raised."""
    if isinstance(exc, ProtocolError):
        code = "protocol"
    elif isinstance(exc, ParameterError):
        code = "parameter"
    elif isinstance(exc, ServingError):
        code = "serving"
    else:
        code = "internal"
    message = (str(exc) if isinstance(exc, ReproError)
               else f"{type(exc).__name__}: {exc}")
    return protocol.encode_error(request_id, code, message)


class _Connection:
    """The reply side of one client connection: frames queued by
    whoever has an answer, written once per pass of the event loop."""

    __slots__ = ("task", "reading", "in_flight", "_writer", "_loop",
                 "_out", "_idle")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.task = asyncio.current_task()
        #: until the handler stops taking frames; shutdown cancels the
        #: task only while this holds (it may be parked in a read)
        self.reading = True
        self.in_flight = 0       #: requests submitted and not answered
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        self._out: List[bytes] = []
        self._idle: Optional[asyncio.Future] = None

    def send(self, request_id: str, payload: str) -> None:
        try:
            frame = protocol.encode_frame(payload)
        except ProtocolError as exc:
            # an answer too large for one frame still answers its
            # request, or the client waits on it forever
            frame = protocol.encode_frame(protocol.encode_error(
                request_id, "protocol", f"reply {exc}; split the batch"))
        self._out.append(frame)
        if len(self._out) == 1:
            # everything else answered in this pass joins the write
            self._loop.call_soon(self.flush)

    def flush(self) -> None:
        if self._out:
            if not self._writer.is_closing():
                self._writer.write(b"".join(self._out))
            self._out.clear()

    def answered(self) -> None:
        self.in_flight -= 1
        if not self.in_flight and self._idle is not None \
                and not self._idle.done():
            self._idle.set_result(None)

    async def idle(self) -> None:
        """Wait until every submitted request has been answered."""
        if self.in_flight:
            self._idle = self._loop.create_future()
            await self._idle


class TrafficServer:
    """Serve a :class:`RequestBroker` over TCP or a unix socket.

    >>> server = TrafficServer(broker, host="127.0.0.1", port=0)
    >>> await server.start()          # port 0 -> kernel picks; see .port
    >>> await server.serve_forever()  # returns after .shutdown()

    Parameters
    ----------
    broker:
        The :class:`RequestBroker` to serve.  The server owns it:
        :meth:`shutdown` closes it (set ``own_broker=False`` to keep
        it alive, e.g. when tests share one broker across servers).
    host / port:
        TCP listen address; ``port=0`` lets the kernel choose (read it
        back from :attr:`port`).  Ignored when ``unix_path`` is given.
    unix_path:
        Serve on a unix-domain socket at this path instead of TCP.
    max_pairs:
        Per-request pair cap handed to the protocol decoder.
    metrics_port:
        When set, also serve HTTP ``GET /metrics`` (Prometheus text
        exposition of :attr:`registry`) and ``GET /healthz`` on this
        port (``0`` = kernel-assigned; read back from
        :attr:`metrics_port`).  ``None`` (default) disables the
        endpoint.
    registry:
        The :class:`~repro.telemetry.MetricsRegistry` the endpoint and
        the ``STATS`` verb expose; defaults to the broker's own.
    """

    def __init__(self, broker: RequestBroker, host: str = "127.0.0.1",
                 port: int = 0, unix_path: Optional[str] = None,
                 max_pairs: int = protocol.MAX_PAIRS_PER_REQUEST,
                 own_broker: bool = True,
                 metrics_port: Optional[int] = None,
                 registry=None) -> None:
        self.broker = broker
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._max_pairs = max_pairs
        self._own_broker = own_broker
        self.registry = (registry if registry is not None
                         else broker.metrics.registry)
        self._metrics_port = metrics_port
        self._metrics_server: Optional[MetricsHTTPServer] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._shutting_down = asyncio.Event()
        self._shutdown_done = asyncio.Event()
        self._signal_tasks: set = set()
        self.connections_served = 0
        self.frames_served = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "TrafficServer":
        if self._server is not None:
            raise ServingError("server already started")
        if self._unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self._unix_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self._host,
                port=self._port)
        if self._metrics_port is not None:
            from ..telemetry.http import MetricsHTTPServer
            self._metrics_server = await MetricsHTTPServer(
                self.registry,
                host=self._host if self._unix_path is None
                else "127.0.0.1",
                port=self._metrics_port,
                health_fn=self._health_fields).start()
        return self

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port (``None`` for unix sockets)."""
        if self._server is None or self._unix_path is not None:
            return None
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound metrics HTTP port (``None`` when disabled)."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.port

    def _health_fields(self) -> Dict:
        fields: Dict = {
            "shutting_down": self._shutting_down.is_set(),
            "queue_depth": self.broker.metrics.queue_depth,
            "connections_served": self.connections_served,
        }
        if self.broker.serves_routing:
            fields["generation"] = self.broker.router_generation
        return fields

    @property
    def address(self) -> str:
        if self._unix_path is not None:
            return f"unix:{self._unix_path}"
        return f"{self._host}:{self.port}"

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM -> graceful :meth:`shutdown` (idempotent).

        The shutdown task is kept strongly referenced until done —
        asyncio only holds tasks weakly, and a GC'd shutdown would
        strand the drain halfway.
        """
        loop = asyncio.get_running_loop()

        def on_signal(sig: signal.Signals) -> None:
            task = asyncio.ensure_future(
                self.shutdown(reason=f"signal {sig.name}"))
            self._signal_tasks.add(task)
            task.add_done_callback(self._signal_tasks.discard)

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, on_signal, sig)

    async def serve_forever(self) -> None:
        """Serve until a :meth:`shutdown` has *completed* (drain
        included), so callers can report/exit the moment it returns."""
        if self._server is None:
            await self.start()
        await self._shutdown_done.wait()

    async def shutdown(self, reason: str = "") -> None:
        """Stop accepting, drain in-flight requests, close the broker.

        Connections still reading are cancelled after the listener
        closes: an idle one sits in its read forever otherwise.  A
        handler answers what it has already submitted before it closes
        its socket; one that is past reading is left to finish.
        Concurrent and repeated calls await the one real shutdown.
        """
        if self._shutting_down.is_set():
            await self._shutdown_done.wait()
            return
        self._shutting_down.set()
        try:
            if self._metrics_server is not None:
                await self._metrics_server.aclose()
                self._metrics_server = None
            if self._server is not None:
                self._server.close()
            if self._unix_path is not None:
                try:
                    os.unlink(self._unix_path)
                except OSError:
                    pass
            if self._connections:
                tasks = [conn.task for conn in self._connections]
                for conn in self._connections:
                    if conn.reading:
                        conn.task.cancel()
                done, pending = await asyncio.wait(
                    tasks, timeout=_DRAIN_TIMEOUT)
                for task in pending:  # pragma: no cover - hung conn
                    task.cancel()
            if self._server is not None:
                # after the handlers above finished, so this returns
                # promptly on every Python (3.12.1+ waits for them)
                await self._server.wait_closed()
            if self._own_broker:
                await self.broker.aclose()
        finally:
            self._shutdown_done.set()

    async def __aenter__(self) -> "TrafficServer":
        return await self.start()

    async def __aexit__(self, *_exc) -> bool:
        await self.shutdown()
        return False

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.connections_served += 1
        try:
            try:
                await self._read_frames(conn, reader, writer)
            except asyncio.CancelledError:
                # shutdown stopped the reading; what was submitted is
                # still answered
                pass
            conn.reading = False
            await conn.idle()
            conn.flush()
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # shutdown's last resort for a connection that did not
            # drain in time.  Not re-raised: a handler task that ends
            # cancelled has the streams machinery log a traceback.
            pass
        finally:
            writer.close()
            self._connections.discard(conn)

    async def _read_frames(self, conn: _Connection,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Serve frames until EOF or until the framing is lost."""
        splitter = FrameSplitter()
        while True:
            data = await reader.read(_READ_BYTES)
            splitter.feed(data)
            while True:
                try:
                    payload = splitter.next_frame()
                    if payload is None and not data:
                        splitter.check_eof()
                except FramePayloadError as exc:
                    # framing survived: answer and keep reading
                    conn.send("-", protocol.encode_error(
                        "-", "protocol", str(exc)))
                    continue
                except ProtocolError as exc:
                    # framing is gone: answer once, then hang up
                    conn.send("-", protocol.encode_error(
                        "-", "protocol", str(exc)))
                    return
                if payload is None:
                    break
                await self._serve_frame(conn, payload)
            if not data:              # EOF
                return
            # the one place a client that does not read its replies
            # stops this connection from taking more requests
            await writer.drain()

    async def _serve_frame(self, conn: _Connection,
                           payload: str) -> None:
        """Decode one frame and answer it — control verbs at once, R/E
        from the broker future's callback; all errors become typed
        ``ERR`` frames, never a dead connection or server.  Suspends
        only while the broker lane is full."""
        self.frames_served += 1
        # Head sampling happens here, at the trace entry point: one
        # decision per request, handed to the broker with the request.
        tracer = get_tracer()
        if tracer is not None and tracer.sampled():
            span = tracer.span("serve.request", root=True, attrs={
                "op": payload.split("\t", 1)[0]})
        else:
            span = NOOP_SPAN
        request_id = None
        try:
            request = protocol.decode_request(payload, self._max_pairs)
            request_id = request.request_id
            span.set(id=request_id)
            if self._shutting_down.is_set():
                raise ServingError("server is shutting down")
            lane = _LANES.get(request.op)
            if lane is not None:
                await self.broker.room(lane)
                self.broker.submit(lane, request.pairs, span) \
                    .add_done_callback(partial(
                        self._reply, conn, request_id, request.op, span))
                conn.in_flight += 1
                return
            reply = self._answer(request)
        except Exception as exc:
            if request_id is None:
                # Best-effort id recovery, so a typed decode error
                # still lands on the caller's pending request instead
                # of an anonymous "-" frame nobody is waiting for.
                # Sanitized to the decoder's own id rules (<= 64
                # chars, no newlines): the raw field comes from an
                # arbitrary client and is about to be reflected into a
                # response frame.
                head = payload.split("\t", 2)
                request_id = "-"
                if len(head) >= 2 and head[1]:
                    request_id = head[1].replace("\n", " ") \
                                        .replace("\r", " ")[:64] or "-"
            reply = _error_frame(request_id, exc)
            span.set(error=type(exc).__name__)
        span.finish()
        conn.send(request_id, reply)

    def _reply(self, conn: _Connection, request_id: str, op: str, span,
               served: "asyncio.Future") -> None:
        """A broker future resolved: encode and queue the answer."""
        try:
            results = served.result()
            if op == "R":
                fields = protocol.encode_route_results(results)
            else:
                fields = [f"{e:.17g}" for e in results]
            reply = protocol.encode_ok(request_id, fields)
        except Exception as exc:
            reply = _error_frame(request_id, exc)
            span.set(error=type(exc).__name__)
        span.finish()
        try:
            conn.send(request_id, reply)
        finally:
            conn.answered()

    def _answer(self, request: Request) -> str:
        rid = request.request_id
        if request.op == "PING":
            return protocol.encode_ok(rid, ["PONG"])
        if request.op == "INFO":
            return protocol.encode_ok(rid, self._info_fields())
        if request.op == "STATS":
            return protocol.encode_ok(rid, self._stats_fields())
        if request.op == "TRACE":
            return protocol.encode_ok(rid,
                                      self._trace_fields(request.limit))
        raise ProtocolError(       # pragma: no cover - decoder gates ops
            f"unhandled op {request.op!r}")

    def _info_fields(self) -> list:
        """``key=value`` metadata fields: what the artifact serves and
        its vertex range — enough for a client/loadgen to generate
        valid pairs without out-of-band configuration."""
        fields = []
        for kind, backend in (("routing", self.broker.router),
                              ("estimation", self.broker.estimator)):
            if backend is None:
                continue
            n = getattr(backend, "num_vertices", None)
            if n is None:   # RouterPool: reach through to the artifact
                n = getattr(getattr(backend, "_artifact", None),
                            "num_vertices", "?")
            fields.append(f"{kind}.n={n}")
        fields.append(f"max_batch={self.broker.max_batch}")
        fields.append(f"max_pairs={self._max_pairs}")
        if self.broker.serves_routing:
            fields.append(
                f"generation={self.broker.router_generation}")
        return fields

    def _stats_fields(self) -> list:
        """The broker metrics snapshot flattened to dotted
        ``key=value`` fields (nested dicts become ``outer.inner``), so
        a client needs no JSON parser to read live stats."""
        fields = []

        def emit(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key in sorted(value, key=str):
                    emit(f"{prefix}.{key}" if prefix else str(key),
                         value[key])
            else:
                fields.append(f"{prefix}={value}")

        emit("", self.broker.metrics.snapshot())
        return fields

    def _trace_fields(self, limit: Optional[int]) -> list:
        """The most recent finished spans, one compact-JSON object per
        field (compact separators: no tabs, so frames stay valid).
        Empty when tracing is disabled."""
        tracer = get_tracer()
        if tracer is None:
            return []
        return [json.dumps(record, separators=(",", ":"), default=str)
                for record in tracer.export(limit)]

    async def swap_routing(self, artifact) -> float:
        """Hot-swap the routing artifact the server's broker serves
        (see :meth:`RequestBroker.swap_router`): connected clients
        keep their connections, in-flight windows finish on the old
        generation, and ``INFO`` reports the new one."""
        return await self.broker.swap_router(artifact)


class TrafficClient:
    """Asyncio client for the TSV frame protocol.

    Multiplexes: requests may be issued concurrently from many tasks
    over one connection; a single reader task demultiplexes responses
    by request id.  Used by the load generator, the test suite, and as
    the reference implementation for clients in other languages.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[str, asyncio.Future] = {}
        self._ids = 0
        self._closed = False
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 0,
                      unix_path: Optional[str] = None
                      ) -> "TrafficClient":
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(
                unix_path)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        splitter = FrameSplitter()
        try:
            while True:
                data = await self._reader.read(_READ_BYTES)
                if not data:
                    break
                splitter.feed(data)
                while True:
                    payload = splitter.next_frame()
                    if payload is None:
                        break
                    response = protocol.decode_response(payload)
                    fut = self._pending.pop(response.request_id, None)
                    if fut is not None and not fut.done():
                        fut.set_result(response)
        except (ProtocolError, ConnectionResetError,
                asyncio.CancelledError):
            pass
        finally:
            self._fail_pending(ServingError(
                "connection closed with requests outstanding"))

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(exc)

    async def _call(self, op: str, pairs=(),
                    extra=()) -> protocol.Response:
        if self._closed:
            raise ServingError("client is closed")
        if self._reader_task.done():
            raise ServingError(
                "connection is closed (server went away)")
        self._ids += 1
        rid = str(self._ids)
        fut = asyncio.get_running_loop().create_future()
        self._pending[rid] = fut
        self._writer.write(protocol.encode_frame(
            protocol.encode_request(op, rid, pairs, extra)))
        # the caller waits for its reply anyway; it waits for the socket
        # as well only when the server has stopped reading
        if self._writer.transport.get_write_buffer_size() \
                > self._high_water:
            await self._writer.drain()
        if self._reader_task.done() and not fut.done():
            # The reader died between registration and now; its
            # _fail_pending may have swapped the dict before this
            # future entered it, so fail deterministically here.
            self._pending.pop(rid, None)
            raise ServingError(
                "connection closed with requests outstanding")
        response = await fut
        if not response.ok:
            exc_cls = {"protocol": ProtocolError,
                       "parameter": ParameterError,
                       "serving": ServingError}.get(response.code,
                                                    ServingError)
            raise exc_cls(f"server: {response.message}")
        return response

    # -- API -----------------------------------------------------------
    async def route(self, source: int, target: int):
        return (await self.route_batch([(source, target)]))[0]

    async def route_batch(self, pairs):
        pairs = list(pairs)
        if not pairs:
            return []
        response = await self._call("R", pairs)
        return [protocol.decode_route_result(field, u, v)
                for field, (u, v) in zip(response.fields, pairs)]

    async def estimate(self, u: int, v: int) -> float:
        return (await self.estimate_batch([(u, v)]))[0]

    async def estimate_batch(self, pairs):
        pairs = list(pairs)
        if not pairs:
            return []
        response = await self._call("E", pairs)
        return [float(field) for field in response.fields]

    async def ping(self) -> bool:
        response = await self._call("PING")
        return response.fields == ["PONG"]

    async def stats(self) -> Dict[str, float]:
        """Live broker metrics: the flattened dotted-key snapshot the
        ``STATS`` verb exposes, values parsed back to numbers."""
        response = await self._call("STATS")
        out: Dict[str, float] = {}
        for field in response.fields:
            key, _, value = field.partition("=")
            try:
                num = float(value)
            except ValueError:
                continue   # non-numeric diagnostic field
            out[key] = int(num) if num.is_integer() else num
        return out

    async def trace(self, limit: Optional[int] = None) -> list:
        """The server's most recent finished trace spans (newest
        last) as dicts; empty when server-side tracing is off."""
        extra = () if limit is None else (str(limit),)
        response = await self._call("TRACE", extra=extra)
        return [json.loads(field) for field in response.fields]

    async def info(self) -> Dict[str, str]:
        response = await self._call("INFO")
        out = {}
        for field in response.fields:
            key, _, value = field.partition("=")
            out[key] = value
        return out

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "TrafficClient":
        return self

    async def __aexit__(self, *_exc) -> bool:
        await self.aclose()
        return False

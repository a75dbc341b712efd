"""TCP / unix-socket server: end-to-end equivalence and lifecycle.

The server is a funnel into the broker, so the contract is the same
bit-identity — here verified through the wire format (float64 route
weights and estimates must survive the text round-trip exactly) —
plus connection lifecycle: multiplexed concurrent requests on one
connection, many connections, INFO/PING, and graceful shutdown
(in-flight drained, post-shutdown submissions answered with a typed
serving error, broker closed).
"""

import asyncio
import gc

import pytest

from server_helpers import chunks, run

from repro.exceptions import ParameterError, ProtocolError, \
    ServingError
from repro.server import RequestBroker, TrafficClient, TrafficServer


def make_broker(compiled, estimation, **kw):
    kw.setdefault("max_batch", 32)
    kw.setdefault("max_wait_ms", 0.5)
    return RequestBroker(router=compiled, estimator=estimation, **kw)


def test_tcp_round_trip_bit_identical(compiled, estimation,
                                      query_pairs, expected_routes,
                                      expected_estimates):
    """Concurrent clients over real TCP sockets, interleaved ops."""
    per_client = chunks(query_pairs, 48)
    exp_r = chunks(expected_routes, 48)
    exp_e = chunks(expected_estimates, 48)

    async def client_session(port, pairs):
        async with await TrafficClient.connect(port=port) as client:
            routes, estimates = await asyncio.gather(
                client.route_batch(pairs),
                client.estimate_batch(pairs))
            singles = await asyncio.gather(
                *(client.route(u, v) for u, v in pairs[:5]))
            return routes, estimates, list(singles)

    async def main():
        async with TrafficServer(
                make_broker(compiled, estimation), port=0) as server:
            return await asyncio.gather(
                *(client_session(server.port, p) for p in per_client))

    sessions = run(main())
    for (routes, estimates, singles), er, ee in zip(sessions, exp_r,
                                                    exp_e):
        assert routes == er
        assert estimates == ee
        assert singles == er[:5]


def test_unix_socket_round_trip(compiled, estimation, query_pairs,
                                expected_routes, tmp_path):
    path = str(tmp_path / "traffic.sock")

    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 unix_path=path) as server:
            assert server.address == f"unix:{path}"
            async with await TrafficClient.connect(
                    unix_path=path) as client:
                return await client.route_batch(query_pairs[:60])

    assert run(main()) == expected_routes[:60]


def test_ping_and_info(compiled, estimation):
    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 port=0) as server:
            async with await TrafficClient.connect(
                    port=server.port) as client:
                assert await client.ping()
                info = await client.info()
                return info

    info = run(main())
    assert info["routing.n"] == str(compiled.num_vertices)
    assert info["estimation.n"] == str(estimation.num_vertices)
    assert int(info["max_batch"]) == 32


def test_invalid_query_gets_parameter_error(compiled, estimation):
    """Out-of-range endpoints come back as a typed parameter error and
    the connection keeps serving."""
    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 port=0) as server:
            async with await TrafficClient.connect(
                    port=server.port) as client:
                with pytest.raises(ParameterError):
                    await client.route(0, 10 ** 9)
                # same connection still works
                return await client.route(0, 3)

    assert run(main()) == compiled.route(0, 3)


def test_graceful_shutdown_rejects_then_closes(compiled, estimation):
    """After shutdown: broker closed, new connections refused."""
    state = {}

    async def main():
        server = TrafficServer(make_broker(compiled, estimation),
                               port=0)
        await server.start()
        port = server.port
        client = await TrafficClient.connect(port=port)
        assert (await client.route(1, 2)) == compiled.route(1, 2)
        await client.aclose()
        await server.shutdown(reason="test")
        state["broker_closed"] = server.broker.closed
        with pytest.raises((ConnectionRefusedError, OSError)):
            await TrafficClient.connect(port=port)
        await server.shutdown()     # idempotent

    run(main())
    assert state["broker_closed"]


def test_request_during_shutdown_gets_serving_error(compiled,
                                                    estimation):
    """A request racing the shutdown gets a typed serving error, not a
    dead socket (as long as the connection is still draining)."""
    async def main():
        server = TrafficServer(make_broker(compiled, estimation),
                               port=0, own_broker=False)
        await server.start()
        client = await TrafficClient.connect(port=server.port)
        await client.ping()
        server._shutting_down.set()     # simulate the race window
        with pytest.raises(ServingError):
            await client.route(0, 1)
        server._shutting_down.clear()   # undo the simulation
        await client.aclose()
        await server.shutdown()
        await server.broker.aclose()

    run(main())


def test_shutdown_with_idle_connection_does_not_hang(compiled,
                                                     estimation):
    """An established-but-idle client must not stall shutdown: its
    parked read loop is cancelled after the listener closes (on some
    Pythons ``Server.wait_closed`` waits for connection handlers)."""
    async def main():
        server = TrafficServer(make_broker(compiled, estimation),
                               port=0)
        await server.start()
        client = await TrafficClient.connect(port=server.port)
        assert (await client.route(0, 4)) == compiled.route(0, 4)
        # client stays connected and silent; shutdown must still
        # finish promptly
        await asyncio.wait_for(server.shutdown(reason="test"),
                               timeout=5.0)
        await client.aclose()

    run(main())


def test_shutdown_with_open_connections_is_quiet(compiled, estimation,
                                                 caplog, capsys):
    """Shutdown with clients still connected — two idle, two with a
    request in flight, one that sent a request and hung up before the
    answer: the in-flight requests are answered (or get ``ERR
    serving``), and nothing is printed.  A handler task that ends
    *cancelled* makes the streams machinery log a ``CancelledError``
    traceback per connection; none may."""
    from repro.server import protocol

    request = protocol.encode_frame(
        protocol.encode_request("R", "7", [(0, 5)]))

    async def main():
        # a long window: the requests are still waiting in it when the
        # shutdown starts
        server = TrafficServer(
            make_broker(compiled, estimation, max_wait_ms=100.0),
            port=0)
        await server.start()
        idle, busy = [
            [await asyncio.open_connection("127.0.0.1", server.port)
             for _ in range(2)] for _ in range(2)]
        gone = await asyncio.open_connection("127.0.0.1", server.port)
        for _, writer in busy + [gone]:
            writer.write(request)
        await asyncio.sleep(0.02)
        gone[1].close()
        await asyncio.sleep(0.02)    # the server has seen the hang-up
        await asyncio.wait_for(server.shutdown(reason="test"),
                               timeout=5.0)
        assert server.broker.closed
        replies = [await asyncio.wait_for(protocol.read_frame(reader),
                                          timeout=5.0)
                   for reader, _ in busy]
        for _, writer in idle + busy:
            writer.close()
            await writer.wait_closed()
        gc.collect()     # "exception was never retrieved" is logged here
        await asyncio.sleep(0)
        return replies

    replies = run(main())
    route = protocol.encode_route_result(compiled.route(0, 5))
    for payload in replies:
        fields = payload.split("\t")
        assert fields[:2] == ["OK", "7"] and fields[2] == route \
            or fields[:3] == ["ERR", "7", "serving"], payload
    assert [r.getMessage() for r in caplog.records] == []
    assert capsys.readouterr().err == ""


def test_split_frame_header_is_not_truncation(compiled, estimation):
    """A length prefix arriving byte-by-byte (TCP segmentation) must
    be reassembled, not misread as a truncated header."""
    import struct

    from repro.server import protocol

    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 port=0) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                raw = protocol.encode_frame(
                    protocol.encode_request("R", "1", [(0, 7)]))
                for b in raw:           # one byte per write
                    writer.write(bytes([b]))
                    await writer.drain()
                    await asyncio.sleep(0)
                payload = await asyncio.wait_for(
                    protocol.read_frame(reader), timeout=5.0)
                assert payload.startswith("OK\t1\t")
            finally:
                writer.close()
                await writer.wait_closed()

    run(main())


def test_client_call_after_server_gone_fails_fast(compiled,
                                                  estimation):
    """A request issued on a connection the server already closed gets
    ServingError promptly — never a forever-pending future."""
    async def main():
        server = TrafficServer(make_broker(compiled, estimation),
                               port=0)
        await server.start()
        client = await TrafficClient.connect(port=server.port)
        assert await client.ping()
        await server.shutdown(reason="test")
        await asyncio.sleep(0.05)    # let the client reader see EOF
        with pytest.raises(ServingError):
            await asyncio.wait_for(client.route(0, 1), timeout=5.0)
        await client.aclose()

    run(main())


def test_err_frame_id_is_sanitized(compiled, estimation):
    """A hostile over-long id with embedded newlines is truncated to
    the protocol's id rules before being reflected in the ERR frame."""
    import struct

    from repro.server import protocol

    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 port=0) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                bad_id = ("x" * 100 + "\n" + "y" * 100).encode()
                raw = b"R\t" + bad_id + b"\tnot\tints"
                writer.write(struct.pack(">I", len(raw)) + raw)
                await writer.drain()
                payload = await asyncio.wait_for(
                    protocol.read_frame(reader), timeout=5.0)
                fields = payload.split("\t")
                assert fields[0] == "ERR"
                assert len(fields[1]) <= 64
                assert "\n" not in fields[1]
            finally:
                writer.close()
                await writer.wait_closed()

    run(main())


def test_own_broker_false_keeps_broker(compiled, estimation):
    async def main():
        broker = make_broker(compiled, estimation)
        async with TrafficServer(broker, port=0,
                                 own_broker=False) as server:
            async with await TrafficClient.connect(
                    port=server.port) as client:
                await client.route(0, 1)
        assert not broker.closed
        # the broker is still serviceable in-process after the server
        # went away
        assert (await broker.route(0, 2)) == compiled.route(0, 2)
        await broker.aclose()

    run(main())


def test_client_empty_batches(compiled, estimation):
    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 port=0) as server:
            async with await TrafficClient.connect(
                    port=server.port) as client:
                assert await client.route_batch([]) == []
                assert await client.estimate_batch([]) == []

    run(main())


def test_oversized_client_batch_rejected(compiled, estimation):
    """Beyond the per-request pair cap: typed protocol error, server
    stays up."""
    async def main():
        async with TrafficServer(make_broker(compiled, estimation),
                                 port=0, max_pairs=8) as server:
            async with await TrafficClient.connect(
                    port=server.port) as client:
                with pytest.raises(ProtocolError):
                    await client.route_batch([(0, 1)] * 9)
                return await client.route_batch([(0, 1)] * 8)

    assert run(main()) == compiled.route_many([(0, 1)] * 8)

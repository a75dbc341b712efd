"""Malformed-frame fuzz grid against the TCP protocol.

The satellite contract: for every class of malformed input —
truncated frames, lying length prefixes, non-UTF8 payloads, unknown
ops, odd arity, non-integer endpoints, oversized batches, raw garbage
— the server answers with a typed ``ERR`` frame (where framing allows
an answer at all) and **stays up**: the same server instance must
serve a correct request afterwards, and no event loop task or pool
worker dies.  A seeded generator adds random mutations on top of the
deterministic grid.
"""

import asyncio
import random
import socket
import struct

import pytest

from server_helpers import run

from repro.server import RequestBroker, TrafficClient, TrafficServer
from repro.server import protocol
from repro.server.tcp import _READ_BYTES


def frame(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


#: (case id, raw bytes to send, expect_err_frame, framing_survives)
MALFORMED_FRAMES = [
    ("unknown-op", frame(b"X\t1\t0\t1"), True, True),
    ("missing-id", frame(b"R"), True, True),
    ("empty-id", frame(b"R\t\t0\t1"), True, True),
    ("no-pairs", frame(b"R\t1"), True, True),
    ("odd-arity", frame(b"R\t1\t0\t1\t2"), True, True),
    ("non-integer", frame(b"R\t1\tzero\tone"), True, True),
    ("float-endpoint", frame(b"E\t1\t0.5\t1"), True, True),
    # int() would happily accept all three of these (PEP-515
    # underscores, surrounding whitespace, an explicit sign) and
    # silently misroute the typo; the strict parser must reject them
    ("underscore-endpoint", frame(b"R\t1\t1_0\t5"), True, True),
    ("space-padded-endpoint", frame(b"R\t1\t 5\t3"), True, True),
    ("plus-signed-endpoint", frame(b"E\t1\t+3\t4"), True, True),
    ("non-utf8", frame(b"R\t1\t\xff\xfe\x80\x81"), True, True),
    ("empty-frame", frame(b""), True, True),
    ("ping-extra-fields", frame(b"PING\t1\tjunk"), True, True),
    ("long-id", frame(b"R\t" + b"i" * 100 + b"\t0\t1"), True, True),
    ("oversized-batch",
     frame(b"R\t1\t" + b"\t".join(b"0\t1" for _ in range(200))),
     True, True),
    # framing-destroying cases: one ERR then the connection drops
    ("lying-length-overrun", struct.pack(">I", 1 << 30) + b"R\t1",
     True, False),
    ("truncated-payload", struct.pack(">I", 64) + b"R\t1\t0",
     False, False),
    ("truncated-header", b"\x00\x00", False, False),
]


@pytest.fixture(scope="module")
def fuzz_server_factory(compiled, estimation):
    def make():
        broker = RequestBroker(router=compiled, estimator=estimation,
                               max_batch=16, max_wait_ms=0.2)
        return TrafficServer(broker, port=0, max_pairs=100)
    return make


async def send_raw(port: int, raw: bytes, read_reply: bool):
    """Open a raw socket, fire bytes, optionally read one reply frame;
    returns the decoded reply payload or None."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        if not read_reply:
            return None
        payload = await asyncio.wait_for(
            protocol.read_frame(reader), timeout=5.0)
        return payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@pytest.mark.parametrize(
    "case,raw,expect_err,framing_survives",
    MALFORMED_FRAMES, ids=[c[0] for c in MALFORMED_FRAMES])
def test_malformed_frame_grid(fuzz_server_factory, compiled, case,
                              raw, expect_err, framing_survives):
    async def main():
        async with fuzz_server_factory() as server:
            port = server.port
            if expect_err:
                payload = await send_raw(port, raw, read_reply=True)
                assert payload is not None, case
                fields = payload.split("\t")
                assert fields[0] == "ERR", (case, payload)
                assert fields[2] in protocol.ERROR_CODES, case
            else:
                # nothing to reply to (stream died mid-frame); the
                # send must simply not harm the server
                await send_raw(port, raw, read_reply=False)
            # the same server must keep serving clean requests
            async with await TrafficClient.connect(port=port) as cl:
                assert await cl.ping()
                route = await cl.route(0, 5)
            return route

    assert run(main()) == compiled.route(0, 5)


def test_malformed_then_good_on_same_connection(fuzz_server_factory,
                                                compiled):
    """Framing-preserving junk and valid requests interleaved on ONE
    connection: every valid request still serves, every junk frame
    gets a typed ERR."""
    async def main():
        async with fuzz_server_factory() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                errs = good = 0
                for i in range(10):
                    writer.write(frame(b"R\tjunk%d\tbad\tworse" % i))
                    writer.write(frame(
                        f"R\tok{i}\t0\t5".encode()))
                    await writer.drain()
                    for _ in range(2):
                        payload = await asyncio.wait_for(
                            protocol.read_frame(reader), timeout=5.0)
                        if payload.startswith("ERR"):
                            errs += 1
                        else:
                            assert payload.startswith("OK\tok")
                            good += 1
                assert errs == 10 and good == 10
            finally:
                writer.close()
                await writer.wait_closed()

    run(main())


def test_seeded_random_garbage(fuzz_server_factory, compiled):
    """Seeded random byte soup, framed and unframed: the server
    survives all of it and still answers a clean request."""
    rng = random.Random(0xFEED)
    blobs = []
    for _ in range(25):
        body = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 64)))
        if rng.random() < 0.7:
            blobs.append(frame(body))          # framed garbage
        else:
            blobs.append(body[:6])             # raw stream garbage

    async def main():
        async with fuzz_server_factory() as server:
            for raw in blobs:
                # replies are not guaranteed for every shape; the only
                # contract is survival
                try:
                    await send_raw(server.port, raw,
                                   read_reply=False)
                except (ConnectionResetError, BrokenPipeError):
                    pass
            async with await TrafficClient.connect(
                    port=server.port) as cl:
                return await cl.route(1, 9)

    assert run(main()) == compiled.route(1, 9)


def test_pipelining_client_that_never_reads_is_bounded(compiled):
    """20 000 single-pair frames written before a single reply is
    read.  What the server holds for that connection stays bounded —
    ``max_pending`` submissions waiting in the lane plus at most what
    one read took off the socket — because the handler waits for room
    in the lane and, once the unread replies fill the socket, for the
    transport; a second connection is served all the while, and every
    frame is answered, in order, once the client reads."""
    frames = 20_000
    max_pending = 64
    stream = b"".join(
        protocol.encode_frame(protocol.encode_request(
            "R", str(i), [(i % 25, (i * 7) % 25)]))
        for i in range(frames))
    smallest = len(protocol.encode_frame(
        protocol.encode_request("R", "0", [(0, 0)])))
    bound = max_pending + _READ_BYTES // smallest

    async def main():
        broker = RequestBroker(router=compiled, max_batch=16,
                               max_wait_ms=0.2,
                               max_pending=max_pending)
        async with TrafficServer(broker, port=0) as server:
            # small, fixed socket buffers on both ends (the accepted
            # socket inherits the listener's), so the kernel cannot
            # swallow all the replies on the client's behalf
            server._server.sockets[0].setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                sock, ("127.0.0.1", server.port))
            reader, writer = await asyncio.open_connection(
                sock=sock, limit=8192)
            metrics = broker.metrics
            outstanding = []
            async with await TrafficClient.connect(
                    port=server.port) as other:
                writer.write(stream)
                for _ in range(40):
                    route = await asyncio.wait_for(other.route(0, 5),
                                                   timeout=5.0)
                    assert route == compiled.route(0, 5)
                    outstanding.append(
                        metrics.submitted - metrics.completed
                        - metrics.failed)
                    await asyncio.sleep(0.005)
            # the server has stopped short of the whole stream ...
            assert metrics.submitted < frames
            # ... and finishes it once the client reads
            for i in range(frames):
                payload = await protocol.read_frame(reader)
                assert payload.startswith(f"OK\t{i}\t"), (i, payload)
            writer.close()
            await writer.wait_closed()
            return outstanding

    outstanding = run(main())
    assert max(outstanding) <= bound, (max(outstanding), bound)


# ----------------------------------------------------------------------
# Codec-level round trips (no sockets)
# ----------------------------------------------------------------------
def test_request_codec_round_trip():
    payload = protocol.encode_request("R", "42", [(0, 1), (7, 9)])
    request = protocol.decode_request(payload)
    assert request.op == "R"
    assert request.request_id == "42"
    assert request.pairs == [(0, 1), (7, 9)]


def test_route_result_codec_round_trip(compiled):
    route = compiled.route(0, 7)
    field = protocol.encode_route_result(route)
    again = protocol.decode_route_result(field, route.source,
                                         route.target)
    assert again == route           # float64 weight must be exact


def test_error_frame_sanitizes_tabs_and_length():
    payload = protocol.encode_error("7", "parameter",
                                    "bad\tthing\nhappened" + "x" * 600)
    fields = payload.split("\t")
    assert fields[:3] == ["ERR", "7", "parameter"]
    assert "\n" not in payload
    assert len(fields) == 4 and len(fields[3]) <= 512


def test_strict_int_accepts_canonical_forms():
    assert protocol._strict_int("0") == 0
    assert protocol._strict_int("17") == 17
    assert protocol._strict_int("-3") == -3


@pytest.mark.parametrize("text", [
    "1_0",       # PEP-515 underscore: int() reads 10
    " 5",        # int() strips whitespace
    "5 ",
    "+3",        # int() accepts an explicit sign
    "--3",
    "-",
    "",
    "٣",         # non-ASCII digit script: int() reads 3
    "0x10",
    "1e3",
])
def test_strict_int_rejects_lenient_int_forms(text):
    with pytest.raises(ValueError):
        protocol._strict_int(text)


@pytest.mark.parametrize("coord", ["1_0", " 5", "+3"])
def test_decode_request_rejects_lenient_integers(coord):
    """The full decoder surfaces the strict parse as a typed
    ProtocolError, never as a silently misrouted pair."""
    from repro.exceptions import ProtocolError
    with pytest.raises(ProtocolError, match="integer"):
        protocol.decode_request(f"R\t1\t{coord}\t5")

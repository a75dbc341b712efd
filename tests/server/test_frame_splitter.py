"""``FrameSplitter`` against ``read_frame``: same frames, same errors.

The server and the client read whatever bytes a socket has and split
frames out of one buffer; ``read_frame`` (one ``readexactly`` pair per
frame) is the reference.  Whatever the byte boundaries — including
cuts inside the 4-byte length prefix — both must hand out the same
payload sequence, and fail at the same frame with the same exception
class and message.
"""

import asyncio
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.server import protocol
from repro.server.protocol import FramePayloadError, FrameSplitter

SMALL_LIMIT = 64        #: max_frame for the cases that overrun it


def events_from_read_frame(stream: bytes, max_frame: int) -> list:
    """Every outcome of reading ``stream`` to its end, in order:
    ``("frame", payload)``, ``("payload-error", msg)`` (recoverable),
    then ``("eof",)`` or a final ``("protocol-error", msg)``."""
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        events = []
        while True:
            try:
                payload = await protocol.read_frame(reader, max_frame)
            except FramePayloadError as exc:
                events.append(("payload-error", str(exc)))
                continue
            except ProtocolError as exc:
                events.append(("protocol-error", str(exc)))
                return events
            if payload is None:
                events.append(("eof",))
                return events
            events.append(("frame", payload))
    return asyncio.run(main())


def events_from_splitter(pieces, max_frame: int) -> list:
    splitter = FrameSplitter(max_frame)
    events = []
    for piece in list(pieces) + [b""]:       # b"" is what EOF reads as
        splitter.feed(piece)
        while True:
            try:
                payload = splitter.next_frame()
                if payload is None and not piece:
                    splitter.check_eof()
            except FramePayloadError as exc:
                events.append(("payload-error", str(exc)))
                continue
            except ProtocolError as exc:
                events.append(("protocol-error", str(exc)))
                return events
            if payload is None:
                break
            events.append(("frame", payload))
    events.append(("eof",))
    return events


def cut(stream: bytes, cuts) -> list:
    bounds = sorted({min(c, len(stream)) for c in cuts})
    return [stream[a:b] for a, b in zip([0] + bounds,
                                        bounds + [len(stream)])]


def framed(raw: bytes) -> bytes:
    return struct.pack(">I", len(raw)) + raw


valid_payloads = st.lists(
    st.text(max_size=40).map(lambda s: s.encode("utf-8")), max_size=8)
cuts = st.lists(st.integers(min_value=0, max_value=400), max_size=12)


@settings(max_examples=200, deadline=None)
@given(payloads=valid_payloads, cuts=cuts)
def test_valid_frames_any_byte_boundaries(payloads, cuts):
    stream = b"".join(framed(p) for p in payloads)
    want = [("frame", p.decode("utf-8")) for p in payloads] + [("eof",)]
    assert events_from_read_frame(stream, SMALL_LIMIT * 4) == want
    assert events_from_splitter(cut(stream, cuts),
                                SMALL_LIMIT * 4) == want


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(st.one_of(
           st.text(max_size=20).map(lambda s: s.encode("utf-8")),
           st.binary(max_size=20)), max_size=6),
       tail=st.one_of(
           st.just(b""),
           # a header that declares more than the limit allows
           st.integers(SMALL_LIMIT + 1, 2 ** 32 - 1).map(
               lambda n: struct.pack(">I", n) + b"R\t1"),
           # EOF inside a header, and inside a payload
           st.binary(min_size=1, max_size=3),
           st.binary(max_size=10).map(
               lambda b: struct.pack(">I", len(b) + 7) + b)),
       cuts=cuts)
def test_errors_match_read_frame(frames, tail, cuts):
    """Non-UTF-8 payloads (recoverable), an oversized declared length
    and EOF inside a frame (both final), anywhere in a stream of good
    frames and under any cutting: same events, same messages."""
    stream = b"".join(framed(f) for f in frames) + tail
    want = events_from_read_frame(stream, SMALL_LIMIT)
    assert events_from_splitter(cut(stream, cuts), SMALL_LIMIT) == want
    # and the split itself is what the contract says it is
    for kind, *rest in want:
        if kind == "payload-error":
            assert "not valid UTF-8" in rest[0]
    if want[-1][0] == "protocol-error":
        assert ("exceeds the" in want[-1][1]
                or "truncated frame" in want[-1][1])


def test_prefix_split_byte_by_byte():
    """The case TCP segmentation produces: every byte on its own."""
    payloads = ["R\t1\t0\t7", "", "PING\tx", "é" * 5]
    stream = b"".join(protocol.encode_frame(p) for p in payloads)
    pieces = [bytes([b]) for b in stream]
    assert events_from_splitter(pieces, protocol.MAX_FRAME_BYTES) == \
        [("frame", p) for p in payloads] + [("eof",)]

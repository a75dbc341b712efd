"""Line protocol for the traffic server: length-prefixed TSV frames.

Every frame is ``u32 big-endian payload length | payload``; the payload
is UTF-8 text with tab-separated fields.  Text inside a binary length
prefix keeps the protocol trivially debuggable (``xxd`` shows the
queries) while making framing unambiguous for non-Python clients — no
escaping, no line-ending rules, and a reader always knows how many
bytes to wait for.

Requests (first field = op, second = caller-chosen request id echoed
back verbatim):

====================================  =================================
``R <id> <u> <v> [<u> <v> ...]``      route a batch of pairs
``E <id> <u> <v> [<u> <v> ...]``      estimate a batch of pairs
``PING <id>``                         liveness probe
``INFO <id>``                         server/artifact metadata
``STATS <id>``                        flattened metrics snapshot
``TRACE <id> [<n>]``                  last ``n`` finished trace spans
====================================  =================================

Responses:

* ``OK <id> <result> ...`` — one field per query result, in input
  order.  A route result is ``weight,center,level,v0-v1-...-vk``
  (weight as ``%.17g`` so float64 round-trips exactly; ``center`` is
  ``-1`` for a self-route); an estimate result is ``%.17g``.
* ``ERR <id> <code> <message>`` — typed error; ``code`` is one of
  :data:`ERROR_CODES`.  Malformed frames that destroy framing (an
  oversized or non-numeric length cannot be resynchronized) get an
  ``ERR`` with id ``-`` and then the connection closes; every decodable
  frame keeps the connection alive.

The route lane's codec does a constant number of C-level calls per
frame plus one formatted field per pair.  :func:`decode_request` checks
an ``R``/``E`` frame's whole endpoint field with one regular expression
and parses it with one ``map(int, ...)`` pass; the per-endpoint loop
runs only to word a refusal.  :func:`encode_route_results` reads each
route positionally and formats it with one ``%``, joining the path from
a ``str(v)`` table that the first encode builds — in the serving
process, never at import, because clients and the benchmark harness
import this module too.  :func:`decode_route_result` builds the client's
tuple positionally.  ``server/README.md`` has the per-pair budget.

The module is transport-agnostic: pure ``bytes <-> message`` codecs,
the incremental :class:`FrameSplitter` both ends of a connection read
through, and the one-frame stream helper ``read_frame``.
"""

from __future__ import annotations

import asyncio
import re
import struct
from typing import List, Optional, Sequence, Tuple

from ..core.compiled import CompiledRoute
from ..exceptions import ProtocolError

#: Frames longer than this are rejected before allocation — a hostile
#: or corrupt length prefix must not let a client size our buffers.
MAX_FRAME_BYTES = 1 << 20

#: Pairs-per-request cap ("oversized batch" in the fuzz grid); large
#: client batches should be split client-side — the broker re-fuses
#: them anyway.
MAX_PAIRS_PER_REQUEST = 4096

#: ``ERR`` frame codes -> meaning.
ERROR_CODES = {
    "protocol": "malformed frame or request",
    "parameter": "well-formed request with invalid query input",
    "serving": "backend unavailable (shutdown, dead pool worker)",
    "internal": "unexpected server-side failure",
}

_LEN = struct.Struct(">I")

_OP_ROUTE = "R"
_OP_ESTIMATE = "E"
_OP_PING = "PING"
_OP_INFO = "INFO"
_OP_STATS = "STATS"
_OP_TRACE = "TRACE"

REQUEST_OPS = (_OP_ROUTE, _OP_ESTIMATE, _OP_PING, _OP_INFO,
               _OP_STATS, _OP_TRACE)


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------
def encode_frame(payload: str) -> bytes:
    """``u32 length | UTF-8 payload`` as one bytes object."""
    raw = payload.encode("utf-8")
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(raw)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    return _LEN.pack(len(raw)) + raw


async def read_frame(reader: asyncio.StreamReader,
                     max_frame: int = MAX_FRAME_BYTES
                     ) -> Optional[str]:
    """Read one frame payload; ``None`` on clean EOF.

    Raises :class:`ProtocolError` for an unrecoverable stream state
    (oversized declared length, or EOF inside a frame — both mean the
    byte stream can no longer be trusted to align with frame
    boundaries) and ``UnicodeDecodeError``-wrapping ``ProtocolError``
    for a frame whose bytes are not UTF-8 (recoverable: the next frame
    starts at a known offset).
    """
    try:
        # readexactly, not read(): a 4-byte prefix may legally arrive
        # split across TCP segments, and a short read here is not EOF.
        head = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None          # clean EOF between frames
        raise ProtocolError(
            f"truncated frame header ({len(exc.partial)} of "
            f"{_LEN.size} bytes before EOF)") from None
    (length,) = _LEN.unpack(head)
    if length > max_frame:
        raise ProtocolError(
            f"declared frame length {length} exceeds the "
            f"{max_frame}-byte limit")
    try:
        raw = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"truncated frame: wanted {length} bytes, stream ended "
            f"after {len(exc.partial)}") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FramePayloadError(
            f"frame payload is not valid UTF-8: {exc}") from None


class FramePayloadError(ProtocolError):
    """A frame whose *payload* is bad but whose framing was intact —
    the server can answer with ``ERR`` and keep the connection."""


class FrameSplitter:
    """Frames out of a byte stream that arrives in arbitrary pieces.

    The server and the client read whatever the socket has
    (``reader.read``), :meth:`feed` it here, and take complete frames
    with :meth:`next_frame` until it returns ``None`` — one buffer and
    no await per frame.  Errors are those of :func:`read_frame`, raised
    at the frame they belong to: the frames before it are handed out
    first, and after a :class:`FramePayloadError` the next call goes on
    with the frame behind the bad one.
    """

    __slots__ = ("_buf", "_pos", "_max_frame")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buf = bytearray()
        self._pos = 0            #: start of the first frame not handed out
        self._max_frame = max_frame

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += data

    def next_frame(self) -> Optional[str]:
        """The next complete frame's payload, ``None`` if the buffer
        ends inside it (or exactly before it)."""
        buf = self._buf
        start = self._pos + _LEN.size
        if len(buf) < start:
            return None
        (length,) = _LEN.unpack_from(buf, self._pos)
        if length > self._max_frame:
            raise ProtocolError(
                f"declared frame length {length} exceeds the "
                f"{self._max_frame}-byte limit")
        end = start + length
        if len(buf) < end:
            return None
        self._pos = end
        try:
            return buf[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FramePayloadError(
                f"frame payload is not valid UTF-8: {exc}") from None

    def check_eof(self) -> None:
        """The stream ended: fine between frames, a
        :class:`ProtocolError` inside one."""
        have = len(self._buf) - self._pos
        if not have:
            return
        if have < _LEN.size:
            raise ProtocolError(
                f"truncated frame header ({have} of {_LEN.size} bytes "
                "before EOF)")
        (length,) = _LEN.unpack_from(self._buf, self._pos)
        raise ProtocolError(
            f"truncated frame: wanted {length} bytes, stream ended "
            f"after {have - _LEN.size}")


# ----------------------------------------------------------------------
# Request / response payloads
# ----------------------------------------------------------------------
#: An ``R``/``E`` frame's endpoint field: the strict integers of
#: :func:`_strict_int`, tab-separated.
_ENDPOINTS = re.compile(r"-?[0-9]+(?:\t-?[0-9]+)*")


def _strict_int(text: str) -> int:
    """Parse a TSV endpoint strictly: ASCII digits, at most one
    leading ``-``.  Bare ``int()`` is far too permissive for a wire
    protocol — it accepts PEP-515 underscores (``"1_0"`` -> ``10``),
    surrounding whitespace, a leading ``+``, and non-ASCII digit
    scripts, all of which would silently *misroute* a typo instead of
    returning a typed ``ERR``."""
    body = text[1:] if text.startswith("-") else text
    if not body or not body.isascii() or not body.isdigit():
        raise ValueError(text)
    return int(text)


class Request:
    """One decoded request frame.  ``limit`` is the optional span
    count of a ``TRACE`` request (``None`` elsewhere)."""

    __slots__ = ("op", "request_id", "pairs", "limit")

    def __init__(self, op: str, request_id: str,
                 pairs: Optional[List[Tuple[int, int]]] = None,
                 limit: Optional[int] = None):
        self.op = op
        self.request_id = request_id
        self.pairs = pairs if pairs is not None else []
        self.limit = limit

    def __repr__(self) -> str:
        return (f"Request(op={self.op!r}, id={self.request_id!r}, "
                f"pairs={len(self.pairs)})")


def decode_request(payload: str,
                   max_pairs: int = MAX_PAIRS_PER_REQUEST) -> Request:
    """Parse a request payload; :class:`ProtocolError` names what is
    wrong (op, id, arity, integer parse, batch size) so the typed
    ``ERR`` frame is actually useful to a client author."""
    fields = payload.split("\t")
    op = fields[0]
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op[:32]!r}; expected one of "
            f"{list(REQUEST_OPS)}")
    if len(fields) < 2 or not fields[1]:
        raise ProtocolError(f"{op} frame lacks a request id")
    request_id = fields[1]
    if "\n" in request_id or len(request_id) > 64:
        raise ProtocolError("request id must be <= 64 chars, no "
                            "newlines")
    if op in (_OP_PING, _OP_INFO, _OP_STATS):
        if len(fields) != 2:
            raise ProtocolError(
                f"{op} takes no fields beyond the id, got "
                f"{len(fields) - 2}")
        return Request(op, request_id)
    if op == _OP_TRACE:
        if len(fields) > 3:
            raise ProtocolError(
                f"{op} takes at most one span-count field, got "
                f"{len(fields) - 2}")
        limit = 32
        if len(fields) == 3:
            try:
                limit = _strict_int(fields[2])
            except ValueError:
                raise ProtocolError(
                    f"TRACE span count {fields[2][:32]!r} is not an "
                    "integer") from None
            if not 1 <= limit <= 4096:
                raise ProtocolError(
                    f"TRACE span count must be in [1, 4096], got "
                    f"{limit}")
        return Request(op, request_id, limit=limit)
    coords = fields[2:]
    if not coords:
        raise ProtocolError(f"{op} frame carries no pairs")
    if len(coords) % 2:
        raise ProtocolError(
            f"{op} frame has an odd number of endpoints "
            f"({len(coords)}); pairs are 'u<TAB>v'")
    if len(coords) // 2 > max_pairs:
        raise ProtocolError(
            f"request of {len(coords) // 2} pairs exceeds the "
            f"{max_pairs}-pair limit; split the batch")
    # One C-level check of the whole endpoint field, one int() pass.
    # int() can still refuse a checked field (past CPython's digit
    # limit); either way the per-endpoint loop words the error.
    if _ENDPOINTS.fullmatch(payload, len(op) + len(request_id) + 2):
        try:
            ints = map(int, coords)
            return Request(op, request_id, list(zip(ints, ints)))
        except ValueError:
            pass
    pairs: List[Tuple[int, int]] = []
    for i in range(0, len(coords), 2):
        try:
            pairs.append((_strict_int(coords[i]),
                          _strict_int(coords[i + 1])))
        except ValueError:
            raise ProtocolError(
                f"endpoint {coords[i][:32]!r}/{coords[i + 1][:32]!r} "
                f"is not an integer (pair #{i // 2})") from None
    return Request(op, request_id, pairs)


def encode_request(op: str, request_id: str,
                   pairs: Sequence[Tuple[int, int]] = (),
                   extra: Sequence[str] = ()) -> str:
    parts = [op, request_id]
    for u, v in pairs:
        parts.append(str(u))
        parts.append(str(v))
    parts.extend(extra)
    return "\t".join(parts)


# -- results -----------------------------------------------------------
#: ``str(v)`` at index ``v``, so a reply joins a path without one
#: ``str()`` per vertex.  Empty at import and built by the first route
#: encoded: only a serving process holds it, never a client or the
#: benchmark harness, which import this module too.
_vertex_names: List[str] = []

#: ``tuple.__new__``: a :class:`CompiledRoute` from its six fields
#: without the generated ``__new__``'s Python frame.
_new_tuple = tuple.__new__


def _names_through(top: int) -> List[str]:
    """A name table that covers vertex id ``top``, at least doubled.
    It is a new list bound in one step, so an encode on another thread
    sees the old table or the new one, never one half grown."""
    global _vertex_names
    _vertex_names = list(map(str, range(
        max(top + 1, 2 * len(_vertex_names)))))
    return _vertex_names


def encode_route_results(routes) -> List[str]:
    """``weight,center,level,v0-v1-...`` per route, read positionally
    — ``%.17g`` keeps float64 exact, so the TCP path stays
    bit-identical to in-process serving.  Path vertices are vertex
    ids (``>= 0``)."""
    name = _vertex_names.__getitem__
    fields = []
    for _, _, path, weight, center, level in routes:
        try:
            joined = "-".join(map(name, path))
        except IndexError:
            name = _names_through(max(path)).__getitem__
            joined = "-".join(map(name, path))
        fields.append("%.17g,%d,%d,%s" % (
            weight, -1 if center is None else center, level, joined))
    return fields


def encode_route_result(route) -> str:
    """One route's field of :func:`encode_route_results`."""
    return encode_route_results((route,))[0]


def decode_route_result(field: str, source: int,
                        target: int) -> CompiledRoute:
    try:
        weight, center, level, path = field.split(",")
        center = int(center)
        # sliced to exactly its vertices: a list grown from an iterator
        # keeps spare room, and a client may hold many routes
        return _new_tuple(CompiledRoute, (
            source, target, list(map(int, path.split("-")))[:],
            float(weight), None if center < 0 else center, int(level)))
    except ValueError:
        raise ProtocolError(
            f"malformed route result field {field[:64]!r}") from None


def encode_ok(request_id: str, result_fields: Sequence[str]) -> str:
    return "\t".join(["OK", request_id, *result_fields])


def encode_error(request_id: str, code: str, message: str) -> str:
    if code not in ERROR_CODES:
        code = "internal"
    # Tabs/newlines would corrupt the TSV shape of the frame itself.
    clean = message.replace("\t", " ").replace("\n", " ")[:512]
    return "\t".join(["ERR", request_id, code, clean])


class Response:
    """One decoded response frame (client side)."""

    __slots__ = ("ok", "request_id", "fields", "code", "message")

    def __init__(self, ok: bool, request_id: str, fields=(),
                 code: str = "", message: str = ""):
        self.ok = ok
        self.request_id = request_id
        self.fields = list(fields)
        self.code = code
        self.message = message


def decode_response(payload: str) -> Response:
    fields = payload.split("\t")
    if len(fields) >= 2 and fields[0] == "OK":
        return Response(True, fields[1], fields[2:])
    if len(fields) >= 4 and fields[0] == "ERR":
        return Response(False, fields[1], (), fields[2],
                        "\t".join(fields[3:]))
    raise ProtocolError(
        f"unparseable response frame {payload[:64]!r}")

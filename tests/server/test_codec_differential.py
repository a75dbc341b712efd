"""The route lane's codec against the per-endpoint code it replaced.

The old request parser, route encoder and client decoder live here as
the oracles.  The production codec must give the same pairs, the same
``ProtocolError`` text, the same reply bytes and equal routes; and the
vertex-name table behind the encoder is only ever filled by a process
that encodes a route.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compiled import CompiledRoute
from repro.exceptions import ProtocolError
from repro.graphs.generators import WORKLOADS
from repro.pipeline import SchemePipeline
from repro.server import protocol

REPO = Path(__file__).resolve().parents[2]


# -- oracles: the codec as it was, one Python step per endpoint --------
def old_strict_int(text: str) -> int:
    body = text[1:] if text.startswith("-") else text
    if not body or not body.isascii() or not body.isdigit():
        raise ValueError(text)
    return int(text)


def old_decode_pairs(payload: str,
                     max_pairs: int = protocol.MAX_PAIRS_PER_REQUEST
                     ) -> List[Tuple[int, int]]:
    """The old ``decode_request`` from the ``R``/``E`` branch on."""
    fields = payload.split("\t")
    op = fields[0]
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
    pairs = []
    for i in range(0, len(coords), 2):
        try:
            pairs.append((old_strict_int(coords[i]),
                          old_strict_int(coords[i + 1])))
        except ValueError:
            raise ProtocolError(
                f"endpoint {coords[i][:32]!r}/{coords[i + 1][:32]!r} "
                f"is not an integer (pair #{i // 2})") from None
    return pairs


def old_encode_route_result(route) -> str:
    center = -1 if route.tree_center is None else route.tree_center
    path = "-".join(map(str, route.path))
    return (f"{route.weight:.17g},{center},{route.found_level},"
            f"{path}")


def old_decode_route_result(field: str, source: int,
                            target: int) -> CompiledRoute:
    try:
        weight_s, center_s, level_s, path_s = field.split(",")
        path = [int(v) for v in path_s.split("-")]
        center = int(center_s)
        return CompiledRoute(
            source=source, target=target, path=path,
            weight=float(weight_s),
            tree_center=None if center < 0 else center,
            found_level=int(level_s))
    except (ValueError, IndexError):
        raise ProtocolError(
            f"malformed route result field {field[:64]!r}") from None


def outcome(fn, *args):
    """``("ok", value)`` or ``("err", message)`` of a codec call."""
    try:
        return "ok", fn(*args)
    except ProtocolError as exc:
        return "err", str(exc)


# -- request decode -----------------------------------------------------
#: What an endpoint may look like on the wire: strict integers, and
#: everything ``int()`` accepts that the protocol must refuse.
endpoints = st.one_of(
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.integers(0, 999).map(lambda v: f"{v:04d}"),
    st.sampled_from(["", "-", "--1", "+3", "1_0", " 5", "5 ", "5\n",
                     "٣", "1٣", "５", "²", "0x1f",
                     "1.0", "1e3", "-0", "nan", "\u22124"]),
    st.text(alphabet="0123456789-+_ \n٣５²", max_size=6),
)


def request(op: str, request_id: str, coords) -> str:
    return "\t".join([op, request_id, *coords])


@settings(max_examples=400, deadline=None)
@given(op=st.sampled_from(["R", "E"]),
       request_id=st.text(alphabet="abc0123-", min_size=1, max_size=8),
       coords=st.lists(endpoints, max_size=9))
@example(op="R", request_id="1", coords=["7" * 5000, "1"])
@example(op="R", request_id="1", coords=["1"] * 3)
@example(op="E", request_id="-", coords=[])
def test_decode_request_matches_the_old_parser(op, request_id, coords):
    payload = request(op, request_id, coords)
    want = outcome(old_decode_pairs, payload)
    got = outcome(lambda p: protocol.decode_request(p).pairs, payload)
    assert got == want
    if got[0] == "ok":
        assert all(type(u) is int and type(v) is int
                   for u, v in got[1])


@pytest.mark.parametrize("max_pairs", [1, 3])
def test_decode_request_batch_limit_matches(max_pairs):
    payload = request("R", "9", ["1", "2"] * 3)
    assert outcome(lambda p: protocol.decode_request(
        p, max_pairs).pairs, payload) == outcome(
        old_decode_pairs, payload, max_pairs)


# -- reply encode and client decode -------------------------------------
@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def zoo_routes(request):
    """Every ordered pair of one zoo plane (self-routes included)."""
    plane = (SchemePipeline().workload(request.param, 36).params(2)
             .seed(1).compile())
    n = plane.num_vertices
    return plane.route_many([(u, v) for u in range(n)
                             for v in range(n)])


def test_encode_matches_the_old_field_on_every_pair(zoo_routes,
                                                    monkeypatch):
    # a table shorter than the plane: encoding must grow it
    monkeypatch.setattr(protocol, "_vertex_names", ["0", "1"])
    selfs = [r for r in zoo_routes if r.source == r.target]
    assert selfs and all(r.tree_center is None and r.found_level == -1
                         for r in selfs)
    want = [old_encode_route_result(r) for r in zoo_routes]
    assert protocol.encode_route_results(zoo_routes) == want
    assert [protocol.encode_route_result(r)
            for r in zoo_routes[::37]] == want[::37]
    assert protocol._vertex_names == [
        str(v) for v in range(len(protocol._vertex_names))]


def test_client_decode_round_trips(zoo_routes):
    for route in zoo_routes:
        field = protocol.encode_route_result(route)
        back = protocol.decode_route_result(field, route.source,
                                            route.target)
        assert back == route
        assert type(back) is CompiledRoute
        # no spare room in a path a client may hold
        assert sys.getsizeof(back.path) == sys.getsizeof(back.path[:])
        assert back == old_decode_route_result(field, route.source,
                                               route.target)


weights = st.one_of(st.floats(), st.integers(0, 10 ** 6),
                    st.sampled_from([0.0, -0.0, 1e-300, 2 ** 53 + 1.0]))
routes = st.builds(
    lambda path, weight, center, level: CompiledRoute(
        path[0], path[-1], path, weight, center, level),
    st.lists(st.integers(0, 3000), min_size=1, max_size=12),
    weights,
    st.one_of(st.none(), st.integers(0, 3000)),
    st.integers(-1, 12))


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(routes, max_size=6),
       table=st.integers(0, 3001))
def test_encode_matches_the_old_field_on_any_route(batch, table):
    saved = protocol._vertex_names
    protocol._vertex_names = [str(v) for v in range(table)]
    try:
        got = protocol.encode_route_results(batch)
    finally:
        protocol._vertex_names = saved
    assert got == [old_encode_route_result(r) for r in batch]


@settings(max_examples=300, deadline=None)
@given(field=st.one_of(
    st.text(alphabet="0123456789,-.e+ infa", max_size=24),
    st.builds(lambda r: protocol.encode_route_result(r), routes)))
def test_client_decode_matches_the_old_decoder(field):
    want = outcome(old_decode_route_result, field, 3, 4)
    got = outcome(protocol.decode_route_result, field, 3, 4)
    if want[0] == "ok" and want[1].weight != want[1].weight:
        assert got[0] == "ok" and got[1].weight != got[1].weight
        got, want = got[1]._replace(weight=0), want[1]._replace(weight=0)
    assert got == want


# -- where the name table lives -----------------------------------------
def test_a_decoding_client_never_builds_the_name_table():
    """A fresh interpreter runs ``TrafficClient`` against a server
    that answers with a canned route reply: the client decodes it and
    the encoder's table is still empty."""
    script = textwrap.dedent("""
        import asyncio
        from repro.server import TrafficClient, protocol

        async def serve(reader, writer):
            frame = await protocol.read_frame(reader)
            rid = frame.split("\\t")[1]
            writer.write(protocol.encode_frame(
                f"OK\\t{rid}\\t2.5,0,1,3-0-4\\t0,-1,-1,7"))
            await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with await TrafficClient.connect(port=port) as client:
                routes = await client.route_batch([(3, 4), (7, 7)])
            server.close()
            await server.wait_closed()
            assert [r.path for r in routes] == [[3, 0, 4], [7]], routes
            assert routes[1].tree_center is None

        asyncio.run(main())
        assert protocol._vertex_names == [], protocol._vertex_names
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["ok"]

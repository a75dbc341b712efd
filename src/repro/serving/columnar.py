"""Columnar result transport: struct-packed shard results.

Pickling a ``List[CompiledRoute]`` costs one object graph per route,
each dragging a path list, and the parent pays a per-object unpickle on
the hot merge path.  Shard results travel as **two flat arrays**
instead:

* routes — one ``int64`` stream
  ``[source, target, center, level, path_len, *path]`` per route
  (``center`` is ``-1`` for a self-route), plus one ``float64`` stream
  of weights;
* estimates — a single ``float64`` stream.

Workers pack with the stdlib ``array`` module (one C-speed ``tobytes``
per shard); the queue then pickles two ``bytes`` objects (a memcpy)
instead of an object graph, and the parent decodes each shard with one
``frombytes`` + ``tolist`` before a single reconstruction sweep.  The
decoded results are plain Python ints/floats, **bit-identical** to the
worker's own result objects — ``int64`` spans every vertex id and
``float64`` round-trips route weights exactly — which the whole
``tests/serving`` equivalence grid pins against in-process serving.
"""

from __future__ import annotations

import sys
from array import array
from typing import List, Tuple

from ..core.compiled import CompiledRoute
from ..exceptions import ServingError

_INT = "q"
_FLOAT = "d"


def _to_bytes(typecode: str, values) -> bytes:
    arr = array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - LE everywhere we run
        arr.byteswap()
    return arr.tobytes()


def _to_list(typecode: str, raw: bytes) -> list:
    arr = array(typecode)
    arr.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover
        arr.byteswap()
    return arr.tolist()


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------
def encode_routes(routes) -> Tuple[str, bytes, bytes]:
    """Pack a shard's ``List[CompiledRoute]`` into flat byte columns."""
    ints: List[int] = []
    weights: List[float] = []
    for r in routes:
        ints.append(r.source)
        ints.append(r.target)
        ints.append(-1 if r.tree_center is None else r.tree_center)
        ints.append(r.found_level)
        path = r.path
        ints.append(len(path))
        ints.extend(path)
        weights.append(r.weight)
    return ("routes", _to_bytes(_INT, ints), _to_bytes(_FLOAT, weights))


def decode_routes(ints_raw: bytes,
                  weights_raw: bytes) -> List[CompiledRoute]:
    """One ``frombytes``/``tolist`` per column, then a single sweep."""
    ints = _to_list(_INT, ints_raw)
    weights = _to_list(_FLOAT, weights_raw)
    out: List[CompiledRoute] = []
    pos = 0
    total = len(ints)
    for weight in weights:
        if pos + 5 > total:
            raise ServingError(
                "corrupt columnar route payload: truncated header at "
                f"offset {pos}")
        source = ints[pos]
        target = ints[pos + 1]
        center = ints[pos + 2]
        level = ints[pos + 3]
        path_len = ints[pos + 4]
        pos += 5
        path = ints[pos:pos + path_len]
        if len(path) != path_len:
            raise ServingError(
                "corrupt columnar route payload: path wanted "
                f"{path_len} entries, found {len(path)}")
        pos += path_len
        out.append(CompiledRoute(
            source=source, target=target, path=path, weight=weight,
            tree_center=None if center < 0 else center,
            found_level=level))
    if pos != total:
        raise ServingError(
            f"corrupt columnar route payload: {total - pos} trailing "
            "ints after the last route")
    return out


# ----------------------------------------------------------------------
# Estimates
# ----------------------------------------------------------------------
def encode_estimates(values) -> Tuple[str, bytes]:
    """Pack a shard's ``List[float]`` into one float64 column."""
    return ("estimates", _to_bytes(_FLOAT, values))


def decode_estimates(raw: bytes) -> List[float]:
    return _to_list(_FLOAT, raw)


# ----------------------------------------------------------------------
# Tagged dispatch used by the pool
# ----------------------------------------------------------------------
def encode_result(out) -> tuple:
    """Worker side: pack a shard result by shape.  Routing results are
    recognised by the first element being a ``CompiledRoute`` (shards
    are homogeneous); anything else is an estimate column."""
    if out and isinstance(out[0], CompiledRoute):
        return encode_routes(out)
    return encode_estimates(out)


def decode_result(payload: tuple) -> list:
    """Parent side: unpack whatever :func:`encode_result` produced."""
    tag = payload[0]
    if tag == "routes":
        return decode_routes(payload[1], payload[2])
    if tag == "estimates":
        return decode_estimates(payload[1])
    raise ServingError(f"unknown columnar payload tag {tag!r}")

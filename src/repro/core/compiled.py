"""Compiled artifacts: the construction's flat output, and the oracle.

The paper's economics are: pay the near-optimal distributed
*construction* cost once, then answer routing and distance queries from
compact tables forever.  The :class:`~.routing_scheme.RoutingScheme` is
the construction-side object — it drags the graph, the cluster system
and the forest's columns around.  This module flattens it:

* :class:`CompiledScheme` — the construction artifact: a flat-array,
  graph-detached copy of everything Algorithm 1 (find-tree) and the
  Section-6 in-tree forwarding protocol need: per-(tree, vertex) table
  rows, label rows, a deduplicated tree-label pool, the 4k-5
  member-label pairs, and the per-vertex word counts.  Produced by
  ``RoutingScheme.compile()``; its routing decisions are
  **bit-identical** to the eager reference router of
  :mod:`repro.reference`, built from the cluster system by the
  per-subtree oracle (``tests/core/test_compiled.py``).  It is not a
  served tier: :class:`~.dense.DenseRoutingPlane` is compiled from it
  and serves, and its hop-by-hop :meth:`~CompiledScheme.route_many`
  replay is the oracle the dense plane is held to.
* :class:`CompiledEstimation` — the same split for the Theorem-6
  sketches; Algorithm 2 (Dist) runs off two flat sketch rows.
* a versioned on-disk format shared by every kind —
  ``MAGIC | version | header JSON | packed array payload`` — written by
  ``save(path)`` and read back by ``load(path)`` /
  :func:`load_artifact`.  Arrays are little-endian int64/float64,
  encoded and decoded with numpy.

Every artifact holds each column as one numpy array, however it was
made (construction, ``load``, ``attach``).  Only the per-pair loops —
the flat replay, ``estimate_many``, the dense parent walk — read lists,
built from the arrays on their first call (``_lists``).

The process pool (``repro.serving``) ships artifacts through a second
transport next to the file format: :meth:`~_CompiledArtifact.
export_buffers` flattens an artifact into a JSON-able header plus one
packed payload — the same little-endian array layout as the on-disk
format, minus the framing — and :func:`attach_artifact` decodes a
serving object from that header plus *any* buffer-protocol object
holding the bytes (e.g. a ``multiprocessing.shared_memory`` block).
Every batch method validates its input through the shared
:func:`validate_pairs` prepass, so the pool can run the *same* check
parent-side and malformed batches raise the same exception type at the
same offending pair no matter which path serves them.

numpy is required: every kernel has one body.  The construction's
matrix kernels advance their source rows in blocks under a cell limit,
bit-identically for every block size; the one remaining kernel choice
is the parent walk for batches below ``_VECTOR_MIN_PAIRS``
(:mod:`repro.core.dense`).
"""

from __future__ import annotations

import json
import operator
import struct
from functools import cached_property
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as _np

from ..dataclass import dataclass
from ..exceptions import (
    ArtifactError,
    HopBudgetError,
    ParameterError,
    SchemeError,
)
from ..graphs.csr import csr_view
from .tree_routing import ARTIFACT_COLUMNS

#: File magic for every compiled artifact ("Repro Compiled Routing
#: Artifact"); the conventional extension is ``.cra``.
MAGIC = b"RCRA"

#: Bump when the header or array layout changes incompatibly.
FORMAT_VERSION = 2

_KIND_ROUTING = "routing"
_KIND_ESTIMATION = "estimation"
_KIND_DENSE = "dense-routing"

_INT = "q"      # int64
_FLOAT = "d"    # float64
_ITEM_BYTES = 8
_WIRE = {_INT: "<i8", _FLOAT: "<f8"}          # numpy dtype on the wire
_DTYPES = {_INT: "int64", _FLOAT: "float64"}  # ... and in memory


def _last_rows(sorted_keys, queries):
    """Per query, the row of the last equal entry of ``sorted_keys``
    (where a dict built in row order would resolve it), and the index
    of the first query with no entry, ``-1`` when every query has one
    (the rows mean nothing otherwise)."""
    pos = _np.searchsorted(sorted_keys, queries, side="right") - 1
    # pos -1 (every key above the query) reads the last key, above too
    hit = sorted_keys[pos] == queries if len(sorted_keys) else pos >= 0
    return pos, (-1 if hit.all() else int(hit.argmin()))


def _tree_edge_weights(graph, vertex, parent):
    """Per slot, the weight of the graph edge to its tree parent (0.0
    at a root), as one gather: the cached CSR's edge keys ``u * n + v``
    sorted, the slots' ``vertex * n + parent`` keys searched in them.
    A tree edge the graph lacks is a :class:`SchemeError` naming the
    first slot's."""
    view = csr_view(graph)
    n = graph.num_vertices
    keys = (_np.repeat(_np.arange(n, dtype=_np.int64) * n,
                       _np.diff(view.indptr)) + view.indices)
    order = _np.argsort(keys)
    child = _np.flatnonzero(parent >= 0)
    pos, miss = _last_rows(keys[order],
                           vertex[child] * n + parent[child])
    if miss >= 0:
        raise SchemeError(
            f"tree edge ({int(vertex[child[miss]])}, "
            f"{int(parent[child[miss]])}) is not an edge of the graph")
    weights = _np.zeros(len(vertex))
    weights[child] = view.weights[order[pos]]
    return weights


# The reporting surface: plain Python numbers, the empty-artifact
# identity (0 / 0.0) for no rows — degenerate artifacts are legal (they
# serve the empty batch).
def _most(words) -> int:
    return int(words.max()) if len(words) else 0


def _mean(words) -> float:
    return int(words.sum()) / len(words) if len(words) else 0.0


# ----------------------------------------------------------------------
# Binary container: MAGIC | u32 version | u64 header len | header | payload
# ----------------------------------------------------------------------
def _pack_values(typecode: str, values: Sequence) -> bytes:
    return _np.asarray(values, dtype=_WIRE[typecode]).tobytes()


def _check_contents(meta: Dict, arrays: Dict[str, Sequence],
                    fields: Tuple[Tuple[str, str], ...]) -> None:
    """Reject structurally valid files whose header lies about content."""
    missing = [name for name, _tc in fields if name not in arrays]
    if missing:
        raise ArtifactError(
            f"artifact is missing required arrays: {missing}")
    if "n" not in meta or "k" not in meta:
        raise ArtifactError("artifact metadata lacks 'n'/'k'")


def _check_range(where: str, name: str, values, lo: int, hi) -> None:
    """An :class:`ArtifactError` naming the first row of the integer
    array ``values`` (column ``name``) outside ``[lo, hi)``."""
    if not len(values) or (lo <= values.min() and values.max() < hi):
        return
    row = int(_np.flatnonzero((values < lo) | (values >= hi))[0])
    raise ArtifactError(f"{where} column {name} row {row}: "
                        f"{int(values[row])} is outside [{lo}, {hi})")


def _write_artifact(path: Union[str, Path], kind: str, meta: Dict,
                    arrays: List[Tuple[str, str, Sequence]]) -> None:
    manifest = [[name, typecode, len(values)]
                for name, typecode, values in arrays]
    header = json.dumps({"kind": kind, "meta": meta,
                         "arrays": manifest}).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<Q", len(header))
    blob += header
    for _name, typecode, values in arrays:
        blob += _pack_values(typecode, values)
    Path(path).write_bytes(bytes(blob))


def _read_container(path: Union[str, Path]):
    """``(kind, meta, manifest, payload)`` of a validated file."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 12 or not data.startswith(MAGIC):
        raise ArtifactError(
            f"{path}: not a compiled routing artifact (bad magic)")
    (version,) = struct.unpack_from("<I", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported artifact format version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
    header_start = len(MAGIC) + 12
    header_end = header_start + header_len
    if header_end > len(data):
        raise ArtifactError(f"{path}: truncated artifact header")
    try:
        header = json.loads(data[header_start:header_end])
    except ValueError as exc:
        raise ArtifactError(f"{path}: corrupt artifact header: {exc}") \
            from None
    kind, meta, manifest = _parse_header(path, header)
    payload = data[header_end:]
    declared = sum(count for _n, _tc, count in manifest) * _ITEM_BYTES
    if len(payload) > declared:
        raise ArtifactError(
            f"{path}: {len(payload) - declared} trailing bytes after "
            "the declared arrays")
    return kind, meta, manifest, payload


def _parse_header(path, header) -> Tuple[str, Dict, list]:
    """``(kind, meta, manifest)`` of a decoded header: an object with a
    str ``kind``, an object ``meta`` and an ``arrays`` list of
    ``[name, "q"|"d", count >= 0]`` rows.  Anything else is an
    :class:`ArtifactError`, not a ``KeyError`` from deeper in."""
    if not isinstance(header, dict):
        raise ArtifactError(f"{path}: artifact header is not a JSON "
                            f"object: {header!r:.80}")
    kind = header.get("kind")
    meta = header.get("meta")
    manifest = header.get("arrays")
    if not (isinstance(kind, str) and isinstance(meta, dict)
            and isinstance(manifest, list)):
        raise ArtifactError(
            f"{path}: artifact header needs a string 'kind', an object "
            "'meta' and an 'arrays' list")
    for row in manifest:
        if not (isinstance(row, list) and len(row) == 3
                and isinstance(row[0], str) and row[1] in (_INT, _FLOAT)
                and type(row[2]) is int and row[2] >= 0):
            raise ArtifactError(
                f"{path}: malformed array manifest row {row!r:.80}")
    return kind, meta, manifest


# ----------------------------------------------------------------------
# Batch input validation (shared with the sharded serving pool)
# ----------------------------------------------------------------------
def _as_batch(pairs) -> Sequence:
    """Materialize one-shot iterables: the batch paths iterate their
    input more than once (validate, then serve), so a generator would
    otherwise validate fine and then silently serve nothing."""
    return pairs if isinstance(pairs, (list, tuple)) else list(pairs)


def pairs_array(pairs: Sequence, n: int):
    """``pairs`` as an ``(N, 2)`` integer array when it is one whose
    values are all in ``[0, n)`` — exactly the batches the scalar loop
    of :func:`validate_pairs` accepts — else ``None`` (float/str/object
    dtype, ragged rows, out-of-range values).  A vector serve path that
    gets an array back has its validated input in hand and converts
    nothing twice."""
    if not len(pairs):
        return None
    try:
        arr = _np.asarray(pairs)
    except (TypeError, ValueError):
        return None
    if (arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "iu"
            and (0 <= arr.min()) and (arr.max() < n)):
        return arr
    return None


def validate_pairs(pairs: Sequence, n: int, noun: str = "route") -> None:
    """Validate a batch of ``(u, v)`` queries against vertex range ``n``.

    This is the *single* validation authority for every batch serve
    path: :meth:`CompiledScheme.route_many`,
    :meth:`CompiledEstimation.estimate_many` and the parent side of
    ``repro.serving.RouterPool`` all call it before doing any work.
    That guarantee is load-bearing for the pool — a malformed batch
    must raise the same exception type, naming the same offending pair,
    whether it is served in-process or sharded across workers, and it
    must never reach (let alone crash) a worker process.
    """
    # Vectorized happy path; anything it does not accept falls through
    # to the scalar loop, which names the offending pair with the same
    # message it always has.
    if len(pairs) >= 64 and pairs_array(pairs, n) is not None:
        return
    index = operator.index
    for idx, pair in enumerate(pairs):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ParameterError(
                f"pair #{idx} is not a (source, target) pair: "
                f"{pair!r}") from None
        try:  # accept anything usable as a flat-array index
            u, v = index(u), index(v)
        except TypeError:  # float, str, None, ... endpoints
            raise ParameterError(
                f"{noun} endpoints ({u!r}, {v!r}) are not vertex "
                f"indices at pair #{idx}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError(
                f"{noun} endpoints ({u}, {v}) out of range at "
                f"pair #{idx} (n={n})")


# ----------------------------------------------------------------------
# Buffer export / attach: the shared-memory transport
# ----------------------------------------------------------------------
class ArtifactBuffers(NamedTuple):
    """One compiled artifact flattened to ``(header, payload)``.

    ``payload`` uses the exact packed little-endian layout of the
    on-disk format's array section (no magic/version framing — the
    header travels as a plain dict).  It can be dropped byte-for-byte
    into a ``multiprocessing.shared_memory`` block and re-attached in
    another process with :func:`attach_artifact`.
    """

    kind: str
    meta: Dict
    manifest: Tuple[Tuple[str, str, int], ...]
    payload: bytes

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def header(self) -> Dict:
        """The JSON-able description workers need next to the bytes."""
        return {"kind": self.kind, "meta": dict(self.meta),
                "arrays": [list(row) for row in self.manifest]}


def _decode_payload(manifest: Sequence, buffer) -> Dict[str, Sequence]:
    """Decode a packed payload from any buffer object into native numpy
    arrays — the single byte-layout decoder behind both the file loader
    and the shared-memory attach path; no view into ``buffer``
    outlives the call.  Trailing bytes beyond the manifest are
    tolerated here (shared-memory blocks round their size up to a
    page); the file loader rejects them itself.
    """
    mv = memoryview(buffer)
    arrays: Dict[str, Sequence] = {}
    offset = 0
    for name, typecode, count in manifest:
        nbytes = count * _ITEM_BYTES
        chunk = mv[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise ArtifactError(
                f"truncated artifact payload: array {name!r} wanted "
                f"{nbytes} bytes at offset {offset}, found "
                f"{len(chunk)}")
        # astype copies: no view into ``buffer`` outlives the call
        arrays[name] = _np.frombuffer(
            chunk, dtype=_WIRE[typecode]).astype(_DTYPES[typecode])
        offset += nbytes
    return arrays


# ----------------------------------------------------------------------
# Shared artifact machinery (persistence, export, metadata)
# ----------------------------------------------------------------------
class _CompiledArtifact:
    """Everything the artifact kinds share: numpy column storage keyed
    by ``_FIELDS``, the versioned file format, the buffer export/attach
    transport, the ``n``/``k`` metadata surface, and the lists a
    per-pair loop reads (:attr:`_lists`).  Subclasses check and derive
    in :meth:`_post_init`."""

    kind: str = ""
    _FIELDS: Tuple[Tuple[str, str], ...] = ()
    #: The arrays (``_`` + name) the per-pair loop reads, in order.
    _LISTED: Tuple[str, ...] = ()

    def __init__(self, meta: Dict, arrays: Dict[str, Sequence]) -> None:
        _check_contents(meta, arrays, self._FIELDS)
        self._meta = dict(meta)
        self._n = int(meta["n"])
        self._k = int(meta["k"])
        for name, typecode in self._FIELDS:
            setattr(self, "_" + name,
                    _np.asarray(arrays[name], dtype=_DTYPES[typecode]))
        self._post_init()

    @cached_property
    def _lists(self) -> Dict[str, list]:
        """The ``_LISTED`` arrays as lists, built on the first call of a
        per-pair loop: indexing a list element by element is several
        times cheaper than indexing an array, and nothing else (compile,
        load, attach, the vectorised path) reads them.  Two threads
        racing on the first call build equal lists twice, no worse."""
        return {name: getattr(self, "_" + name).tolist()
                for name in self._LISTED}

    @classmethod
    def _decode(cls, where, meta: Dict, manifest: Sequence, buffer):
        """The artifact a manifest describes over its packed payload.
        A column declared with another typecode than this kind stores
        it with is an :class:`ArtifactError` naming the column."""
        stored = dict(cls._FIELDS)
        for name, typecode, _count in manifest:
            if stored.get(name, typecode) != typecode:
                raise ArtifactError(
                    f"{where}: column {name!r} is declared {typecode!r}; "
                    f"a {cls.kind!r} artifact stores it as "
                    f"{stored[name]!r}")
        return cls(meta, _decode_payload(manifest, buffer))

    def _post_init(self) -> None:
        """Rebuild derived accelerators; overridden by subclasses."""

    # -- persistence ---------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the versioned artifact file (conventionally ``.cra``)."""
        _write_artifact(path, self.kind, self._meta, self._columns())

    def _columns(self) -> List[Tuple[str, str, Sequence]]:
        """``(name, typecode, array)`` per column."""
        return [(name, typecode, getattr(self, "_" + name))
                for name, typecode in self._FIELDS]

    @classmethod
    def load(cls, path: Union[str, Path]):
        kind, meta, manifest, payload = _read_container(path)
        if kind != cls.kind:
            raise ArtifactError(
                f"{path}: artifact holds a {kind!r} scheme, not "
                f"{cls.kind!r}")
        return cls._decode(path, meta, manifest, payload)

    # -- buffer transport ----------------------------------------------
    def export_buffers(self) -> ArtifactBuffers:
        """Flatten into header + one packed payload (see
        :class:`ArtifactBuffers`)."""
        manifest: List[Tuple[str, str, int]] = []
        chunks: List[bytes] = []
        for name, typecode, values in self._columns():
            manifest.append((name, typecode, len(values)))
            chunks.append(_pack_values(typecode, values))
        return ArtifactBuffers(self.kind, dict(self._meta),
                               tuple(manifest), b"".join(chunks))

    @classmethod
    def attach(cls, header: Dict, buffer):
        """Reconstruct a serving artifact from :meth:`export_buffers`
        output.  ``buffer`` is any buffer-protocol object holding the
        payload (e.g. ``SharedMemory.buf``); the artifact decodes its
        own copy, so the buffer may be released right after."""
        if header.get("kind") != cls.kind:
            raise ArtifactError(
                f"attach header holds a {header.get('kind')!r} "
                f"artifact, not {cls.kind!r}")
        return cls._decode("attach header", header["meta"],
                           header["arrays"], buffer)

    # -- serving helpers -----------------------------------------------
    _pair_noun = "route"

    def validate_pairs(self, pairs: Sequence) -> None:
        """Run the shared batch-input prepass for this artifact — the
        exact check the batch serve methods run, exposed so the sharded
        pool can fail identically before dispatching anything."""
        validate_pairs(pairs, self._n, self._pair_noun)

    # -- reporting -----------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    @property
    def meta(self) -> Dict:
        return dict(self._meta)


# ----------------------------------------------------------------------
# Compiled routing scheme
# ----------------------------------------------------------------------
class CompiledRoute(NamedTuple):
    """One served packet: what the compiled artifact can know.

    There is no exact distance — the artifact is graph-detached;
    stretch harnesses supply their own Dijkstra oracle.  A ``NamedTuple`` (not
    a dataclass) because the serve path constructs one per query and
    tuple construction is several times cheaper.
    """

    source: int
    target: int
    path: List[int]
    weight: float
    tree_center: Optional[int]
    found_level: int

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class CompiledScheme(_CompiledArtifact):
    """Flat-array construction artifact of one routing scheme.

    Construct with :meth:`from_scheme` (or the convenience
    ``RoutingScheme.compile()``), persist with :meth:`save`, restore
    with :meth:`load`.  Routing replays the Section-6 protocol hop by
    hop, bit for bit as the eager reference router does — the oracle
    the served :class:`~.dense.DenseRoutingPlane` is compiled from and
    held to.
    """

    kind = _KIND_ROUTING

    #: (name, typecode) of every payload array, in serialization order.
    _FIELDS = (
        ("tree_center", _INT),
        ("slot_vertex", _INT), ("slot_tree", _INT),
        ("t_parent", _INT), ("t_parent_w", _FLOAT),
        ("t_loc_entry", _INT), ("t_loc_exit", _INT),
        ("t_loc_parent", _INT), ("t_loc_heavy", _INT),
        ("t_splitter", _INT), ("t_gentry", _INT), ("t_gexit", _INT),
        ("t_hsplit", _INT), ("t_hportal", _INT), ("t_hlab", _INT),
        ("l_local", _INT), ("l_ge_start", _INT), ("l_ge_end", _INT),
        ("ge_psplit", _INT), ("ge_csplit", _INT),
        ("ge_portal", _INT), ("ge_plab", _INT),
        ("lp_entry", _INT), ("lp_start", _INT),
        ("lp_w", _INT), ("lp_child", _INT),
        ("lbl_pivot", _INT), ("lbl_slot", _INT),
        ("ml_owner", _INT), ("ml_member", _INT),
        ("table_words", _INT), ("label_words", _INT),
    )

    #: The replay reads every column but the word counts.
    _LISTED = tuple(name for name, _tc in _FIELDS
                    if not name.endswith("_words"))

    def _post_init(self) -> None:
        """Checks on what the replay and the dense compile index by —
        ranges, owners that are tree centers, members with a slot in
        their owner's tree — so a corrupt file fails here, typed, and
        not as a bare ``IndexError`` / ``KeyError`` later."""
        n = self._n
        for name, hi in (("tree_center", n), ("slot_vertex", n),
                         ("slot_tree", len(self._tree_center)),
                         ("ml_member", n)):
            _check_range("flat artifact", name, getattr(self, "_" + name),
                         0, hi)
        owner = self._ml_owner
        if len(owner) != len(self._ml_member):
            raise ArtifactError(
                f"flat artifact columns ml_owner and ml_member hold "
                f"{len(owner)} and {len(self._ml_member)} rows")
        stray = ~_np.isin(owner, self._tree_center)
        if stray.any():
            row = int(_np.flatnonzero(stray)[0])
            raise ArtifactError(
                f"flat artifact column ml_owner row {row}: "
                f"{int(owner[row])} is not a tree center")
        # one searchsorted decides; to name the row, the replay's
        # member dicts are built now and raise
        tids, _miss = self._tree_rows(owner)
        if self._slot_rows(tids, self._ml_member)[1] >= 0:
            self._members  # built now for its check

    # The sorted-key form of the replay's dicts, for the dense compile.
    @cached_property
    def _key_index(self):
        """``(keys, slots, centers, tids)``: the slots sorted stably by
        ``tree * n + vertex``, and the tree centers sorted stably."""
        key = self._slot_tree * self._n + self._slot_vertex
        order = _np.argsort(key, kind="stable")
        centers = self._tree_center
        center_order = _np.argsort(centers, kind="stable")
        return key[order], order, centers[center_order], center_order

    def _tree_rows(self, pivots):
        """``(tids, miss)``: the tree id of every center in the array
        ``pivots``, and the index of the first pivot that is not a tree
        center (``-1`` when all are; ``tids`` is ``None`` otherwise)."""
        _keys, _slots, centers, tids = self._key_index
        pos, miss = _last_rows(centers, pivots)
        return (tids[pos] if miss < 0 else None), miss

    def _slot_rows(self, tids, vertices):
        """``(slots, miss)``: the slot of every ``(tid, vertex)`` in two
        arrays, and the index of the first pair with no slot (``-1``
        when all have one; ``slots`` is ``None`` otherwise)."""
        keys, slots, _centers, _tids = self._key_index
        n = self._n
        # a vertex outside [0, n) would alias a key of another tree;
        # -1 is no key (every key is >= 0)
        queries = _np.where((vertices >= 0) & (vertices < n),
                            tids * n + vertices, -1)
        pos, miss = _last_rows(keys, queries)
        return (slots[pos] if miss < 0 else None), miss

    # Dict accelerators of the replay, built on its first call (the
    # dense compile reads the columns instead).
    @cached_property
    def _tid_of(self) -> Dict[int, int]:
        return {c: tid for tid, c in enumerate(self._lists["tree_center"])}

    @cached_property
    def _slots(self) -> List[Dict[int, int]]:
        lists = self._lists
        slots: List[Dict[int, int]] = [dict() for _ in range(self._n)]
        for s, (v, tid) in enumerate(zip(lists["slot_vertex"],
                                         lists["slot_tree"])):
            slots[v][tid] = s
        return slots

    @cached_property
    def _members(self) -> List[Dict[int, int]]:
        lists = self._lists
        slots = self._slots
        tid_of = self._tid_of
        members: List[Dict[int, int]] = [dict() for _ in range(self._n)]
        for row, (owner, member) in enumerate(zip(lists["ml_owner"],
                                                  lists["ml_member"])):
            slot = slots[member].get(tid_of[owner])
            if slot is None:
                raise ArtifactError(
                    f"flat artifact member row {row}: vertex {member} "
                    f"has no slot in the tree of {owner}")
            members[owner][member] = slot
        return members

    # -- construction --------------------------------------------------
    @classmethod
    def from_scheme(cls, scheme) -> "CompiledScheme":
        """The artifact of a live :class:`RoutingScheme`: the forest's
        columns and the scheme's find-tree rows, member rows and word
        columns as they stand, plus the tree-parent edge weights read
        off the live graph *now* (a recompile after a weight change
        that left the construction valid picks the new ones up)."""
        graph = scheme.graph
        forest = scheme.forest.columns
        cols: Dict[str, Sequence] = {
            name: getattr(forest, name)
            for name in ("tree_center",) + ARTIFACT_COLUMNS}
        cols["t_parent_w"] = _tree_edge_weights(
            graph, cols["slot_vertex"], cols["t_parent"])
        cols["lbl_pivot"] = scheme.lbl_pivot
        cols["lbl_slot"] = scheme.lbl_slot
        cols["ml_owner"] = scheme.ml_owner
        cols["ml_member"] = scheme.ml_member
        cols["table_words"] = scheme.table_words
        cols["label_words"] = scheme.label_words
        n = graph.num_vertices
        meta = {
            "n": n,
            "k": scheme.params.k,
            "eps": scheme.params.eps,
            "construction_rounds": scheme.construction_rounds,
            "num_trees": len(cols["tree_center"]),
            "num_slots": len(cols["slot_vertex"]),
        }
        return cls(meta, cols)

    # -- reporting -----------------------------------------------------
    def max_table_words(self) -> int:
        return _most(self._table_words)

    def average_table_words(self) -> float:
        return _mean(self._table_words)

    def max_label_words(self) -> int:
        return _most(self._label_words)

    def average_label_words(self) -> float:
        return _mean(self._label_words)

    def __repr__(self) -> str:
        return (f"CompiledScheme(n={self._n}, k={self._k}, "
                f"trees={len(self._tree_center)}, "
                f"slots={len(self._slot_vertex)})")

    # -- serving -------------------------------------------------------
    def route(self, source: int, target: int,
              max_hops: Optional[int] = None) -> CompiledRoute:
        """Serve one packet from the compiled tables.

        Delegates to :meth:`route_many` so the forwarding protocol
        exists in exactly one place on the compiled side.
        """
        return self.route_many([(source, target)], max_hops=max_hops)[0]

    def route_many(self, pairs: Sequence[Tuple[int, int]],
                   max_hops: Optional[int] = None
                   ) -> List[CompiledRoute]:
        """Serve a batch of ``(source, target)`` queries.

        Queries are grouped by target so each distinct target's label
        rows are decoded once, and the whole forwarding protocol runs
        as one loop over locally-bound flat arrays (no per-hop method
        dispatch).  Results come back in input order and are identical
        to per-call :meth:`route`.

        With the default ``max_hops=None`` the hop budget is ``4n + 4``,
        which no correct artifact can exceed, so running out raises
        :class:`SchemeError` (the artifact is corrupt).  A
        *caller-supplied* ``max_hops`` that runs out before the target
        raises :class:`~repro.exceptions.HopBudgetError` instead — the
        route may be perfectly fine, the budget was just too small.
        """
        pairs = _as_batch(pairs)
        validate_pairs(pairs, self._n, "route")
        n = self._n
        k = self._k
        budgeted = max_hops is not None
        hop_budget = max_hops if budgeted else 4 * n + 4
        slots = self._slots
        members = self._members
        tid_of = self._tid_of
        # every column but the word counts, in ``_FIELDS`` order
        (_centers, slot_vertex, _trees, t_parent, t_parent_w, t_loc_entry,
         t_loc_exit, t_loc_parent, t_loc_heavy, t_splitter, t_gentry,
         t_gexit, t_hsplit, t_hportal, t_hlab, l_local, l_ge_start,
         l_ge_end, ge_psplit, ge_csplit, ge_portal, ge_plab, lp_entry,
         lp_start, lp_w, lp_child, lbl_pivot, lbl_slot, _ml_owner,
         _ml_member) = self._lists.values()

        def local_next(sx: int, li: int) -> Optional[int]:
            # interval_next_hop over the pooled local label li
            a = lp_entry[li]
            e = t_loc_entry[sx]
            if e == a:
                return None
            if not e <= a <= t_loc_exit[sx]:
                p = t_loc_parent[sx]
                if p < 0:
                    raise SchemeError(
                        f"label escapes the local tree at its root "
                        f"(slot {sx})")
                return p
            x = slot_vertex[sx]
            for j in range(lp_start[li], lp_start[li + 1]):
                if lp_w[j] == x:
                    return lp_child[j]
            h = t_loc_heavy[sx]
            if h < 0:
                raise SchemeError(
                    f"routing stuck at local leaf {x} (slot {sx})")
            return h

        results: List[Optional[CompiledRoute]] = [None] * len(pairs)
        by_target: Dict[int, List[Tuple[int, int]]] = {}
        for idx, (source, target) in enumerate(pairs):
            by_target.setdefault(target, []).append((idx, source))

        for target, queries in by_target.items():
            base = target * k
            rows = []
            for i in range(k):
                pivot = lbl_pivot[base + i]
                sl = lbl_slot[base + i]
                rows.append((pivot, sl,
                             tid_of[pivot] if sl >= 0 else -1))
            for idx, source in queries:
                if source == target:
                    results[idx] = CompiledRoute(
                        source=source, target=target, path=[source],
                        weight=0.0, tree_center=None, found_level=-1)
                    continue
                # --- Algorithm 1 (find-tree) --------------------------
                st = members[source].get(target)
                if st is not None:
                    center = source
                    level = -1
                    tid = tid_of[source]
                else:
                    in_trees = slots[source]
                    for level, (pivot, sl, tid) in enumerate(rows):
                        if pivot < 0 or sl < 0:
                            continue
                        if tid in in_trees or pivot == source:
                            center = pivot
                            st = sl
                            break
                    else:
                        raise SchemeError(
                            f"find-tree failed for {source} -> "
                            f"{target}; A_{{k-1}} cluster should "
                            "contain every vertex")
                # --- in-tree forwarding (Section 6), inlined ----------
                tree_slots = slots
                path = [source]
                current = source
                cs = slots[source][tid]
                weight = 0.0
                lg = t_gentry[st]
                stopped = False
                for _hop in range(hop_budget):
                    if cs == st:
                        break
                    e = t_gentry[cs]
                    if lg == e:
                        nxt = local_next(cs, l_local[st])
                    elif not e <= lg <= t_gexit[cs]:
                        nxt = t_parent[cs]
                        if nxt < 0:
                            raise SchemeError(
                                f"label {target} escapes tree at root "
                                f"{current}")
                    else:
                        w = t_splitter[cs]
                        for j in range(l_ge_start[st], l_ge_end[st]):
                            if ge_psplit[j] == w:
                                if current == ge_portal[j]:
                                    nxt = ge_csplit[j]
                                else:
                                    nxt = local_next(cs, ge_plab[j])
                                break
                        else:
                            hs = t_hsplit[cs]
                            if hs < 0:
                                raise SchemeError(
                                    f"vertex {current} lacks "
                                    "heavy-splitter info for label "
                                    f"{target}")
                            if current == t_hportal[cs]:
                                nxt = hs
                            else:
                                nxt = local_next(cs, t_hlab[cs])
                    if nxt is None:
                        # the protocol itself stopped short — corrupt
                        # artifact regardless of any hop budget
                        stopped = True
                        break
                    sn = tree_slots[nxt][tid]
                    if t_parent[cs] == nxt:
                        weight += t_parent_w[cs]
                    else:
                        weight += t_parent_w[sn]
                    path.append(nxt)
                    current = nxt
                    cs = sn
                if current != target:
                    if budgeted and not stopped:
                        raise HopBudgetError(
                            f"route {source} -> {target} exhausted the "
                            f"max_hops={max_hops} budget at {current} "
                            f"after {len(path) - 1} hops; retry with a "
                            "larger budget")
                    raise SchemeError(
                        f"routing {source} -> {target} stopped at "
                        f"{current}")
                results[idx] = CompiledRoute(
                    source=source, target=target, path=path,
                    weight=weight, tree_center=center,
                    found_level=level)
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Compiled distance estimation
# ----------------------------------------------------------------------
@dataclass
class QueryResult:
    """Outcome of one Algorithm-2 query."""

    u: int
    v: int
    estimate: float
    iterations: int        # while-loop iterations (<= k-1)
    final_center: int


class CompiledEstimation(_CompiledArtifact):
    """Flat-array serve-side artifact of the Theorem-6 sketches."""

    kind = _KIND_ESTIMATION
    _pair_noun = "query"

    _FIELDS = (
        ("sk_pivot", _INT), ("sk_pivot_d", _FLOAT),
        ("cv_start", _INT), ("cv_center", _INT), ("cv_value", _FLOAT),
        ("sketch_words", _INT),
    )
    _LISTED = ("sk_pivot", "sk_pivot_d", "cv_start", "cv_center",
               "cv_value")

    @cached_property
    def _cluster_values(self) -> List[Dict[int, float]]:
        lists = self._lists
        cv_start = lists["cv_start"]
        cv_center = lists["cv_center"]
        cv_value = lists["cv_value"]
        return [{cv_center[j]: cv_value[j]
                 for j in range(cv_start[v], cv_start[v + 1])}
                for v in range(self._n)]

    # -- reporting -----------------------------------------------------
    def max_sketch_words(self) -> int:
        return _most(self._sketch_words)

    def average_sketch_words(self) -> float:
        return _mean(self._sketch_words)

    def __repr__(self) -> str:
        return f"CompiledEstimation(n={self._n}, k={self._k})"

    # -- serving -------------------------------------------------------
    def query(self, u: int, v: int) -> QueryResult:
        """Algorithm 2 (Dist) on one pair: the estimate, the while-loop
        iterations and the center whose cluster value it read."""
        pair = [(u, v)]
        validate_pairs(pair, self._n, "query")
        trace: List[Tuple[int, int]] = []
        (estimate,) = self._estimate_many_validated(pair, trace)
        return QueryResult(u, v, estimate, *trace[0])

    def estimate(self, u: int, v: int) -> float:
        """Just the distance estimate."""
        return self.query(u, v).estimate

    def estimate_many(self, pairs: Sequence[Tuple[int, int]]
                      ) -> List[float]:
        """Batch Algorithm 2; returns estimates in input order."""
        pairs = _as_batch(pairs)
        validate_pairs(pairs, self._n, "query")
        return self._estimate_many_validated(pairs)

    def _estimate_many_validated(
            self, pairs: Sequence[Tuple[int, int]],
            trace: Optional[List[Tuple[int, int]]] = None) -> List[float]:
        """Algorithm 2 per pair, off the two endpoints' sketch rows —
        the one body every estimate and query goes through — minus the
        input prepass: the pool's workers and the broker enter here,
        their callers having run the same validation already.  Appends
        each pair's ``(iterations, final center)`` to ``trace`` when
        given."""
        k = self._k
        cluster_values = self._cluster_values
        sk_pivot = self._lists["sk_pivot"]
        sk_pivot_d = self._lists["sk_pivot_d"]
        out: List[float] = []
        for u, v in pairs:
            side_u, side_v = u, v
            i = 0
            w = u
            if u != v:
                while w not in cluster_values[side_v]:
                    i += 1
                    if i >= k:
                        raise SchemeError(
                            f"Dist({u}, {v}) ran out of levels; "
                            "top-level cluster should span V")
                    side_u, side_v = side_v, side_u
                    w = sk_pivot[side_u * k + i]
                    if w < 0:
                        raise SchemeError(
                            f"missing level-{i} pivot in sketch")
                out.append(sk_pivot_d[side_u * k + i]
                           + cluster_values[side_v][w])
            else:
                out.append(0.0)
            if trace is not None:
                trace.append((i, w))
        return out


# ----------------------------------------------------------------------
def _artifact_class(kind):
    """The artifact class of a header's ``kind``, or ``None``."""
    if kind == _KIND_ROUTING:
        return CompiledScheme
    if kind == _KIND_ESTIMATION:
        return CompiledEstimation
    if kind == _KIND_DENSE:
        from .dense import DenseRoutingPlane  # circular-import guard
        return DenseRoutingPlane
    return None


def load_artifact(path: Union[str, Path]):
    """Load any artifact kind, dispatching on the header."""
    kind, meta, manifest, payload = _read_container(path)
    cls = _artifact_class(kind)
    if cls is None:
        raise ArtifactError(f"{path}: unknown artifact kind {kind!r}")
    return cls._decode(path, meta, manifest, payload)


def attach_artifact(header: Dict, buffer):
    """Attach any artifact kind from :meth:`export_buffers` output,
    dispatching on the header — the in-memory sibling of
    :func:`load_artifact`."""
    cls = _artifact_class(header.get("kind"))
    if cls is None:
        raise ArtifactError(f"unknown artifact kind "
                            f"{header.get('kind')!r} in attach header")
    return cls.attach(header, buffer)

"""Artifact transport: getting one compiled artifact into N workers.

The pool pays for the artifact once and ships it once.  The parent packs
the artifact's flat arrays into one ``multiprocessing.shared_memory``
block (via ``export_buffers``); each worker attaches the block by name,
copies it into private numpy columns (``frombuffer`` + ``astype``) and
closes its mapping straight away; the lists a worker's parent walk
reads are built on its first small batch.  Works under every start
method: the init tuple is a name and a header dict.

:class:`ArtifactHandle` owns the parent side (and the cleanup — the
parent alone unlinks shared memory); :func:`attach_from_init` is the
worker side.
"""

from __future__ import annotations

from multiprocessing import shared_memory as _shared_memory
from typing import Optional, Tuple

from ..core.compiled import attach_artifact


class ArtifactHandle:
    """Parent-side transport state for one pool.

    Builds the picklable ``init`` tuple workers attach from, and owns
    the shared memory block behind it: :meth:`close` unlinks it, and is
    idempotent so the pool can call it from both normal shutdown and
    error paths.
    """

    def __init__(self, artifact) -> None:
        buffers = artifact.export_buffers()
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, buffers.nbytes))
        shm.buf[:buffers.nbytes] = buffers.payload
        self._shm = shm
        self.init: Tuple = (shm.name, buffers.header())

    @property
    def shm_name(self) -> Optional[str]:
        """The shared-memory block's name (``None`` once closed)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        if self._shm is not None:
            shm, self._shm = self._shm, None
            try:
                shm.close()
            finally:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass


def attach_from_init(init: Tuple):
    """Worker-side attach: rebuild the serving artifact from an
    :class:`ArtifactHandle` init tuple, then close the mapping — the
    artifact holds private copies, so nothing views the segment after.

    Attaching registers the segment with the resource tracker a second
    time, which is deliberately left alone: every pool worker — forked
    *or* spawned — inherits the parent's tracker (``spawn`` ships the
    tracker fd in its preparation data), whose set-based cache
    deduplicates the registration, and the parent's ``unlink`` removes
    it exactly once.  A worker-side unregister would double-remove and
    make the tracker log ``KeyError`` noise.
    """
    name, header = init
    shm = _shared_memory.SharedMemory(name=name)
    try:
        return attach_artifact(header, shm.buf)
    finally:
        shm.close()

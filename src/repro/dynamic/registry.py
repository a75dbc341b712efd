"""Versioned on-disk artifact registry with atomic publication.

The serving side (pool workers, the traffic server) consumes compiled
``.cra`` artifacts; the dynamic control plane produces a fresh one per
rebuild.  :class:`ArtifactRegistry` is the durable handoff between the
two: a directory of **generation-numbered** artifact files plus one
``manifest.json`` describing them.

Guarantees:

* **Monotonic generations** — every :meth:`publish` allocates the next
  integer; numbers are never reused, even across retirements and
  process restarts (``next_generation`` persists in the manifest).
* **Atomic manifest** — the manifest is rewritten via write-temp +
  ``fsync`` + ``os.replace`` (and the directory is fsynced after the
  rename), so a reader never observes a torn manifest and a published
  manifest survives a power loss; the
  artifact file is fully written (and checksummed) *before* the
  manifest mentions it, so every generation the manifest lists is
  loadable.
* **Pin beats retire** — :meth:`pin` marks a generation as protected
  (a rollback anchor); :meth:`retire` refuses pinned generations and
  otherwise deletes the payload while keeping the manifest row as an
  audit record.

The registry stores *files*, not live objects: publishing goes through
the artifact's own versioned ``save()`` format and loading through
:func:`repro.core.compiled.load_artifact`, so anything the registry
hands out went through the same integrity checks as any other ``.cra``
file.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..dataclass import dataclass
from ..exceptions import ArtifactError, ParameterError
from ..core.compiled import load_artifact
from ..telemetry.trace import maybe_span

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1


@dataclass
class GenerationRecord:
    """One manifest row: a published artifact generation."""

    generation: int
    kind: str                    #: artifact kind ("routing", ...)
    filename: str                #: payload file, relative to the root
    sha256: str                  #: digest of the payload file
    num_vertices: int
    created: float               #: unix timestamp of publication
    fingerprint: Optional[str] = None   #: graph fingerprint, if known
    pinned: bool = False
    retired: bool = False
    note: str = ""

    def describe(self) -> str:
        flags = "".join(c for c, on in (("P", self.pinned),
                                        ("R", self.retired)) if on)
        fp = (self.fingerprint[:12] if self.fingerprint else "-")
        return (f"gen {self.generation:>4}  {self.kind:<12} "
                f"n={self.num_vertices:<6} fp={fp:<12} "
                f"[{flags or ' '}] {self.note}")


class ArtifactRegistry:
    """Directory-backed registry of generation-numbered artifacts."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: Dict[int, GenerationRecord] = {}
        self._next_generation = 1
        self._load_manifest()

    # -- manifest persistence -------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self.manifest_path
        if not path.exists():
            return
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ArtifactError(
                f"{path}: unreadable registry manifest: {exc}") from exc
        if data.get("format") != MANIFEST_FORMAT:
            raise ArtifactError(
                f"{path}: manifest format {data.get('format')!r} "
                f"(this build reads format {MANIFEST_FORMAT})")
        self._next_generation = int(data["next_generation"])
        for row in data["generations"]:
            record = GenerationRecord(**row)
            self._records[record.generation] = record

    def _write_manifest(self) -> None:
        data = {
            "format": MANIFEST_FORMAT,
            "next_generation": self._next_generation,
            "generations": [asdict(self._records[g])
                            for g in sorted(self._records)],
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.manifest_path)
        # fsync the directory so the rename itself is durable; some
        # filesystems refuse O_RDONLY directory fds — best effort there
        try:
            dir_fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    # -- publication lifecycle ------------------------------------------
    def publish(self, artifact, fingerprint: Optional[str] = None,
                note: str = "") -> GenerationRecord:
        """Persist ``artifact`` as the next generation.

        The payload file is fully written and checksummed before the
        manifest is swapped in, so a crash mid-publish leaves at worst
        an orphaned payload file the manifest never references.
        """
        generation = self._next_generation
        with maybe_span("registry.publish",
                        attrs={"generation": generation}):
            filename = f"gen-{generation:06d}.cra"
            path = self.root / filename
            artifact.save(path)
            record = GenerationRecord(
                generation=generation,
                kind=artifact.kind,
                filename=filename,
                sha256=_file_sha256(path),
                num_vertices=artifact.num_vertices,
                created=time.time(),
                fingerprint=fingerprint,
                note=note,
            )
            self._next_generation = generation + 1
            self._records[generation] = record
            self._write_manifest()
        return record

    def pin(self, generation: int) -> GenerationRecord:
        """Protect a generation from retirement (a rollback anchor)."""
        record = self.get(generation)
        if record.retired:
            raise ArtifactError(
                f"generation {generation} is retired; cannot pin")
        record.pinned = True
        self._write_manifest()
        return record

    def unpin(self, generation: int) -> GenerationRecord:
        record = self.get(generation)
        record.pinned = False
        self._write_manifest()
        return record

    def retire(self, generation: int) -> GenerationRecord:
        """Delete a generation's payload (the manifest row stays as an
        audit record).  Pinned generations refuse."""
        record = self.get(generation)
        if record.pinned:
            raise ArtifactError(
                f"generation {generation} is pinned; unpin before "
                "retiring")
        if not record.retired:
            record.retired = True
            try:
                (self.root / record.filename).unlink()
            except FileNotFoundError:
                pass
            self._write_manifest()
        return record

    # -- lookup ----------------------------------------------------------
    def get(self, generation: int) -> GenerationRecord:
        try:
            return self._records[generation]
        except KeyError:
            raise ParameterError(
                f"unknown generation {generation}; registry holds "
                f"{sorted(self._records) or 'none'}") from None

    def generations(self, kind: Optional[str] = None,
                    include_retired: bool = True
                    ) -> List[GenerationRecord]:
        """All manifest rows, ascending by generation."""
        return [r for g, r in sorted(self._records.items())
                if (kind is None or r.kind == kind)
                and (include_retired or not r.retired)]

    def latest(self, kind: Optional[str] = None
               ) -> Optional[GenerationRecord]:
        """The newest live (non-retired) generation, if any."""
        live = self.generations(kind=kind, include_retired=False)
        return live[-1] if live else None

    def find_fingerprint(self, fingerprint: str
                         ) -> List[GenerationRecord]:
        """Every live generation published for this graph fingerprint
        (ascending) — lets a control plane skip re-publishing a state
        it already shipped."""
        return [r for r in self.generations(include_retired=False)
                if r.fingerprint == fingerprint]

    def load(self, generation: int):
        """Load a generation's artifact, verifying its checksum."""
        record = self.get(generation)
        if record.retired:
            raise ArtifactError(
                f"generation {generation} is retired; its payload is "
                "gone")
        path = self.root / record.filename
        if not path.exists():
            raise ArtifactError(
                f"generation {generation}: payload {path} is missing "
                "(registry directory modified externally?)")
        digest = _file_sha256(path)
        if digest != record.sha256:
            raise ArtifactError(
                f"generation {generation}: payload checksum mismatch "
                f"({digest[:12]} != manifest {record.sha256[:12]})")
        return load_artifact(path)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        live = sum(1 for r in self._records.values() if not r.retired)
        return (f"ArtifactRegistry({str(self.root)!r}, "
                f"generations={len(self._records)}, live={live})")


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()

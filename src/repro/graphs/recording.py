"""Optional support-edge recording for incremental rebuilds.

The incremental builder (:mod:`repro.dynamic`) needs to know which
edges a finished construction actually *leaned on*: the edges whose
weight, if increased, could change a decision the build made.  Every
weight-consuming step of the construction is a strict-``<`` relaxation,
so the sound characterization is the set of **committed winners** —
edges that at some point produced a strictly improving update.  An edge
that never won anywhere only ever produced candidates that lost a
strict comparison; making it heavier keeps every one of those
comparisons losing, so the entire build transcript — values, parents,
tie-breaks, frontiers, round charges — is unchanged.

Winners are recorded together with the **rounding unit** the relaxation
consumed the weight under.  The rounded source detection explores
weights ``ceil(w / unit) * unit``; a weight change that leaves the
rounded value at that unit unchanged is invisible to the whole call,
committed winner or not.  The fast-path certificate is therefore per
``(edge, unit)``: a weight increase ``w -> w'`` on edge ``e`` is
*certified invisible* iff for every recorded unit ``u`` of ``e``,
``ceil(w/u) == ceil(w'/u)`` — where the raw (un-rounded) explorations
record the sentinel unit ``None``, which no change ever satisfies.
(Decreases are never certified: a shrinking edge can mint new winners
anywhere.)  One detection call commits at exactly **one** unit, its
``eps / (2B)`` (:mod:`repro.sketches.source_detection` runs the finest
rounding scale only, which provably wins every cell); an edge's *set*
of units is across the build's detection calls, which differ in hop
bound and ``eps``.  Every such unit is below 1/2 and weights are
integers, so an increase on a committed edge always moves its rounded
weight: in effect the certificate reads "the edge has no commit",
and the unit is what lets two transcripts be compared per relaxation
mode (:meth:`SupportRecorder.snapshot`).

Each :func:`detect_sources` call also notes its ``(hop_bound ->
num_scales)`` pair (**scale-grid notes**).  ``num_scales`` — a factor of
the call's round charge — is the *only* consumer of
``graph.max_weight()`` in the whole build, so a weight increase that
keeps every recorded grid's scale count unchanged leaves every round
charge as scratch would recompute it — a much sharper compile-only guard
than requiring the raw max weight to be unchanged.

This module is the recording side: a process-global (single-threaded by
design — builds are single-threaded) :class:`SupportRecorder` that the
relaxation kernels feed when one is active, and a :func:`recording`
context manager the incremental builder wraps around an instrumented
build.  When no recorder is active the kernels pay one ``is None``
check, nothing else.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Set, Tuple

_ACTIVE: Optional["SupportRecorder"] = None

#: Sentinel for "the relaxation consumed the raw weight" (no rounding
#: unit can absorb a change there).
RAW = None


class SupportRecorder:
    """Accumulates the per-unit support-edge evidence of one build."""

    __slots__ = ("units", "scale_grids")

    def __init__(self) -> None:
        #: undirected edge -> set of rounding units it won under
        #: (``None`` = raw weight).
        self.units: Dict[Tuple[int, int], Set[Optional[float]]] = {}
        #: detection hop bound -> number of distance scales its round
        #: charge counts (the build's only max-weight input)
        self.scale_grids: Dict[int, int] = {}

    def note_scale_grid(self, hop_bound: int, num_scales: int) -> None:
        """Record one detection call's ``hop_bound -> num_scales``."""
        self.scale_grids[hop_bound] = num_scales

    def commit(self, u: int, v: int, unit: Optional[float] = RAW) -> None:
        """Record one committed winner edge ``{u, v}`` at ``unit``."""
        key = (u, v) if u < v else (v, u)
        bucket = self.units.get(key)
        if bucket is None:
            bucket = self.units[key] = set()
        bucket.add(unit)

    def commit_pairs(self, pairs: Iterable[Tuple[int, int]],
                     unit: Optional[float] = RAW) -> None:
        """Record many committed winner edges at one ``unit``."""
        units = self.units
        for u, v in pairs:
            key = (u, v) if u < v else (v, u)
            bucket = units.get(key)
            if bucket is None:
                bucket = units[key] = set()
            bucket.add(unit)

    def certifies_increase(self, u: int, v: int, old_w: int,
                           new_w: int) -> bool:
        """Whether ``{u, v}: old_w -> new_w`` is provably invisible.

        Requires ``new_w >= old_w`` (callers gate on increase-only
        batches) and checks every recorded unit: a raw commit is never
        absorbed; a rounded commit is absorbed iff the rounded weight at
        that unit is unchanged.
        """
        if new_w < old_w:
            return False
        bucket = self.units.get((u, v) if u < v else (v, u))
        if bucket is None:
            return True
        for unit in bucket:
            if unit is RAW:
                return False
            if math.ceil(old_w / unit) != math.ceil(new_w / unit):
                return False
        return True

    def snapshot(self) -> Dict[Tuple[int, int], frozenset]:
        """A frozen copy of the transcript: edge -> frozenset of units.

        The comparison form of the support evidence — two builds lean
        on the same edges iff their snapshots are equal.  The
        differential harness uses it to pin the vectorized join paths
        to the callback oracle's transcript.
        """
        return {edge: frozenset(bucket)
                for edge, bucket in self.units.items()}

    def __len__(self) -> int:
        return len(self.units)


def active() -> Optional[SupportRecorder]:
    """The currently installed recorder, or ``None``."""
    return _ACTIVE


class recording:
    """Context manager installing ``rec`` as the active recorder.

    Not reentrant: nesting raises, because a nested build recording
    into a different set would silently split the support evidence.
    """

    def __init__(self, rec: SupportRecorder) -> None:
        self._rec = rec

    def __enter__(self) -> SupportRecorder:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("support recording is already active")
        _ACTIVE = self._rec
        return self._rec

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

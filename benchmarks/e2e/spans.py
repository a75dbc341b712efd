"""Harness-side spans around the calls into each layer.

Kept in memory, written as JSON lines when the run ends.  One record per
span: ``id``, ``parent`` (``null`` at the root), ``run`` (shared by
every span of a run), ``name``, ``start`` and ``end`` in seconds on the
harness's ``perf_counter`` clock, and any attributes.  A layer's self
time is its span minus the part its children cover.  Nothing under
``src/`` is instrumented; spans named ``ledger:*`` and ``server.*``
replay durations the program itself measured (``CostLedger`` phase
seconds, the child's load and swap clocks) under the call that caused
them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import List, Optional


class SpanLog:
    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.records: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the body; yields the record (``None`` when disabled).
        Nested ``span`` calls parent to the enclosing one."""
        if not self.enabled:
            yield None
            return
        record = self._new(name, self._open[-1] if self._open else None,
                           attrs)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], **attrs) -> None:
        """Record a span timed elsewhere (a concurrent request, or a
        duration the program reported) under an explicit parent."""
        if self.enabled:
            record = self._new(name, parent, attrs)
            record["start"], record["end"] = start, end

    def _new(self, name: str, parent: Optional[int], attrs: dict) -> dict:
        record = {"id": len(self.records), "parent": parent,
                  "run": self.run_id, "name": name, **attrs}
        self.records.append(record)
        return record

    def dump(self) -> str:
        """One JSON object per line."""
        return "".join(json.dumps(record) + "\n"
                       for record in self.records)

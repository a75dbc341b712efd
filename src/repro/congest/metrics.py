"""Round / message accounting for distributed executions.

Every construction phase in the library reports its cost through a
:class:`CostLedger`.  Costs come from two kinds of executions:

* **simulated** — the generic round engine ran node programs and counted
  actual rounds and delivered words;
* **scheduled** — a round-by-round phase (e.g. a multi-source Bellman–Ford
  with congestion) measured, per iteration, the maximum number of words any
  single edge had to carry, and charged ``ceil(words / capacity)`` rounds
  for that iteration — exactly the pipelining bound the paper uses.

The ledger keeps a named breakdown so benchmarks can report per-phase
round counts next to the paper's per-phase bounds.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, Iterator, List, Tuple

from ..dataclass import dataclass


@dataclass
class PhaseCost:
    """Cost of one named construction phase.

    ``seconds`` is host wall-clock for the phase's dominant kernel —
    purely observational (benchmarks report it), never part of the
    simulated-cost model and never compared by the differential
    harnesses.
    """

    name: str
    rounds: int
    messages: int = 0
    words: int = 0
    seconds: float = 0.0

    def __add__(self, other: "PhaseCost") -> "PhaseCost":
        return PhaseCost(self.name, self.rounds + other.rounds,
                         self.messages + other.messages,
                         self.words + other.words,
                         self.seconds + other.seconds)


class CostLedger:
    """Accumulates :class:`PhaseCost` records for one construction run."""

    def __init__(self) -> None:
        self._phases: List[PhaseCost] = []

    def add(self, name: str, rounds: int, messages: int = 0,
            words: int = 0, seconds: float = 0.0) -> None:
        """Record a phase; zero-round phases are kept for the breakdown."""
        if rounds < 0 or messages < 0 or words < 0 or seconds < 0:
            raise ValueError("phase costs must be non-negative")
        self._phases.append(PhaseCost(name, rounds, messages, words,
                                      seconds))

    def merge(self, other: "CostLedger", prefix: str = "") -> None:
        """Append all phases of ``other``, optionally prefixing names."""
        for phase in other._phases:
            self._phases.append(PhaseCost(prefix + phase.name, phase.rounds,
                                          phase.messages, phase.words,
                                          phase.seconds))

    @property
    def total_rounds(self) -> int:
        return sum(p.rounds for p in self._phases)

    @property
    def total_messages(self) -> int:
        return sum(p.messages for p in self._phases)

    @property
    def total_words(self) -> int:
        return sum(p.words for p in self._phases)

    def phases(self) -> List[PhaseCost]:
        return list(self._phases)

    def breakdown(self) -> Dict[str, int]:
        """Phase name -> rounds, merging repeated names."""
        out: Dict[str, int] = {}
        for phase in self._phases:
            out[phase.name] = out.get(phase.name, 0) + phase.rounds
        return out

    def seconds_breakdown(self) -> Dict[str, float]:
        """Phase name -> wall seconds, merging repeated names.

        Only phases whose producers pass ``seconds=`` contribute;
        benchmarks group these by prefix for per-phase build timing.
        """
        out: Dict[str, float] = {}
        for phase in self._phases:
            out[phase.name] = out.get(phase.name, 0.0) + phase.seconds
        return out

    def publish(self, registry, prefix: str = "repro_build") -> None:
        """Export this ledger's totals into a telemetry registry.

        One counter family per cost dimension, labeled by phase name —
        ``<prefix>_rounds_total{phase=...}``, ``..._messages_total``,
        ``..._words_total``, ``..._seconds_total`` — so a scrape shows
        exactly the per-phase accounting :meth:`breakdown` and
        :meth:`seconds_breakdown` report.  Counters only accumulate:
        publishing two ledgers (e.g. successive rebuilds) into one
        registry sums them, which is the fleet-facing view; per-run
        numbers stay on the ledger itself.
        """
        rounds = registry.counter(
            f"{prefix}_rounds_total",
            "CONGEST rounds per construction phase",
            labelnames=("phase",))
        messages = registry.counter(
            f"{prefix}_messages_total",
            "CONGEST messages per construction phase",
            labelnames=("phase",))
        words = registry.counter(
            f"{prefix}_words_total",
            "CONGEST words per construction phase",
            labelnames=("phase",))
        seconds = registry.counter(
            f"{prefix}_seconds_total",
            "host wall-clock seconds per construction phase",
            labelnames=("phase",))
        by_phase: Dict[str, PhaseCost] = {}
        for phase in self._phases:
            merged = by_phase.get(phase.name)
            by_phase[phase.name] = (phase if merged is None
                                    else merged + phase)
        for name, cost in by_phase.items():
            rounds.labels(phase=name).inc(cost.rounds)
            messages.labels(phase=name).inc(cost.messages)
            words.labels(phase=name).inc(cost.words)
            seconds.labels(phase=name).inc(cost.seconds)

    def __iter__(self) -> Iterator[PhaseCost]:
        return iter(self._phases)

    def __repr__(self) -> str:
        return (f"CostLedger(rounds={self.total_rounds}, "
                f"phases={len(self._phases)})")

    def format_table(self) -> str:
        """Human-readable breakdown table (for examples / benchmarks)."""
        lines = [f"{'phase':<42} {'rounds':>10} {'messages':>10}"]
        lines.append("-" * 64)
        for phase in self._phases:
            lines.append(
                f"{phase.name:<42} {phase.rounds:>10} {phase.messages:>10}")
        lines.append("-" * 64)
        lines.append(f"{'TOTAL':<42} {self.total_rounds:>10} "
                     f"{self.total_messages:>10}")
        return "\n".join(lines)


def pipelined_rounds(total_words: int, capacity_words: int,
                     depth: int) -> int:
    """Rounds for a pipelined broadcast/convergecast (Lemma 1).

    Shipping ``M`` words over a BFS tree of depth ``depth`` with per-edge
    capacity ``c`` takes ``ceil(M / c) + depth`` rounds.
    """
    if capacity_words < 1:
        raise ValueError("capacity_words must be >= 1")
    waves = -(-total_words // capacity_words) if total_words > 0 else 0
    return waves + depth


def congestion_rounds(per_iteration_edge_words: List[int],
                      capacity_words: int) -> int:
    """Rounds for an iterated exploration with measured congestion.

    ``per_iteration_edge_words[i]`` is the maximum number of words any
    single edge direction must carry during iteration ``i``.  Each
    iteration is scheduled in ``max(1, ceil(words / capacity))`` rounds.
    """
    if capacity_words < 1:
        raise ValueError("capacity_words must be >= 1")
    total = 0
    for words in per_iteration_edge_words:
        total += max(1, -(-words // capacity_words))
    return total

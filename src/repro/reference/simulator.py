"""Synchronous round engine for the CONGEST model — the oracle.

Production code runs :class:`~repro.congest.fast_engine.FastSimulator`;
this dict-of-deques engine is the semantic reference
``tests/congest/test_engine_equivalence.py`` constructs directly and
checks it against, field for field.  Like the rest of
:mod:`repro.reference`, nothing outside the tests imports it.

Executes a :class:`NodeProgram` on every node of a :class:`Network`:

* rounds are synchronous; every link carries at most ``capacity_words``
  words per direction per round (excess messages stay queued, FIFO);
* a single message larger than the capacity is rejected — programs must
  split big records themselves;
* execution stops at *quiescence* (no queued or freshly emitted messages)
  or when ``max_rounds`` is hit, whichever is first.

The engine reports measured rounds, delivered messages/words and the
maximum per-link queue ever seen (the congestion the paper's analysis
bounds via cluster-overlap arguments).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from ..congest.fast_engine import RunReport
from ..congest.messages import (
    DEFAULT_CAPACITY_WORDS,
    Message,
    check_fits_capacity,
)
from ..congest.network import Network
from ..congest.node import NodeProgram, make_contexts
from ..exceptions import SimulationError


class Simulator:
    """Runs one node program over all nodes of a network."""

    def __init__(self, network: Network,
                 capacity_words: int = DEFAULT_CAPACITY_WORDS) -> None:
        if capacity_words < 1:
            raise SimulationError(
                f"capacity_words must be >= 1, got {capacity_words}")
        self._network = network
        self._capacity = capacity_words

    @property
    def network(self) -> Network:
        return self._network

    @property
    def capacity_words(self) -> int:
        return self._capacity

    def run(self, program: NodeProgram, max_rounds: int = 1_000_000
            ) -> RunReport:
        """Execute ``program`` until quiescence or ``max_rounds``."""
        network = self._network
        contexts = make_contexts(network)
        queues: Dict[Tuple[int, int], Deque[Message]] = {
            link: deque() for link in network.links()}

        def enqueue(sender: int, outgoing) -> None:
            for target, message in outgoing:
                if (sender, target) not in queues:
                    raise SimulationError(
                        f"node {sender} tried to message non-neighbor "
                        f"{target}")
                check_fits_capacity(message, self._capacity)
                queues[(sender, target)].append(message)

        for u in range(network.num_nodes):
            enqueue(u, program.initialize(contexts[u]))

        rounds = 0
        delivered_messages = 0
        delivered_words = 0
        max_queue_words = 0
        quiescent = not any(queues.values())

        while not quiescent and rounds < max_rounds:
            rounds += 1
            inboxes: Dict[int, List[Tuple[int, Message]]] = {}
            for (sender, target), queue in queues.items():
                budget = self._capacity
                while queue and queue[0].words <= budget:
                    message = queue.popleft()
                    budget -= message.words
                    inboxes.setdefault(target, []).append((sender, message))
                    delivered_messages += 1
                    delivered_words += message.words
            emitted_any = False
            for target, inbox in inboxes.items():
                outgoing = program.on_round(contexts[target], inbox)
                if outgoing:
                    emitted_any = True
                    enqueue(target, outgoing)
            for queue in queues.values():
                pending = sum(m.words for m in queue)
                if pending > max_queue_words:
                    max_queue_words = pending
            quiescent = not emitted_any and not any(queues.values())

        for u in range(network.num_nodes):
            program.finalize(contexts[u])

        return RunReport(rounds=rounds,
                         delivered_messages=delivered_messages,
                         delivered_words=delivered_words,
                         max_link_queue_words=max_queue_words,
                         quiescent=quiescent,
                         contexts=contexts)

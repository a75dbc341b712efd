"""Batched flat-array CONGEST engine: what every simulated phase runs.

Semantically identical to :class:`~repro.reference.simulator.Simulator`
(the dict-of-deques oracle, imported by tests only) but engineered for
scale:

* **Flat integer-indexed links.**  Directed links get dense ids in the
  reference scan order (sender ascending, port order); per-link state is
  parallel arrays (message list + head cursor + pending-word counter),
  not a dict of deques.
* **Vectorized capacity accounting.**  Pending word totals live in one
  numpy int64 array.  Each round, links whose whole backlog fits the
  capacity are classified in one vectorized compare and drained
  wholesale; only genuinely congested links walk messages one by one.
  The per-round max-queue statistic is a single vectorized gather/max
  over the links that changed.  Both run as scalar compares below
  ``_VECTOR_THRESHOLD`` links, where a numpy call costs more than it
  saves.
* **Active-link frontier.**  Only links with queued messages are
  visited, so a round costs O(active + delivered), not O(m), and
  quiescence detection is O(1) instead of an all-queue scan.
* **Bucketed inbox assembly.**  Delivered messages drop into
  preallocated per-node buckets in one pass; no ``setdefault`` churn.

Bit-for-bit equivalence of every :class:`RunReport` field (rounds,
delivered messages/words, max queue, quiescence, final node states) with
the reference engine is enforced by
``tests/congest/test_engine_equivalence.py``.

numpy is required: every kernel has one body.  The matrix kernels
advance their source rows in blocks under a cell limit, bit-identically
for every block size; the one remaining kernel choice is the parent
walk for batches below ``_VECTOR_MIN_PAIRS`` (:mod:`repro.core.dense`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as _np

from ..dataclass import dataclass
from ..exceptions import SimulationError
from .messages import DEFAULT_CAPACITY_WORDS, Message, check_fits_capacity
from .network import Network
from .node import NodeContext, NodeProgram, make_contexts

#: Below this many active links the vectorized path costs more than it
#: saves; fall back to scalar compares.
_VECTOR_THRESHOLD = 8

#: Compact a queue's consumed prefix once the head cursor passes this.
_COMPACT_THRESHOLD = 64


@dataclass
class RunReport:
    """Outcome of one simulated execution."""

    rounds: int
    delivered_messages: int
    delivered_words: int
    max_link_queue_words: int
    quiescent: bool
    contexts: List[NodeContext]

    def state_of(self, node: int) -> Dict:
        """Final state dictionary of ``node``."""
        return self.contexts[node].state


def _drain_mask(words, order: List[int], capacity: int) -> List[bool]:
    """Per link of ``order``, whether its whole backlog fits one round."""
    if len(order) >= _VECTOR_THRESHOLD:
        idx = _np.fromiter(order, dtype=_np.int64, count=len(order))
        return (words[idx] <= capacity).tolist()
    return [words[e] <= capacity for e in order]


def _max_over(words, links: List[int]) -> int:
    """The largest backlog among ``links``."""
    if len(links) >= _VECTOR_THRESHOLD:
        idx = _np.fromiter(links, dtype=_np.int64, count=len(links))
        return int(words[idx].max())
    return max(int(words[e]) for e in links)


class FastSimulator:
    """Flat-array, frontier-driven implementation of the round engine.

    Drop-in replacement for the oracle
    :class:`~repro.reference.simulator.Simulator`: same constructor,
    same :meth:`run` contract, same :class:`RunReport`.
    """

    def __init__(self, network: Network,
                 capacity_words: int = DEFAULT_CAPACITY_WORDS) -> None:
        if capacity_words < 1:
            raise SimulationError(
                f"capacity_words must be >= 1, got {capacity_words}")
        self._network = network
        self._capacity = capacity_words
        # Dense directed-link ids in the reference engine's scan order.
        sender: List[int] = []
        target: List[int] = []
        link_of: List[Dict[int, int]] = []
        for u in range(network.num_nodes):
            ids: Dict[int, int] = {}
            for v in network.neighbors(u):
                ids[v] = len(sender)
                sender.append(u)
                target.append(v)
            link_of.append(ids)
        self._link_sender = sender
        self._link_target = target
        self._link_of = link_of

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
        capacity = self._capacity
        n = network.num_nodes
        num_links = len(self._link_sender)
        link_sender = self._link_sender
        link_target = self._link_target
        link_of = self._link_of

        contexts = make_contexts(network)
        queues: List[List[Message]] = [[] for _ in range(num_links)]
        heads = [0] * num_links
        qwords = _np.zeros(num_links, dtype=_np.int64)
        active: set = set()
        inboxes: List[List[Tuple[int, Message]]] = [[] for _ in range(n)]
        touched_links: List[int] = []   # links whose backlog changed

        def enqueue(sender: int, outgoing) -> None:
            ids = link_of[sender]
            for tgt, message in outgoing:
                e = ids.get(tgt)
                if e is None:
                    raise SimulationError(
                        f"node {sender} tried to message non-neighbor "
                        f"{tgt}")
                check_fits_capacity(message, capacity)
                queues[e].append(message)
                qwords[e] += message.words
                active.add(e)
                touched_links.append(e)

        for u in range(n):
            enqueue(u, program.initialize(contexts[u]))

        rounds = 0
        delivered_messages = 0
        delivered_words = 0
        max_queue_words = 0
        quiescent = not active

        while not quiescent and rounds < max_rounds:
            rounds += 1
            touched_links.clear()
            # --- delivery: one bucketed pass over the frontier -------
            order = sorted(active)
            drain = _drain_mask(qwords, order, capacity)
            touched_targets: List[int] = []
            for pos, e in enumerate(order):
                queue = queues[e]
                head = heads[e]
                bucket = inboxes[link_target[e]]
                if not bucket:
                    touched_targets.append(link_target[e])
                snd = link_sender[e]
                if drain[pos]:
                    # whole backlog fits this round's budget
                    for i in range(head, len(queue)):
                        bucket.append((snd, queue[i]))
                    delivered_messages += len(queue) - head
                    delivered_words += int(qwords[e])
                    queues[e] = []
                    heads[e] = 0
                    qwords[e] = 0
                    active.discard(e)
                else:
                    budget = capacity
                    while head < len(queue) and \
                            queue[head].words <= budget:
                        message = queue[head]
                        head += 1
                        budget -= message.words
                        bucket.append((snd, message))
                        delivered_messages += 1
                        delivered_words += message.words
                    qwords[e] -= capacity - budget
                    if head > _COMPACT_THRESHOLD and 2 * head >= len(queue):
                        del queue[:head]
                        head = 0
                    heads[e] = head
                    touched_links.append(e)   # leftover backlog
            # --- node programs over the bucketed inboxes -------------
            emitted_any = False
            for tgt in touched_targets:
                outgoing = program.on_round(contexts[tgt], inboxes[tgt])
                if outgoing:
                    emitted_any = True
                    enqueue(tgt, outgoing)
                inboxes[tgt] = []
            # --- congestion statistic over changed links only --------
            if touched_links:
                pending = _max_over(qwords, touched_links)
                if pending > max_queue_words:
                    max_queue_words = int(pending)
            quiescent = not emitted_any and not active

        for u in range(n):
            program.finalize(contexts[u])

        return RunReport(rounds=rounds,
                         delivered_messages=delivered_messages,
                         delivered_words=delivered_words,
                         max_link_queue_words=max_queue_words,
                         quiescent=quiescent,
                         contexts=contexts)

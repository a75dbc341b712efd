"""Global broadcast / convergecast (paper, Lemma 1).

    "Suppose every v holds m_v messages of O(1) words, for a total of
     M = sum m_v.  Then all vertices can receive all the messages within
     O(M + D) rounds."

The mechanism is standard pipelining over a BFS tree: messages are
convergecast to the root and then broadcast down; with per-edge capacity
``c`` (the fixed :data:`~repro.congest.messages.DEFAULT_CAPACITY_WORDS`)
this takes ``ceil(M/c) + height`` rounds each way.  We implement the
primitive as a *scheduled* execution: the data movement is performed
exactly (everyone ends up with all messages) and the round cost is charged
from the measured word total and the measured tree height.

A literal flood of the same messages is the test oracle
(:func:`repro.reference.simulate_flood_rounds`); tests check the
scheduled charge dominates/matches it on small inputs.
"""

from __future__ import annotations

from typing import Sequence

from .bfs import BFSTree
from .messages import DEFAULT_CAPACITY_WORDS
from .metrics import pipelined_rounds


def broadcast_all(tree: BFSTree, per_node_words: Sequence[int]) -> int:
    """Round cost of delivering every node's messages to every node.

    ``per_node_words[v]`` is the number of words node ``v`` contributes.
    Returns the Lemma 1 round count: convergecast up plus broadcast down,
    each pipelined: ``2 * (ceil(M/c) + height)``.
    """
    total_words = sum(per_node_words)
    one_way = pipelined_rounds(total_words, DEFAULT_CAPACITY_WORDS,
                               tree.height)
    return 2 * one_way


def convergecast(tree: BFSTree, per_node_words: Sequence[int]) -> int:
    """Round cost of collecting every node's words at the root only."""
    total_words = sum(per_node_words)
    return pipelined_rounds(total_words, DEFAULT_CAPACITY_WORDS,
                            tree.height)


def broadcast_from_root(tree: BFSTree, total_words: int) -> int:
    """Round cost of pushing ``total_words`` from the root to everyone."""
    return pipelined_rounds(total_words, DEFAULT_CAPACITY_WORDS,
                            tree.height)

"""Messages for the CONGEST simulator.

In the CONGEST model a message carries ``O(log n)`` bits, i.e. a constant
number of RAM words (a vertex name, a distance, a port...).  We represent a
message as an immutable payload plus an explicit word count; the simulator
enforces per-edge per-round word capacity against these counts.
"""

from __future__ import annotations

from dataclasses import field
from typing import Any, Tuple

from ..dataclass import dataclass
from ..exceptions import CapacityError

#: Default link capacity: words deliverable per edge direction per round.
#: The model allows one O(1)-word message per neighbor per round; primitives
#: that send composite records charge multiple rounds automatically.
DEFAULT_CAPACITY_WORDS = 2


@dataclass(frozen=True, slots=True)
class Message:
    """One CONGEST message.

    Parameters
    ----------
    kind:
        Short tag naming the protocol step (e.g. ``"bfs"``, ``"dist"``).
    payload:
        Immutable tuple of scalars the message carries.
    words:
        RAM-word size charged against link capacity.  Defaults to the
        payload length (each scalar is one word) with a minimum of 1.
    """

    kind: str
    payload: Tuple[Any, ...] = ()
    words: int = field(default=0)

    def __post_init__(self) -> None:
        if self.words == 0:
            object.__setattr__(self, "words", max(1, len(self.payload)))
        if self.words < 1:
            raise CapacityError(f"message words must be >= 1, got {self.words}")


def check_fits_capacity(message: Message, capacity_words: int) -> None:
    """Raise :class:`CapacityError` if one message alone exceeds capacity.

    A single CONGEST message must fit in one round; algorithms needing to
    ship larger records must split them (the primitives in this package do).
    """
    if message.words > capacity_words:
        raise CapacityError(
            f"message {message.kind!r} needs {message.words} words but link "
            f"capacity is {capacity_words} words/round; split the record")

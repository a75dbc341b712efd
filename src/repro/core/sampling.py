"""The Thorup–Zwick level hierarchy ``V = A_0 ⊇ A_1 ⊇ ... ⊇ A_k = ∅``.

Each vertex of ``A_{i-1}`` survives into ``A_i`` independently with
probability ``n^{-1/k}`` (Section 3).  The hierarchy object also carries
the Claim-3 diagnostics the tests check:

* ``|A_i| <= 4 n^{1-i/k} ln n`` w.h.p.;
* every long shortest path is hit by every sampled level w.h.p.

The paper's scheme breaks outright if ``A_{k-1}`` is empty (level ``k-1``
clusters cover ``V``, terminating the find-tree loop), an event of
constant probability only for tiny ``n``; we resample a bounded number of
times and finally force one surviving vertex, noting that we did.
"""

from __future__ import annotations

import math
import random
from dataclasses import field
from typing import Dict, List, Optional, Sequence

from ..dataclass import dataclass
from ..exceptions import ParameterError
from .params import SchemeParams


@dataclass
class LevelHierarchy:
    """Sampled hierarchy plus per-vertex top level.

    ``levels[i]`` is ``A_i`` (sorted); ``level_of[v]`` is the largest
    ``i`` with ``v ∈ A_i``.  ``A_k = ∅`` is implicit.
    """

    levels: List[List[int]]
    level_of: List[int]
    forced_top: bool = False  #: True when A_{k-1} had to be forced non-empty

    @property
    def k(self) -> int:
        return len(self.levels)

    def level_set(self, i: int) -> List[int]:
        """``A_i``; ``A_k`` and beyond are empty."""
        if i >= len(self.levels):
            return []
        return self.levels[i]

    def centers_at(self, i: int) -> List[int]:
        """``A_i \\ A_{i+1}`` — the cluster centers of level ``i``."""
        if i >= len(self.levels):
            return []
        return [v for v in self.levels[i] if self.level_of[v] == i]

    def size_profile(self) -> List[int]:
        return [len(a) for a in self.levels]

    def respects_claim3_sizes(self, slack: float = 1.0) -> bool:
        """Check ``|A_i| <= slack * 4 n^{1-i/k} ln n`` for all i >= 1."""
        n = len(self.level_of)
        if n < 3:
            return True
        for i in range(1, self.k):
            bound = slack * 4.0 * n ** (1.0 - i / self.k) * math.log(n)
            if len(self.levels[i]) > bound:
                return False
        return True


def sample_levels(num_vertices: int, params: SchemeParams,
                  rng: random.Random,
                  max_resamples: int = 25) -> LevelHierarchy:
    """Sample the hierarchy for ``params.k`` levels.

    Resamples (up to ``max_resamples``) while ``A_{k-1}`` comes out empty,
    then forces one vertex to the top level as a last resort (recorded in
    ``forced_top``); see the module docstring.
    """
    if num_vertices < 1:
        raise ParameterError("cannot sample a hierarchy on 0 vertices")
    k = params.k
    p = params.sample_probability
    forced = False
    for attempt in range(max_resamples + 1):
        levels: List[List[int]] = [list(range(num_vertices))]
        for _ in range(1, k):
            previous = levels[-1]
            levels.append([v for v in previous if rng.random() < p])
        if levels[-1]:
            break
    else:  # pragma: no cover - requires extreme rng behaviour
        pass
    if not levels[-1]:
        survivor = rng.randrange(num_vertices)
        for level in levels[1:]:
            if survivor not in level:
                level.append(survivor)
                level.sort()
        forced = True

    level_of = [0] * num_vertices
    for i in range(1, k):
        for v in levels[i]:
            level_of[v] = i
    return LevelHierarchy(levels=levels, level_of=level_of,
                          forced_top=forced)


def hierarchy_from_levels(levels: Sequence[Sequence[int]],
                          num_vertices: int) -> LevelHierarchy:
    """Build a hierarchy from explicit level sets (for tests).

    Validates nesting and that ``A_0 = V``.
    """
    if not levels or sorted(levels[0]) != list(range(num_vertices)):
        raise ParameterError("A_0 must equal the full vertex set")
    normalized = [sorted(set(level)) for level in levels]
    for upper, lower in zip(normalized, normalized[1:]):
        if not set(lower) <= set(upper):
            raise ParameterError("levels must be nested")
    level_of = [0] * num_vertices
    for i, level in enumerate(normalized):
        for v in level:
            level_of[v] = max(level_of[v], i)
    return LevelHierarchy(levels=[list(l) for l in normalized],
                          level_of=level_of)

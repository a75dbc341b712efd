"""Scheme parameters (paper, Sections 2-3).

Centralizes every constant the construction uses so the builder, the
tests and the benchmarks agree on them:

* ``eps = 1 / (48 k^4)`` — the approximation slack (Section 3.1); chosen
  so the per-iteration ``(1 + O(eps))`` stretch losses accumulate to an
  additive ``o(1)`` over ``k`` iterations (Section 4's recurrence).
* sampling probability ``n^{-1/k}`` per hierarchy level.
* exploration budgets ``4 n^{i/k} ln n`` (Claim 3) capped at ``n - 1``.
* ``B = 4 (n / E[|V'|]) ln n`` — the source-detection hop bound of the
  large-scale preprocessing, where ``V' = A_{ceil(k/2)}``; this is
  ``4 sqrt(n) ln n`` for even ``k`` and ``4 n^{1/2 + 1/(2k)} ln n`` for
  odd ``k`` (Section 3.3.1).
"""

from __future__ import annotations

import math

from ..dataclass import dataclass
from ..exceptions import ParameterError


@dataclass(frozen=True)
class SchemeParams:
    """All derived parameters for one ``(n, k)`` instance."""

    n: int
    k: int
    eps_override: float = 0.0  #: 0 means "use the paper's 1/(48 k^4)"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.eps_override < 0 or self.eps_override >= 1:
            raise ParameterError(
                f"eps_override must be in [0, 1), got {self.eps_override}")

    # ------------------------------------------------------------------
    @property
    def eps(self) -> float:
        """The paper's ``1 / (48 k^4)`` unless overridden."""
        if self.eps_override:
            return self.eps_override
        return 1.0 / (48.0 * self.k ** 4)

    @property
    def sample_probability(self) -> float:
        """Per-level survival probability ``n^{-1/k}``."""
        return max(self.n, 2) ** (-1.0 / self.k)

    @property
    def half_level(self) -> int:
        """``ceil(k/2)`` — the boundary between small and large scales."""
        return math.ceil(self.k / 2)

    @property
    def is_odd(self) -> bool:
        return self.k % 2 == 1

    @property
    def middle_level(self) -> int:
        """``(k-1)/2`` — the odd-``k`` level built by source detection.

        Meaningless (negative use forbidden) when ``k`` is even.
        """
        if not self.is_odd:
            raise ParameterError("middle_level is defined only for odd k")
        return (self.k - 1) // 2

    # ------------------------------------------------------------------
    def exploration_budget(self, i: int) -> int:
        """Claim-3 hop budget ``4 n^{i/k} ln n``, capped at ``n - 1``."""
        if self.n <= 2:
            return max(self.n - 1, 1)
        raw = 4.0 * self.n ** (i / self.k) * math.log(self.n)
        return min(self.n - 1, math.ceil(raw))

    @property
    def detection_hop_bound(self) -> int:
        """``B`` of Section 3.3.1 preprocessing (see module docstring)."""
        expected_vprime = max(self.n, 2) ** (1.0 - self.half_level / self.k)
        if self.n <= 2:
            return max(self.n - 1, 1)
        raw = 4.0 * (self.n / expected_vprime) * math.log(self.n)
        return min(self.n - 1, math.ceil(raw))

    @property
    def hopset_rho(self) -> float:
        """The paper's ``ρ = max(1/k, log log n / sqrt(log n))``."""
        log_n = math.log2(max(self.n, 4))
        return min(0.5, max(1.0 / self.k,
                            math.log2(log_n) / math.sqrt(log_n)))

    # ------------------------------------------------------------------
    @property
    def stretch_bound(self) -> float:
        """The headline guarantee ``4k - 5 + o(1)``.

        The ``o(1)`` term is instantiated from the Section 4 recurrence
        as it appears right before the end of the stretch proof:
        ``(1+5eps)[1 + (4+26eps)(k - 1 + 1/(4k^2))] - (4k - 3) + 2``
        absorbed conservatively — we expose the concrete number the
        analysis yields for the 4k-5 variant.
        """
        eps = self.eps
        k = self.k
        base = (1 + 5 * eps) * (1 + (4 + 26 * eps) * (k - 1 + 1 /
                                                      (4.0 * k * k)))
        # the 4k-5 trick saves 2 * d(u, v); the bound becomes base - 2
        return max(1.0, base - 2.0)

    @property
    def table_size_bound_words(self) -> float:
        """``O(n^{1/k} log^2 n)`` with the paper's constants (Claim 2)."""
        n = max(self.n, 2)
        return 4 * n ** (1.0 / self.k) * math.log(n) * \
            (math.log2(n) ** 1) * 8

    @property
    def label_size_bound_words(self) -> float:
        """``O(k log^2 n)``."""
        n = max(self.n, 2)
        return 8 * self.k * (math.log2(n) + 1) ** 2

    def round_bound(self, hop_diameter: int) -> float:
        """The paper's round bound with the ``min{...}`` subpolynomial
        factor instantiated as ``(log n)^k`` vs ``2^{sqrt(log n)}``."""
        n = max(self.n, 2)
        exponent = 0.5 + (1.0 / (2 * self.k) if self.is_odd
                          else 1.0 / self.k)
        log_n = math.log2(n)
        subpoly = min(log_n ** self.k, 2 ** math.sqrt(log_n))
        return (n ** exponent + hop_diameter) * subpoly

    def __str__(self) -> str:
        return (f"SchemeParams(n={self.n}, k={self.k}, "
                f"eps={self.eps:.3g}, half={self.half_level})")

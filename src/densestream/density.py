"""Cardinality-weighted density measures and their threshold schedules.

The density of a vertex set C is score(C) / S(|C|), where score(C) sums the
weights of all edges inside C and S(n) weighs how much cardinality should
count against raw weight.  Three stock choices of S are provided; any of them
satisfies the monotonicity constraints that make level-wise discovery of
dense sets sound (every dense n-set contains a dense (n-1)-set under the
normalized measure).

A set is *output-dense* when its density reaches the user threshold T, and
*dense* (worth indexing) when it reaches the lower, cardinality-dependent
maintenance threshold T_n.  The T_n schedule interpolates so that
T_{n_max} = T exactly, with spacing controlled by ``delta_it``: an update of
magnitude d then needs at most ceil(d / delta_it) exploration rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

# Single absolute tolerance used for every density/threshold comparison,
# in the engine and in the oracle alike, so set membership is well defined
# despite floating-point summation.
EPS = 1e-9


class DensityFamily(str, Enum):
    """The supported cardinality weights S(n)."""

    AVGWEIGHT = "avgweight"  # S(n) = n(n-1)/2; density = average edge weight
    AVGDEGREE = "avgdegree"  # S(n) = n; density = average weighted degree
    SQRTDENS = "sqrtdens"    # S(n) = sqrt(n(n-1)); geometric middle ground

    def size_weight(self, n: int) -> float:
        """S(n), defined for n >= 2."""
        if n < 2:
            raise ValueError(f"size weight undefined for cardinality {n}")
        if self is DensityFamily.AVGWEIGHT:
            return n * (n - 1) / 2.0
        if self is DensityFamily.AVGDEGREE:
            return float(n)
        return math.sqrt(n * (n - 1))

    def norm(self, n: int) -> float:
        """Normalized weight g(n) = S(n) / (n(n-1))."""
        return self.size_weight(n) / (n * (n - 1))


def delta_it_upper(family: DensityFamily, threshold: float, n_max: int) -> float:
    """Exclusive upper end of the valid ``delta_it`` range.

    Equals S(n_max) * T / (n_max * (n_max - 2)); beyond it the pair
    threshold T_2 would drop to zero or below.
    """
    if n_max < 3:
        raise ConfigError("n_max must be at least 3")
    if threshold <= 0:
        raise ConfigError("threshold must be positive to derive delta_it bounds")
    return family.size_weight(n_max) * threshold / (n_max * (n_max - 2))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DensityConfig:
    """Immutable bundle of density family, thresholds and exploration knob.

    ``explicit_thresholds``, when given, supplies T_2..T_{n_max} directly and
    overrides the derived schedule; the last entry must equal ``threshold``.
    Pure data + pure functions: safe to share across threads.
    """

    family: DensityFamily
    threshold: float           # T: minimum density for the reported answer set
    n_max: int                 # maximum cardinality of interest
    delta_it: float            # per-iteration magnitude; spaces the T_n schedule
    explicit_thresholds: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n_max < 3:
            raise ConfigError("n_max must be at least 3")
        if not 0 <= self.threshold < math.inf:
            raise ConfigError("threshold must be finite and non-negative")
        if self.delta_it <= 0:
            raise ConfigError("delta_it must be positive")
        if self.explicit_thresholds is None:
            upper = delta_it_upper(self.family, self.threshold, self.n_max)
            if not (0 < self.delta_it < upper):
                raise ConfigError(
                    f"delta_it={self.delta_it} outside the valid range (0, {upper})"
                )
        else:
            expected = self.n_max - 1
            if len(self.explicit_thresholds) != expected:
                raise ConfigError(
                    f"explicit thresholds must cover n=2..{self.n_max} "
                    f"({expected} values)"
                )
            if self.explicit_thresholds[-1] != self.threshold:
                raise ConfigError("explicit T_{n_max} must equal the output threshold")
            if not all(0 < t < math.inf for t in self.explicit_thresholds):
                raise ConfigError("explicit thresholds must be finite and positive")
        # Precompute S(n) and T(n) for n = 2..n_max and validate monotonicity.
        sizes = [0.0, 0.0] + [self.family.size_weight(n) for n in range(2, self.n_max + 1)]
        thresholds = [0.0, 0.0] + [self._derive_threshold(n) for n in range(2, self.n_max + 1)]
        prev = None
        for n in range(2, self.n_max + 1):
            tg = thresholds[n] * self.family.norm(n)
            if prev is not None and tg <= prev:
                raise ConfigError(
                    "normalized thresholds T_n * g_n must be strictly increasing"
                )
            prev = tg
        object.__setattr__(self, "_sizes", tuple(sizes))
        object.__setattr__(self, "_thresholds", tuple(thresholds))
        # The tolerant bars every density test compares against: T_n - EPS
        # by cardinality and T - EPS.  Callers on hot paths (the engine, the
        # oracle) compare score / _sizes[n] with them directly.
        object.__setattr__(self, "_bars", tuple(t - EPS for t in thresholds))
        object.__setattr__(self, "_out_bar", self.threshold - EPS)

    def _derive_threshold(self, n: int) -> float:
        if self.explicit_thresholds is not None:
            return self.explicit_thresholds[n - 2]
        if n == self.n_max:
            return self.threshold  # exact by construction
        g_n = self.family.norm(n)
        g_m = self.family.norm(self.n_max)
        spacing = (n - 2) / (n - 1) - (self.n_max - 2) / (self.n_max - 1)
        return (g_m * self.threshold + self.delta_it * spacing) / g_n

    # -- schedule queries ---------------------------------------------------

    def _check_card(self, n: int) -> None:
        if not 2 <= n <= self.n_max:
            raise ValueError(f"cardinality {n} outside [2, {self.n_max}]")

    def threshold_for(self, n: int) -> float:
        """Minimum density for an n-set to be worth indexing (T_n)."""
        self._check_card(n)
        return self._thresholds[n]

    # -- classification -----------------------------------------------------

    def density(self, card: int, score: float) -> float:
        self._check_card(card)
        return score / self._sizes[card]

    def is_dense(self, card: int, score: float) -> bool:
        self._check_card(card)
        return score / self._sizes[card] >= self._bars[card]

    def is_output_dense(self, card: int, score: float) -> bool:
        self._check_card(card)
        return score / self._sizes[card] >= self._out_bar

    def free_extension_depth(self, card: int, score: float) -> int:
        """Largest k such that adding k zero-weight vertices stays dense.

        k >= 1 means the set is too-dense: every single-vertex extension,
        even a disconnected one, is still dense.  Capped at n_max - card.
        """
        self._check_card(card)
        n, sizes, bars = card, self._sizes, self._bars
        while n < self.n_max and score / sizes[n + 1] >= bars[n + 1]:
            n += 1
        return n - card

    # -- exploration budget ---------------------------------------------------

    def iteration_budget(self, delta: float) -> int:
        """ceil(delta / delta_it); 0 for a zero-magnitude (no-op) update."""
        if delta < 0:
            raise ValueError("budget is defined for non-negative magnitudes")
        if delta == 0:
            return 0
        rounds = delta / self.delta_it
        if math.isinf(rounds):
            raise OverflowError(f"round budget for delta {delta} overflows")
        # Guard against float dust pushing an exact ratio over the next integer.
        return max(1, math.ceil(rounds - 1e-9))

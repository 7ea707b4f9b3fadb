"""Cardinality-weighted density measures and their threshold schedules.

The density of a vertex set C is score(C) / S(|C|), where score(C) sums the
weights of all edges inside C and S(n) weighs how much cardinality should
count against raw weight.  Three stock choices of S are provided; any of them
satisfies the monotonicity constraints that make level-wise discovery of
dense sets sound (every dense n-set contains a dense (n-1)-set under the
normalized measure).

A set is *output-dense* when its density reaches the user threshold T, and
*dense* (worth indexing) when it reaches the lower, cardinality-dependent
maintenance threshold T_n.  An update of magnitude d needs at most
ceil(d / delta_it) exploration rounds while the round unit ``delta_it`` is no
larger than any scaled spacing of the normalized thresholds tau_n = T_n * g_n:

    delta_it <= n(n-1) * (tau_n - tau_{n-1})   for n = 3..n_max.

A derived schedule is built from a given ``delta_it``: T_{n_max} = T exactly
and (n-1)(n-2) * (tau_n - tau_{n-1}) = delta_it, which meets the bound.  An
explicit schedule takes no ``delta_it``; its unit is the minimum of the
right-hand side, read from the table.

Why the bound suffices.  Let margin(X) = score(X) - |X|(|X|-1) * tau_|X|, so
X is dense when its margin is non-negative.  Let C (|C| = n) be newly dense
after an update of magnitude d to the pair (a, b), with neither C-a nor C-b
dense (otherwise the cheap step reaches C in round 1).  The identity
sum over v in C of score(C-v) = (n-2) * score(C) gives some v outside
{a, b} whose margin(C-v) exceeds margin(C) by more than
n(n-1) * (tau_n - tau_{n-1}) >= delta_it, so C-v is dense.  Every set
holding both endpoints gains d of margin, so a chain of k sets, each newly
dense and one vertex larger than the last, needs d > (k-1) * delta_it, and
ceil(d / delta_it) rounds reach its end.
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
    """Immutable bundle of density family, thresholds and round unit.

    Without ``explicit_thresholds`` the T_n schedule is derived from
    ``delta_it``, which must lie in (0, ``delta_it_upper``).  With them,
    T_2..T_{n_max} are given directly (the last must equal ``threshold``)
    and ``delta_it`` must be left out: it is set to the table's unit,
    min over n = 3..n_max of n(n-1) * (tau_n - tau_{n-1}), the largest round
    unit for which ceil(d / delta_it) rounds are proven enough (see the
    module docstring).  Pure data + pure functions: safe to share across
    threads.
    """

    family: DensityFamily
    threshold: float           # T: minimum density for the reported answer set
    n_max: int                 # maximum cardinality of interest
    delta_it: Optional[float] = None  # round unit; read from explicit thresholds
    explicit_thresholds: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n_max < 3:
            raise ConfigError("n_max must be at least 3")
        if not 0 <= self.threshold < math.inf:
            raise ConfigError("threshold must be finite and non-negative")
        if self.explicit_thresholds is None:
            if self.delta_it is None:
                raise ConfigError("delta_it is required without explicit thresholds")
            upper = delta_it_upper(self.family, self.threshold, self.n_max)
            if not (0 < self.delta_it < upper):
                raise ConfigError(
                    f"delta_it={self.delta_it} outside the valid range (0, {upper})"
                )
        else:
            if self.delta_it is not None:
                raise ConfigError(
                    "delta_it is read from explicit thresholds and cannot be given")
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
        # Precompute S(n) and T(n) for n = 2..n_max, validate monotonicity
        # and find the table's round unit.
        sizes = [0.0, 0.0] + [self.family.size_weight(n) for n in range(2, self.n_max + 1)]
        thresholds = [0.0, 0.0] + [self._derive_threshold(n) for n in range(2, self.n_max + 1)]
        prev = None
        unit = math.inf
        for n in range(2, self.n_max + 1):
            tg = thresholds[n] * self.family.norm(n)
            if prev is not None:
                if tg <= prev:
                    raise ConfigError(
                        "normalized thresholds T_n * g_n must be strictly increasing"
                    )
                unit = min(unit, n * (n - 1) * (tg - prev))
            prev = tg
        if self.explicit_thresholds is not None:
            object.__setattr__(self, "delta_it", unit)
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

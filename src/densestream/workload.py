"""Synthetic update streams: planted near-cliques mixed with random noise.

Each update picks a sign (negative with a given probability), endpoints
(inside one of a number of disjoint planted vertex blocks with a given
probability, otherwise uniformly over the leftover vertices) and a magnitude
uniform in (0, m].  Negative updates never drive a weight below zero: a
zero-weight target pair is redrawn, a partial weight clamps the magnitude.

With ``reject_too_dense`` a shadow engine replays every candidate and
discards (resampling in place, so the stream length is preserved) any update
that would create a set dense enough to absorb arbitrary vertices under the
gate parameters (avgweight family).

Deltas are quantized to 9 decimals before being applied to the generator's
own bookkeeping, so a written stream replays bit-identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .density import DensityConfig, DensityFamily, delta_it_upper
from .engine import DenseSubgraphEngine
from .graph import EdgeUpdate, WeightedGraph


class WorkloadError(ValueError):
    pass


class _PairPool:
    """Uniform sampling with O(1) add/discard, deterministic under one rng."""

    def __init__(self):
        self._items: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}

    def add(self, pair: tuple[int, int]) -> None:
        if pair not in self._pos:
            self._pos[pair] = len(self._items)
            self._items.append(pair)

    def discard(self, pair: tuple[int, int]) -> None:
        i = self._pos.pop(pair, None)
        if i is None:
            return
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._pos[last] = i

    def sample(self, rng: random.Random) -> tuple[int, int]:
        return self._items[rng.randrange(len(self._items))]

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class SyntheticSpec:
    vertex_count: int = 100_000
    update_count: int = 250_000
    magnitude_max: float = 0.1
    negative_probability: float = 0.3
    planted_probability: float = 0.9
    planted_sets: int = 100
    planted_size: int = 10
    reject_too_dense: bool = False
    gate_threshold: float = 0.7
    gate_delta_it_fraction: float = 0.4
    gate_n_max: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.negative_probability <= 1:
            raise WorkloadError("negative probability must be in [0, 1]")
        if not 0 <= self.planted_probability <= 1:
            raise WorkloadError("planted probability must be in [0, 1]")
        if not 0 < self.magnitude_max < math.inf:
            raise WorkloadError("magnitude bound must be finite and positive")
        if self.update_count < 0:
            raise WorkloadError("update count must not be negative")
        if self.planted_sets < 0:
            raise WorkloadError("planted set count must not be negative")
        if self.planted_sets * self.planted_size > self.vertex_count:
            raise WorkloadError("planted sets exceed the vertex universe")
        if self.planted_sets > 0 and self.planted_size < 2:
            raise WorkloadError("planted sets need at least two vertices")
        if self.planted_sets == 0 and self.planted_probability > 0:
            raise WorkloadError("planted probability needs at least one planted set")
        remaining = self.vertex_count - self.planted_sets * self.planted_size
        if self.planted_probability < 1.0 and remaining < 2:
            raise WorkloadError("no room for updates outside the planted sets")

    def planted_block(self, i: int) -> range:
        """Planted set i occupies a block of consecutive ids, for reproducibility."""
        base = i * self.planted_size
        return range(base + 1, base + self.planted_size + 1)

    def gate_config(self) -> DensityConfig:
        family = DensityFamily.AVGWEIGHT
        upper = delta_it_upper(family, self.gate_threshold, self.gate_n_max)
        return DensityConfig(family, self.gate_threshold, self.gate_n_max,
                             self.gate_delta_it_fraction * upper)


@dataclass
class GenerationReport:
    rejected: int = 0
    negative: int = 0
    planted: int = 0
    sign_flips: int = 0  # negatives turned positive for want of a weighted pair


def generate(spec: SyntheticSpec, report: GenerationReport | None = None) -> list[EdgeUpdate]:
    """Produce the update stream; deterministic for a given seed."""
    rng = random.Random(spec.seed)
    weights: dict[tuple[int, int], float] = {}
    gate: DenseSubgraphEngine | None = None
    if spec.reject_too_dense:
        g = WeightedGraph()
        g.ensure_universe(spec.vertex_count)
        gate = DenseSubgraphEngine(spec.gate_config(), g)
    planted_span = spec.planted_sets * spec.planted_size
    remaining = range(planted_span + 1, spec.vertex_count + 1)
    out: list[EdgeUpdate] = []
    rep = report if report is not None else GenerationReport()

    pools = {True: _PairPool(), False: _PairPool()}

    def draw_pair(planted: bool) -> tuple[int, int]:
        if planted:
            block = spec.planted_block(rng.randrange(spec.planted_sets))
            a, b = rng.sample(block, 2)
        else:
            a, b = rng.sample(remaining, 2)
        return (a, b) if a < b else (b, a)

    for seq in range(1, spec.update_count + 1):
        while True:
            negative = rng.random() < spec.negative_probability
            planted = rng.random() < spec.planted_probability
            pair = draw_pair(planted)
            if negative and weights.get(pair, 0.0) == 0.0:
                # A weightless pair cannot absorb a decrease.  Resampling
                # uniform pairs until one carries weight is, in distribution,
                # a uniform draw over the weighted pairs of the same
                # placement class; when the class holds no weight at all the
                # update turns positive instead.
                if pools[planted]:
                    pair = pools[planted].sample(rng)
                else:
                    negative = False
                    rep.sign_flips += 1
            magnitude = round(spec.magnitude_max * (1.0 - rng.random()), 9)
            if magnitude <= 0.0:
                magnitude = 1e-9
            if negative:
                w = weights[pair]
                delta = -w if magnitude > w else -magnitude
                delta = round(delta, 9)
                if delta == 0.0:
                    continue
            else:
                delta = magnitude
            if gate is not None:
                gate.process_update(pair[0], pair[1], delta, seq)
                if gate.has_too_dense():
                    gate.process_update(pair[0], pair[1], -delta, seq)
                    rep.rejected += 1
                    continue
            new_w = weights.get(pair, 0.0) + delta
            if new_w <= 1e-9:
                weights.pop(pair, None)
                pools[planted].discard(pair)
            else:
                weights[pair] = new_w
                pools[planted].add(pair)
            out.append(EdgeUpdate(seq, pair[0], pair[1], delta))
            if delta < 0:
                rep.negative += 1
            if planted:
                rep.planted += 1
            break
    return out

"""Diversity-aware ordering of reported stories.

Greedy selection: at each step pick the story maximizing
density * (1 - penalty * coverage), where coverage is the fraction of the
story's entities already covered by earlier picks.  Ties break toward the
lexicographically smallest vertex set, then toward the earlier input
position (which matters only for duplicate sets), so the order is
deterministic.

The pool is sorted once by density, highest first and stably.  An adjusted
score never exceeds its density when the density is finite and non-negative
and the penalty lies in [0, 1], so each pick's scan stops at the first story
whose density is below the best adjusted score found so far: no later story
can win.  A story's vertex set is normalized only when a scan first reaches it.
"""

from __future__ import annotations

import math
from typing import Iterable


def rerank_diverse(stories: Iterable[tuple[Iterable[int], float]],
                   penalty: float = 0.8,
                   limit: int | None = None) -> list[tuple[tuple[int, ...], float, float]]:
    """Returns (vertices, density, adjusted score) in pick order."""
    if not 0.0 <= penalty <= 1.0:
        raise ValueError("penalty must lie in [0, 1]")
    vsets: list[tuple[int, ...]] = []
    dens: list[float] = []
    for vs, d in stories:
        vs, d = tuple(vs), float(d)
        if not vs:
            raise ValueError("every story needs at least one vertex")
        if not 0.0 <= d < math.inf:
            raise ValueError("story densities must be finite and non-negative")
        vsets.append(vs)
        dens.append(d)
    normalized = [False] * len(vsets)
    order = sorted(range(len(dens)), key=dens.__getitem__, reverse=True)
    covered: set[int] = set()
    picked: list[tuple[tuple[int, ...], float, float]] = []
    while order and (limit is None or len(picked) < limit):
        best_j = best_i = -1
        best_adj = 0.0
        for j, i in enumerate(order):
            d = dens[i]
            if d < best_adj:
                break
            if not normalized[i]:
                vsets[i] = tuple(sorted(set(vsets[i])))
                normalized[i] = True
            vs = vsets[i]
            overlap = len(covered.intersection(vs))
            adj = d * (1.0 - penalty * overlap / len(vs))
            if (best_j < 0 or adj > best_adj
                    or (adj == best_adj and (vs, i) < (vsets[best_i], best_i))):
                best_j, best_i, best_adj = j, i, adj
        del order[best_j]
        picked.append((vsets[best_i], dens[best_i], best_adj))
        covered.update(vsets[best_i])
    return picked

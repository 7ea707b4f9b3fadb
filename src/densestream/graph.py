"""Adjacency store for the evolving weighted graph.

Only strictly positive weights are stored; a pair without an entry weighs 0
and is a non-edge for neighbor enumeration.  Vertex ids are positive
integers, allocated lazily: the universe is 1..max id seen.  Single
writer; reads are safe between updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .density import EPS


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeUpdate:
    """One stream record: at step ``seq`` the a-b weight moves by ``delta``."""

    seq: int
    a: int
    b: int
    delta: float


class WeightedGraph:
    """Undirected weighted graph with symmetric sparse adjacency."""

    def __init__(self):
        self._adj: dict[int, dict[int, float]] = {}
        self._num_vertices = 0  # highest id seen so far

    # -- vertex universe ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Size N of the current universe (ids 1..N)."""
        return self._num_vertices

    def _touch_vertex(self, v: int) -> None:
        if v < 1:
            raise GraphError(f"vertex ids must be positive, got {v}")
        if v > self._num_vertices:
            self._num_vertices = v

    def ensure_universe(self, n: int) -> None:
        """Grow the universe to at least n vertices without adding edges."""
        self._touch_vertex(n)

    # -- edge access ----------------------------------------------------------

    def weight(self, a: int, b: int) -> float:
        return self._adj.get(a, {}).get(b, 0.0)

    def neighbors(self, u: int) -> dict[int, float]:
        """The neighborhood vector of u: neighbor -> positive weight."""
        return self._adj.get(u, {})

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """All positive-weight edges as (u, v, w) with u < v."""
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    # -- mutation ---------------------------------------------------------------

    def apply_update(self, a: int, b: int, delta: float) -> tuple[float, float]:
        """Shift the a-b weight by delta; returns (weight before, after).

        Weights are clamped at zero (tiny negative residue from decayed
        recomputation is tolerated up to EPS); a pair reaching zero is
        dropped from both adjacency maps.  A rejected update changes nothing.
        """
        if a == b:
            raise GraphError(f"self-loop update on vertex {a}")
        lo, hi = (a, b) if a < b else (b, a)
        if lo < 1:
            raise GraphError(f"vertex ids must be positive, got {lo}")
        before = self.weight(a, b)
        after = before + delta
        if not math.isfinite(after):
            raise GraphError(f"update ({a},{b},{delta}) gives non-finite weight {after}")
        if after < -EPS:
            raise GraphError(
                f"update ({a},{b},{delta}) would drive weight {before} below zero"
            )
        self._touch_vertex(hi)  # covers lo as well
        if after <= EPS:
            after = 0.0
            self._adj.get(a, {}).pop(b, None)
            self._adj.get(b, {}).pop(a, None)
        else:
            self._adj.setdefault(a, {})[b] = after
            self._adj.setdefault(b, {})[a] = after
        return before, after

    # -- subgraph queries ---------------------------------------------------------

    def merged_neighborhood(self, vertices: Iterable[int]) -> dict[int, float]:
        """Summed neighborhood vector of a vertex set, restricted outside it.

        Coordinate y is the total weight between y and the set; zero
        coordinates are absent, so the dict's keys are exactly the set's
        neighbors.
        """
        members = set(vertices)
        merged: dict[int, float] = {}
        adj = self._adj
        get = merged.get
        for v in members:
            row = adj.get(v)
            if row:
                for y, w in row.items():
                    if y not in members:
                        merged[y] = get(y, 0.0) + w
        return merged

    def adjacent(self, vertices: Iterable[int]) -> set[int]:
        """The keys of ``merged_neighborhood``, with no coordinate summed."""
        members = set(vertices)
        return members.union(*[self._adj.get(v, ()) for v in members]) - members

    def subgraph_score(self, vertices: Iterable[int]) -> float:
        """Sum of the weights of all pairs inside the set."""
        members = list(vertices)
        total = 0.0
        for i, u in enumerate(members):
            row = self._adj.get(u)
            if not row:
                continue
            for v in members[i + 1:]:
                total += row.get(v, 0.0)
        return total

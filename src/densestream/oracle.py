"""Ground-truth enumeration of dense vertex sets, plus view diffing.

Two independent strategies: exhaustive subset enumeration, and level-wise
growth (extend each dense n-set by every vertex and keep the dense results,
which is complete because every dense set contains a dense subset one
smaller under the normalized measure).  They are required to agree; tests
exercise both, verification harnesses use the cheaper level-wise form.

Pure functions of a graph snapshot.  Practical only for small instances;
a configurable universe cap guards against accidental blowups.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .density import EPS, DensityConfig
from .graph import WeightedGraph

DEFAULT_UNIVERSE_CAP = 25


class OracleCapacityError(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleResult:
    dense: dict[tuple[int, ...], float]         # set -> density, per-cardinality bar
    output_dense: dict[tuple[int, ...], float]  # the subset clearing the output bar


@dataclass(frozen=True)
class Discrepancy:
    kind: str  # "missing" (oracle only), "extra" (engine only), "density"
    vertices: tuple[int, ...]
    detail: str

    def __str__(self):
        return f"{self.kind} {','.join(map(str, self.vertices))}: {self.detail}"


def _levelwise(graph: WeightedGraph, cfg: DensityConfig) -> dict[tuple[int, ...], float]:
    n_univ = graph.num_vertices
    sizes = cfg._sizes
    bars = [t - EPS for t in cfg._thresholds]
    dense: dict[tuple[int, ...], float] = {}  # set -> density
    # level: bitmask of a dense set -> (sorted vertices, score)
    level: dict[int, tuple[tuple[int, ...], float]] = {}
    pair_bar, pair_size = bars[2], sizes[2]
    for u, v, w in graph.edges():
        d = w / pair_size
        if d >= pair_bar:
            level[(1 << u) | (1 << v)] = ((u, v), w)
            dense[(u, v)] = d
    candidates = [(y, 1 << y, graph.neighbors(y)) for y in range(1, n_univ + 1)]
    for card in range(3, cfg.n_max + 1):
        nxt: dict[int, tuple[tuple[int, ...], float]] = {}
        size, bar = sizes[card], bars[card]
        for mask, (vs, score) in level.items():
            for y, bit, row in candidates:
                if mask & bit:
                    continue
                evm = mask | bit
                if evm in nxt:
                    continue
                s = score
                for v in vs:
                    s += row.get(v, 0.0)
                d = s / size
                if d >= bar:
                    i = bisect_left(vs, y)
                    evs = vs[:i] + (y,) + vs[i:]
                    nxt[evm] = (evs, s)
                    dense[evs] = d
        if not nxt:
            break  # no dense sets at this size means none at any larger size
        level = nxt
    return dense


def _exhaustive(graph: WeightedGraph, cfg: DensityConfig) -> dict[tuple[int, ...], float]:
    n_univ = graph.num_vertices
    dense: dict[tuple[int, ...], float] = {}
    universe = range(1, n_univ + 1)
    for card in range(2, cfg.n_max + 1):
        for vs in combinations(universe, card):
            s = graph.subgraph_score(vs)
            if cfg.is_dense(card, s):
                dense[vs] = cfg.density(card, s)
    return dense


def brute_force_dense(graph: WeightedGraph, cfg: DensityConfig,
                      strategy: str = "levelwise",
                      universe_cap: int = DEFAULT_UNIVERSE_CAP) -> OracleResult:
    """Enumerate every dense set of the current graph.

    ``strategy`` is one of "levelwise", "exhaustive" or "both" (run both and
    insist they agree).
    """
    if graph.num_vertices > universe_cap:
        raise OracleCapacityError(
            f"universe of {graph.num_vertices} vertices exceeds the oracle cap {universe_cap}"
        )
    if strategy == "levelwise":
        dense = _levelwise(graph, cfg)
    elif strategy == "exhaustive":
        dense = _exhaustive(graph, cfg)
    elif strategy == "both":
        dense = _levelwise(graph, cfg)
        other = _exhaustive(graph, cfg)
        if set(dense) != set(other) or any(
                abs(dense[k] - other[k]) > EPS for k in dense):
            raise AssertionError("oracle strategies disagree")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    output = {vs: d for vs, d in dense.items() if d >= cfg.threshold - EPS}
    return OracleResult(dense=dense, output_dense=output)


def diff(engine_view: dict[tuple[int, ...], float],
         oracle_view: dict[tuple[int, ...], float]) -> list[Discrepancy]:
    """Discrepancies between two set->density views; empty means equivalent."""
    out: list[Discrepancy] = []
    if engine_view.keys() == oracle_view.keys():
        for vs in sorted(vs for vs, d in engine_view.items()
                         if abs(d - oracle_view[vs]) > EPS):
            out.append(Discrepancy(
                "density", vs,
                f"engine {engine_view[vs]:.9f} vs oracle {oracle_view[vs]:.9f}"))
        return out
    for vs in sorted(oracle_view.keys() - engine_view.keys()):
        out.append(Discrepancy("missing", vs, f"expected density {oracle_view[vs]:.9f}"))
    for vs in sorted(engine_view.keys() - oracle_view.keys()):
        out.append(Discrepancy("extra", vs, f"engine density {engine_view[vs]:.9f}"))
    for vs in sorted(engine_view.keys() & oracle_view.keys()):
        d = abs(engine_view[vs] - oracle_view[vs])
        if d > EPS:
            out.append(Discrepancy(
                "density", vs,
                f"engine {engine_view[vs]:.9f} vs oracle {oracle_view[vs]:.9f}"))
    return out

import copy
import random
from typing import Optional

import pytest

from densestream import (DenseSubgraphEngine, DensityConfig, DensityFamily,
                         WeightedGraph, delta_it_upper)
from densestream.ingest import DecayedCounts, _table

# Five-vertex walkthrough fixture: four heavy pairs, one almost-dense pair
# (3,4), a weak hub vertex 5, and the (1,2) edge sitting just below the pair
# threshold until the walkthrough update lifts it.
WALKTHROUGH_EDGES = [
    (1, 3, 1.06), (2, 3, 1.06),
    (1, 4, 1.0225), (2, 4, 1.0225),
    (3, 4, 0.899),
    (1, 5, 0.1), (2, 5, 0.1), (3, 5, 0.1), (4, 5, 0.1),
    (1, 2, 0.8),
]

WALKTHROUGH_PRE_DENSE = {
    (1, 3), (1, 4), (2, 3), (2, 4), (1, 3, 4), (2, 3, 4),
}


@pytest.fixture
def walkthrough_cfg() -> DensityConfig:
    return DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4,
                         explicit_thresholds=(0.9, 0.975, 1.0))


def build_walkthrough_graph() -> WeightedGraph:
    g = WeightedGraph()
    for a, b, w in WALKTHROUGH_EDGES:
        g.apply_update(a, b, w)
    return g


@pytest.fixture
def walkthrough_graph() -> WeightedGraph:
    return build_walkthrough_graph()


def build_walkthrough_engine(cfg: DensityConfig, **kwargs) -> DenseSubgraphEngine:
    """Engine pre-loaded with the walkthrough edges (events discarded)."""
    engine = DenseSubgraphEngine(cfg, WeightedGraph(), **kwargs)
    for seq, (a, b, w) in enumerate(WALKTHROUGH_EDGES, 1):
        engine.process_update(a, b, w, seq)
    return engine


def record_probes(engine: DenseSubgraphEngine) -> list[tuple[tuple[int, ...], float, bool]]:
    """Log every probe of a set the index does not hold, from now on.

    Each entry is (set, score, accepted), taken before the probe runs; a
    probe that meets an indexed set is not logged.
    Wraps ``_probe`` on this engine instance, so the engine's own recursive
    probes are logged too.
    """
    log: list[tuple[tuple[int, ...], float, bool]] = []
    probe, find, cfg = engine._probe, engine.index.find, engine.cfg

    def logged(vs, score, i):
        hit = find(vs)
        if hit is None or hit.score is None:
            log.append((vs, score, cfg.is_dense(len(vs), score)))
        probe(vs, score, i)

    engine._probe = logged
    return log


def random_update(rng: random.Random, graph: WeightedGraph, vertices: int,
                  magnitude: float, negative_p: float = 0.35):
    """One random update that never drives a weight negative."""
    a, b = sorted(rng.sample(range(1, vertices + 1), 2))
    w = graph.weight(a, b)
    if rng.random() < negative_p and w > 0:
        delta = -round(rng.uniform(0.0, w), 9)
    else:
        delta = round(rng.uniform(1e-3, magnitude), 9)
    return a, b, delta


def fraction_of_max(family: DensityFamily, threshold: float, n_max: int,
                    fraction: float) -> float:
    return fraction * delta_it_upper(family, threshold, n_max)


def round_capped_engine(cfg: DensityConfig, graph: WeightedGraph,
                        cap: Optional[int] = None) -> DenseSubgraphEngine:
    """An engine that gives every positive update `cap` rounds in place of
    ceil(delta / delta_it), the reference for "enough rounds"; with no cap,
    a plain engine."""
    if cap is not None:
        cfg = copy.copy(cfg)  # frozen: the override goes past its guard
        object.__setattr__(cfg, "iteration_budget", lambda delta: cap)
    return DenseSubgraphEngine(cfg, graph)


def contingency_table(counts: DecayedCounts, e1: str, e2: str,
                      t: float) -> tuple[float, float, float, float]:
    """(n11, n10, n01, n00) of decayed counts at time t, clamped at zero, as
    ``table_weight`` builds it."""
    return _table(counts.total(t), counts.occurrence(e1, t),
                  counts.occurrence(e2, t), counts.cooccurrence(e1, e2, t))

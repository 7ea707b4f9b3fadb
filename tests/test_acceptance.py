"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with a wall
clock requirement assert it and also report the measured time.
"""

import math
import random
import statistics
import time

import pytest
from scipy.stats import chi2_contingency

from densestream import (DenseSubgraphEngine, DensityConfig, DensityFamily,
                         SyntheticSpec, WeightedGraph, delta_it_upper,
                         generate, rerank_diverse)
from densestream.ingest import (AssociationMeasure, DecayedCounts,
                                DocumentIngestor, association_weight,
                                chi2_statistic, contingency_table, g_statistic)
from densestream.oracle import brute_force_dense, diff
from densestream.streams import format_event
from tests.conftest import (WALKTHROUGH_PRE_DENSE, build_walkthrough_engine,
                            build_walkthrough_graph, record_probes)

FAMILIES = list(DensityFamily)


def _ok(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -- 1. oracle-equivalence fuzz over the configuration matrix -----------------------

def test_acceptance_1_oracle_equivalence_matrix():
    settings = [(0.6, 0.15), (1.0, 0.4), (1.4, 0.7)]  # (T, fraction of max)
    updates_per_run = 1000
    vertices = 10
    start = time.perf_counter()
    checked = 0
    for family in FAMILIES:
        for n_max in (3, 4, 5):
            for i, (threshold, frac) in enumerate(settings):
                cfg = DensityConfig(
                    family, threshold, n_max,
                    frac * delta_it_upper(family, threshold, n_max))
                g = WeightedGraph()
                g.ensure_universe(vertices)
                engine = DenseSubgraphEngine(cfg, g)
                rng = random.Random(1000 + i)
                for seq in range(1, updates_per_run + 1):
                    a, b = sorted(rng.sample(range(1, vertices + 1), 2))
                    w = g.weight(a, b)
                    if rng.random() < 0.35 and w > 0:
                        delta = -round(rng.uniform(0.0, w), 9)
                    else:
                        delta = round(rng.uniform(1e-3, 0.6), 9)
                    engine.process_update(a, b, delta, seq)
                    truth = brute_force_dense(g, cfg, strategy="levelwise")
                    dense_view, output_view = engine.snapshot_views(expand=True)
                    assert diff(dense_view, truth.dense) == [], (
                        f"{family} n_max={n_max} T={threshold} seq={seq}")
                    assert diff(output_view, truth.output_dense) == []
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"matrix took {elapsed:.1f}s, budget is 60s"
    _ok(1, f"{checked} per-update oracle comparisons across 27 configs "
           f"in {elapsed:.1f}s (< 60s)")


# -- 2. the five-vertex walkthrough scenario ------------------------------------------

def test_acceptance_2_walkthrough_scenario(walkthrough_cfg):
    # the oracle must first confirm the intended pre-update dense sets
    pre = brute_force_dense(build_walkthrough_graph(), walkthrough_cfg,
                            strategy="both")
    assert set(pre.dense) == WALKTHROUGH_PRE_DENSE

    engine = build_walkthrough_engine(walkthrough_cfg)
    assert set(engine.snapshot_views()[0]) == WALKTHROUGH_PRE_DENSE
    probe_log = record_probes(engine)

    events = engine.process_update(1, 2, 0.15, 11)
    gained = set(engine.snapshot_views()[0]) - WALKTHROUGH_PRE_DENSE
    assert gained == {(1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)}
    assert [format_event(e) for e in events] == [
        "11 GAIN 1.023333333 1,2,3",
        "11 GAIN 1.002333333 1,2,3,4",
    ]
    rejected = [(vs, s) for vs, s, accepted in probe_log if not accepted]
    assert ((1, 2, 5), pytest.approx(1.15)) in rejected
    _ok(2, "walkthrough update inserts {1,2},{1,2,3},{1,2,4},{1,2,3,4}, "
           "reports the two output-dense gains, and rejects {1,2,5}")


# -- 3. threshold-spacing identity ------------------------------------------------------

def test_acceptance_3_schedule_spacing_identity():
    rng = random.Random(33)
    worst = 0.0
    for family in FAMILIES:
        for n_max in (3, 5, 10, 25, 50):
            for _ in range(10):
                threshold = rng.uniform(0.1, 3.0)
                delta_it = rng.uniform(0.02, 0.95) * delta_it_upper(
                    family, threshold, n_max)
                cfg = DensityConfig(family, threshold, n_max, delta_it)
                for n in range(3, n_max + 1):
                    gap = (family.norm(n) * cfg.threshold_for(n)
                           - family.norm(n - 1) * cfg.threshold_for(n - 1))
                    err = abs((n - 2) * (n - 1) * gap - delta_it)
                    worst = max(worst, err)
                    assert err <= 1e-12
    _ok(3, f"per-round spacing identity holds to 1e-12 "
           f"(worst residual {worst:.2e})")


# -- 4. round budget sufficiency ----------------------------------------------------------

def _budget_stream(rng, vertices: int, unit: float) -> list[tuple[int, int, float]]:
    """40 random updates: removals of part of a weight, and increases of 0.1 to 5 units."""
    stream = []
    shadow = WeightedGraph()
    shadow.ensure_universe(vertices)
    for _ in range(40):
        a, b = sorted(rng.sample(range(1, vertices + 1), 2))
        w = shadow.weight(a, b)
        if rng.random() < 0.3 and w > 0:
            d = -round(rng.uniform(0.0, w), 9)
        else:
            d = round(rng.uniform(0.1 * unit, 5.0 * unit), 9)
        shadow.apply_update(a, b, d)
        stream.append((a, b, d))
    return stream


def _assert_same_state(capped: dict, lifted: dict, where: str) -> None:
    """Same sets and star depths; scores may differ in their summation order."""
    assert set(capped) == set(lifted), where
    for vs in capped:
        assert abs(capped[vs][0] - lifted[vs][0]) <= 1e-9, where
        assert capped[vs][1] == lifted[vs][1], where


def test_acceptance_4_round_budget_sufficiency():
    rng = random.Random(44)
    vertices = 8
    for instance in range(500):
        family = rng.choice(FAMILIES)
        n_max = rng.choice([3, 4, 5])
        threshold = rng.choice([0.6, 1.0, 1.4])
        frac = rng.choice([0.15, 0.4, 0.7])
        delta_it = frac * delta_it_upper(family, threshold, n_max)
        cfg = DensityConfig(family, threshold, n_max, delta_it)
        stream = _budget_stream(rng, vertices, delta_it)
        signatures = []
        for cap in (None, n_max + 3):
            g = WeightedGraph()
            g.ensure_universe(vertices)
            engine = DenseSubgraphEngine(cfg, g, iteration_cap=cap)
            for seq, (a, b, d) in enumerate(stream, 1):
                engine.process_update(a, b, d, seq)
            signatures.append(engine.state_signature())
        _assert_same_state(*signatures, f"instance {instance}")

    # Explicit schedules: random, strictly increasing tau_n = T_n * g_n tables,
    # whose round unit DensityConfig reads from the table.  Checked after every
    # update against an engine with a lifted budget and against the oracle.
    for instance in range(500):
        family = rng.choice(FAMILIES)
        n_max = rng.choice([3, 4, 5])
        tau = [rng.uniform(0.2, 0.8)]
        for _ in range(3, n_max + 1):
            tau.append(tau[-1] + rng.uniform(0.005, 0.1))
        table = tuple(t / family.norm(n) for n, t in enumerate(tau, 2))
        cfg = DensityConfig(family, table[-1], n_max, explicit_thresholds=table)
        stream = _budget_stream(rng, vertices, cfg.delta_it)
        engines = []
        for cap in (None, n_max + 3):
            g = WeightedGraph()
            g.ensure_universe(vertices)
            engines.append(DenseSubgraphEngine(cfg, g, iteration_cap=cap))
        capped, lifted = engines
        for seq, (a, b, d) in enumerate(stream, 1):
            capped.process_update(a, b, d, seq)
            lifted.process_update(a, b, d, seq)
            where = f"explicit instance {instance} {table} seq={seq}"
            _assert_same_state(capped.state_signature(), lifted.state_signature(), where)
            truth = brute_force_dense(capped.graph, cfg, strategy="levelwise")
            dense_view, output_view = capped.snapshot_views(expand=True)
            assert diff(dense_view, truth.dense) == [], where
            assert diff(output_view, truth.output_dense) == [], where
    _ok(4, "500 derived and 500 explicit-threshold instances: ceil(delta/delta_it) "
           "rounds yield the same index state as an unlimited budget, and the "
           "oracle's dense sets")


# -- 5. implicit representation ablation ---------------------------------------------------

def _ablation_workload():
    # a handful of pumped vertex pairs oscillating around the bar where any
    # further vertex keeps them dense, inside a large, mostly idle universe
    return SyntheticSpec(vertex_count=10_000, update_count=700,
                         magnitude_max=0.1, negative_probability=0.3,
                         planted_probability=0.9, planted_sets=6,
                         planted_size=2, seed=20)


def test_acceptance_5_implicit_representation_speedup():
    spec = _ablation_workload()
    stream = generate(spec)
    cfg = DensityConfig(
        DensityFamily.AVGWEIGHT, 0.7, 4,
        0.4 * delta_it_upper(DensityFamily.AVGWEIGHT, 0.7, 4))

    def run(star: bool):
        g = WeightedGraph()
        g.ensure_universe(spec.vertex_count)
        engine = DenseSubgraphEngine(cfg, g, star_mode=star)
        t0 = time.perf_counter()
        for u in stream:
            engine.process(u)
        return time.perf_counter() - t0, engine

    star_times, explicit_times = [], []
    for _ in range(3):
        t, star_engine = run(True)
        star_times.append(t)
        t, explicit_engine = run(False)
        explicit_times.append(t)
    saturated = sum(1 for _ in star_engine.index.star_parents())
    assert saturated > 0, "workload failed to plant saturated sets"
    dense_star = star_engine.snapshot_views(expand=True)[0]
    dense_explicit = explicit_engine.snapshot_views(expand=True)[0]
    assert set(dense_star) == set(dense_explicit)
    assert all(abs(dense_star[k] - dense_explicit[k]) <= 1e-9 for k in dense_star)
    star_median = statistics.median(star_times)
    explicit_median = statistics.median(explicit_times)
    ratio = explicit_median / star_median
    assert ratio >= 5.0, f"speedup {ratio:.1f}x below the 5x bar"
    _ok(5, f"star chains {ratio:.1f}x faster than explicit materialization "
           f"({explicit_median:.2f}s vs {star_median:.3f}s median of 3), "
           f"views identical")


# -- 6. synthetic workload at desk scale ------------------------------------------------------

def test_acceptance_6_desk_scale_synthetic_run():
    frac = 0.4
    cfg = DensityConfig(
        DensityFamily.AVGWEIGHT, 0.7, 8,
        frac * delta_it_upper(DensityFamily.AVGWEIGHT, 0.7, 8))
    # planted structure scaled with the update count so per-pair intensity
    # matches the full-size recipe (about fifty updates per planted pair)
    spec = SyntheticSpec(vertex_count=10_000, update_count=25_000,
                         planted_sets=10, planted_size=10,
                         reject_too_dense=True, gate_threshold=0.7,
                         gate_delta_it_fraction=frac, gate_n_max=8, seed=66)
    stream = generate(spec)
    assert len(stream) == 25_000

    def run():
        g = WeightedGraph()
        g.ensure_universe(spec.vertex_count)
        engine = DenseSubgraphEngine(cfg, g)
        lines = []
        t0 = time.perf_counter()
        for u in stream:
            for ev in engine.process(u):
                lines.append(format_event(ev))
        return time.perf_counter() - t0, lines, engine

    elapsed, lines, engine = run()
    elapsed2, lines2, _ = run()
    assert lines and lines == lines2, "event output is empty or not deterministic"
    assert not engine.has_too_dense(), "rejection gate leaked a saturated set"
    assert elapsed < 60.0 and elapsed2 < 60.0
    _ok(6, f"25K updates over 10K vertices in {elapsed:.1f}s (< 60s), "
           f"{len(lines)} events, byte-identical across runs")


# -- 7. ingestion ---------------------------------------------------------------------------

def test_acceptance_7_ingestion_checks():
    # decay closed forms
    c = DecayedCounts(mean_life=7200.0)
    c.observe(0.0, ["x", "y"])
    assert abs(c.cooccurrence("x", "y", 7200.0) - math.exp(-1)) <= 1e-12
    assert abs(c.occurrence("x", 3600.0) - math.exp(-0.5)) <= 1e-12
    c2 = DecayedCounts(mean_life=500.0)
    c2.observe(0.0, ["x"])
    c2.observe(200.0, ["z"])  # intermediate touch must not disturb x's decay
    assert abs(c2.occurrence("x", 900.0) - math.exp(-900.0 / 500.0)) <= 1e-12

    # support gate: one entity below five documents keeps the weight at zero
    c = DecayedCounts()
    for _ in range(4):
        c.observe(0.0, ["a", "b"])
    for _ in range(5):
        c.observe(0.0, ["b"])
    for _ in range(100):
        c.observe(0.0, [])
    assert association_weight(c, AssociationMeasure.LLR_THRESHOLDED, "a", "b", 0.0) == 0.0

    # significance gates on hand-built tables, against an independent oracle
    strong = (10.0, 0.0, 0.0, 90.0)
    ref_chi2 = chi2_contingency([[10, 0], [0, 90]], correction=False)[0]
    ref_g = chi2_contingency([[10, 0], [0, 90]], correction=False,
                             lambda_="log-likelihood")[0]
    assert abs(chi2_statistic(*strong) - ref_chi2) <= 1e-9
    assert abs(g_statistic(*strong) - ref_g) <= 1e-9
    weak = DecayedCounts()
    weak.observe(0.0, ["p", "q"])
    for _ in range(9):
        weak.observe(0.0, ["p"])
        weak.observe(0.0, ["q"])
    for _ in range(100):
        weak.observe(0.0, [])
    assert chi2_statistic(*contingency_table(weak, "p", "q", 0.0)) <= 3.841
    assert association_weight(weak, AssociationMeasure.CHI2_CORRELATION,
                              "p", "q", 0.0) == 0.0

    # a document re-weighs only edges incident to its own entities
    ing = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION)
    for _ in range(10):
        ing.process_document(0.0, ["d", "e"])
        ing.process_document(0.0, [])
    doc_ids = {ing.dictionary.id_for(t) for t in ("a", "b", "c")}
    touched = []
    for _ in range(8):
        touched += ing.process_document(0.0, ["a", "b", "c"])
    assert touched, "the repeated trio should have formed edges"
    assert all(u.a in doc_ids or u.b in doc_ids for u in touched)
    _ok(7, "decay closed forms within 1e-12; support and significance gates "
           "reproduced; emission touches only incident edges")


# -- 8. diversity reranking --------------------------------------------------------------------

def test_acceptance_8_rerank_multipliers():
    dup = rerank_diverse([((1, 2), 1.0), ((1, 2), 0.5)])
    assert dup[1][2] == pytest.approx(0.5 * 0.2, abs=1e-15)
    half = rerank_diverse([((1, 2), 1.0), ((1, 2, 3, 4), 0.9)])
    assert half[1][2] == pytest.approx(0.9 * 0.6, abs=1e-15)
    _ok(8, "coverage multipliers 0.2 (duplicate) and 0.6 (half covered) exact")

import random

import pytest

from densestream import (DenseSubgraphEngine, DensityConfig, DensityFamily,
                         WeightedGraph, delta_it_upper)
from densestream.index import STAR
from densestream.oracle import brute_force_dense, diff
from tests.conftest import (WALKTHROUGH_PRE_DENSE, build_walkthrough_engine,
                            random_update)


# -- the five-vertex walkthrough -----------------------------------------------------

def test_walkthrough_update_discovers_the_new_dense_family(walkthrough_cfg):
    engine = build_walkthrough_engine(walkthrough_cfg, record_probes=True)
    assert set(engine.snapshot_dense()) == WALKTHROUGH_PRE_DENSE
    engine.probe_log.clear()

    events = engine.process_update(1, 2, 0.15, 100)

    gained = set(engine.snapshot_dense()) - WALKTHROUGH_PRE_DENSE
    assert gained == {(1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 3, 4)}
    assert [(e.kind, e.vertices) for e in events] == [
        ("GAIN", (1, 2, 3)), ("GAIN", (1, 2, 3, 4))]
    assert events[0].density == pytest.approx(3.07 / 3)
    assert events[1].density == pytest.approx(6.014 / 6)
    # the weak extension through vertex 5 was probed and turned away
    assert ((1, 2, 5), pytest.approx(1.15), False) in [
        (vs, s, ok) for vs, s, ok in engine.probe_log]
    # round budget of 1: the new triples were never grown a second time
    probed = {vs for vs, _, _ in engine.probe_log}
    assert (1, 2, 3, 5) not in probed and (1, 2, 4, 5) not in probed


def test_walkthrough_negation_restores_the_previous_answer(walkthrough_cfg):
    engine = build_walkthrough_engine(walkthrough_cfg)
    engine.process_update(1, 2, 0.15, 100)
    events = engine.process_update(1, 2, -0.15, 101)
    assert [(e.kind, e.vertices) for e in events] == [
        ("LOSE", (1, 2, 3)), ("LOSE", (1, 2, 3, 4))]
    assert set(engine.snapshot_dense()) == WALKTHROUGH_PRE_DENSE
    truth = brute_force_dense(engine.graph, walkthrough_cfg, strategy="both")
    assert diff(engine.snapshot_dense(), truth.dense) == []


def test_duplicate_discovery_of_the_four_set_changes_nothing(walkthrough_cfg):
    # both three-sets reach (1,2,3,4) through the cheap step; one insertion,
    # one report, the revisit is a no-op
    engine = build_walkthrough_engine(walkthrough_cfg)
    events = engine.process_update(1, 2, 0.15, 100)
    four = [e for e in events if e.vertices == (1, 2, 3, 4)]
    assert len(four) == 1
    assert len([e for e in events if e.kind == "GAIN"]) == 2


def test_cheap_extension_below_bar_inserts_nothing(walkthrough_cfg):
    engine = build_walkthrough_engine(walkthrough_cfg)
    engine.process_update(3, 5, 0.3, 50)  # {3,5} stays sparse: 0.4 < 0.9
    assert (3, 5) not in engine.snapshot_dense()


def test_zero_magnitude_update_is_a_no_op(walkthrough_cfg):
    engine = build_walkthrough_engine(walkthrough_cfg)
    before = engine.state_signature()
    assert engine.process_update(1, 2, 0.0, 100) == []
    assert engine.state_signature() == before


def test_isolated_pair_below_pair_threshold_emits_nothing(walkthrough_cfg):
    engine = DenseSubgraphEngine(walkthrough_cfg)
    assert engine.process_update(8, 9, 0.5, 1) == []
    assert engine.snapshot_dense() == {}


def test_crossing_the_output_bar_without_insertion_reports_gain(walkthrough_cfg):
    engine = DenseSubgraphEngine(walkthrough_cfg)
    engine.process_update(1, 2, 0.95, 1)  # dense at 0.95, not yet output
    events = engine.process_update(1, 2, 0.1, 2)
    assert [(e.kind, e.vertices) for e in events] == [("GAIN", (1, 2))]
    assert events[0].density == pytest.approx(1.05)


# -- saturated sets and their star chains ----------------------------------------------

def derived_cfg(delta_frac=0.2, threshold=1.0, n_max=4,
                family=DensityFamily.AVGWEIGHT) -> DensityConfig:
    return DensityConfig(family, threshold, n_max,
                         delta_frac * delta_it_upper(family, threshold, n_max))


def test_saturated_pair_grows_a_star_chain():
    cfg = derived_cfg()
    g = WeightedGraph()
    g.ensure_universe(7)
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 3, 9.0, 1)
    chains = {engine.index.vertices_of(n): d for n, d in engine.index.star_parents()}
    assert chains[(1, 3)] == 2  # 9.0 clears the 3- and 4-vertex bars
    truth = brute_force_dense(g, cfg, strategy="both")
    assert diff(engine.snapshot_dense(expand=True), truth.dense) == []


def test_implicit_sets_of_a_star_node():
    cfg = derived_cfg()
    g = WeightedGraph()
    g.ensure_universe(7)
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 3, 9.0, 1)   # too dense
    engine.process_update(1, 4, 0.2, 2)   # 4 neighbors the pair
    engine.process_update(3, 5, 0.2, 3)   # 5 neighbors the pair
    node = engine.index.entry((1, 3))
    star = node.children[STAR]
    implied = engine.expand_implicit(star)
    assert implied == [(1, 2, 3), (1, 3, 6), (1, 3, 7)]


def test_implicit_sets_empty_when_all_vertices_neighbor_the_core():
    cfg = derived_cfg()
    g = WeightedGraph()
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 2, 9.0, 1)
    for seq, v in enumerate((3, 4), 2):
        engine.process_update(1, v, 0.5, seq)
    node = engine.index.entry((1, 2))
    if node.meta.star_depth:
        implied = engine.expand_implicit(node.children[STAR])
        assert implied == []


def test_star_removed_when_weight_drops_back():
    cfg = derived_cfg()
    g = WeightedGraph()
    g.ensure_universe(6)
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 3, 9.0, 1)
    engine.process_update(1, 4, 0.2, 2)
    assert engine.has_too_dense()
    engine.process_update(1, 3, -8.0, 3)
    assert not engine.has_too_dense()
    # the explicit neighbor extension survives eviction checks independently
    truth = brute_force_dense(g, cfg, strategy="both")
    assert diff(engine.snapshot_dense(expand=True), truth.dense) == []


def test_saturated_before_the_update_is_not_grown_again():
    cfg = derived_cfg()
    g = WeightedGraph()
    g.ensure_universe(6)
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 2, 9.0, 1)
    calls = engine.stats.explore_calls
    engine.process_update(1, 2, 0.05, 2)  # still saturated, was before too
    assert engine.stats.explore_calls == calls


def test_star_and_explicit_modes_agree_on_a_planted_triangle():
    cfg = derived_cfg()
    views = {}
    sizes = {}
    for star in (True, False):
        g = WeightedGraph()
        g.ensure_universe(12)
        engine = DenseSubgraphEngine(cfg, g, star_mode=star)
        seq = 0
        for a, b in ((1, 2), (1, 3), (2, 3)):
            seq += 1
            engine.process_update(a, b, 10.0, seq)
        views[star] = engine.snapshot_dense(expand=True)
        sizes[star] = len(engine.index)
    assert views[True] == pytest.approx(views[False])
    assert sizes[False] > sizes[True]  # one star chain replaces many entries


def test_expanded_view_filters_output_density():
    # saturated pair whose implied triples sit below the output bar
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4,
                        0.8 * delta_it_upper(DensityFamily.AVGWEIGHT, 1.0, 4))
    g = WeightedGraph()
    g.ensure_universe(6)
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 2, 2.5, 1)
    dense = engine.snapshot_dense(expand=True)
    out = engine.snapshot_output_dense(expand=True)
    assert (1, 2, 3) in dense and dense[(1, 2, 3)] == pytest.approx(2.5 / 3)
    assert (1, 2, 3) not in out
    assert set(out) == {(1, 2)}


# -- randomized equivalences -------------------------------------------------------------

def _random_cfgs(rng, count):
    for _ in range(count):
        family = rng.choice(list(DensityFamily))
        n_max = rng.choice([3, 4, 5])
        threshold = rng.choice([0.6, 1.0, 1.4])
        frac = rng.choice([0.15, 0.45, 0.7])
        yield DensityConfig(family, threshold, n_max,
                            frac * delta_it_upper(family, threshold, n_max))


def test_engine_matches_oracle_on_random_streams():
    rng = random.Random(2024)
    for cfg in _random_cfgs(rng, 6):
        g = WeightedGraph()
        g.ensure_universe(8)
        engine = DenseSubgraphEngine(cfg, g)
        for seq in range(1, 251):
            a, b, delta = random_update(rng, g, 8, magnitude=0.7)
            engine.process_update(a, b, delta, seq)
            truth = brute_force_dense(g, cfg, strategy="levelwise")
            assert diff(engine.snapshot_dense(expand=True), truth.dense) == []
            assert diff(engine.snapshot_output_dense(expand=True),
                        truth.output_dense) == []


def test_star_and_explicit_modes_agree_on_random_streams():
    rng = random.Random(31337)
    for cfg in _random_cfgs(rng, 4):
        g1 = WeightedGraph(); g1.ensure_universe(8)
        g2 = WeightedGraph(); g2.ensure_universe(8)
        star = DenseSubgraphEngine(cfg, g1, star_mode=True)
        explicit = DenseSubgraphEngine(cfg, g2, star_mode=False)
        for seq in range(1, 201):
            a, b, delta = random_update(rng, g1, 8, magnitude=0.8)
            star.process_update(a, b, delta, seq)
            explicit.process_update(a, b, delta, seq)
            vs = star.snapshot_dense(expand=True)
            ve = explicit.snapshot_dense(expand=True)
            assert set(vs) == set(ve)
            assert all(abs(vs[k] - ve[k]) <= 1e-9 for k in vs)


def _replay_stream(cfg, stream, vertices, cap=None):
    g = WeightedGraph()
    g.ensure_universe(vertices)
    engine = DenseSubgraphEngine(cfg, g, iteration_cap=cap)
    for seq, (a, b, d) in enumerate(stream, 1):
        engine.process_update(a, b, d, seq)
    return engine


def _signatures_match(s1, s2):
    return set(s1) == set(s2) and all(
        abs(s1[k][0] - s2[k][0]) <= 1e-9 and s1[k][1] == s2[k][1] for k in s1)


def test_round_budget_is_sufficient():
    rng = random.Random(90125)
    for cfg in _random_cfgs(rng, 5):
        stream = []
        g = WeightedGraph(); g.ensure_universe(8)
        for _ in range(150):
            a, b, d = random_update(rng, g, 8,
                                    magnitude=5.0 * cfg.delta_it)
            g.apply_update(a, b, d)
            stream.append((a, b, d))
        capped = _replay_stream(cfg, stream, 8)
        lifted = _replay_stream(cfg, stream, 8, cap=cfg.n_max + 3)
        assert _signatures_match(capped.state_signature(), lifted.state_signature())


def test_single_round_suffices_for_small_updates():
    rng = random.Random(777)
    for cfg in _random_cfgs(rng, 5):
        stream = []
        g = WeightedGraph(); g.ensure_universe(8)
        for _ in range(200):
            a, b = sorted(rng.sample(range(1, 9), 2))
            w = g.weight(a, b)
            if rng.random() < 0.3 and w > 0:
                d = -round(rng.uniform(0, min(w, cfg.delta_it)), 9)
                if d == 0:
                    continue
            else:
                d = round(rng.uniform(1e-4, cfg.delta_it), 9)
            g.apply_update(a, b, d)
            stream.append((a, b, d))
        one_round = _replay_stream(cfg, stream, 8, cap=1)
        unlimited = _replay_stream(cfg, stream, 8, cap=cfg.n_max + 3)
        assert _signatures_match(one_round.state_signature(),
                                 unlimited.state_signature())


def test_engine_matches_oracle_under_edge_removals():
    # full cancellations flip vertices between connected and free, the
    # transition the star chains must track
    rng = random.Random(464)
    for cfg in _random_cfgs(rng, 4):
        g = WeightedGraph(); g.ensure_universe(8)
        engine = DenseSubgraphEngine(cfg, g)
        for seq in range(1, 301):
            a, b = sorted(rng.sample(range(1, 9), 2))
            w = g.weight(a, b)
            r = rng.random()
            if r < 0.25 and w > 0:
                delta = -w
            elif r < 0.4 and w > 0:
                delta = -round(rng.uniform(0.0, w), 9)
            else:
                delta = round(rng.uniform(1e-3, 0.8), 9)
            engine.process_update(a, b, delta, seq)
            truth = brute_force_dense(g, cfg, strategy="levelwise")
            dense_view, output_view = engine.snapshot_views(True)
            assert diff(dense_view, truth.dense) == []
            assert diff(output_view, truth.output_dense) == []


def test_event_stream_replays_into_the_reported_set():
    rng = random.Random(515)
    for cfg in _random_cfgs(rng, 4):
        g = WeightedGraph(); g.ensure_universe(8)
        engine = DenseSubgraphEngine(cfg, g)
        held = set()
        for seq in range(1, 301):
            a, b, delta = random_update(rng, g, 8, magnitude=0.8)
            for ev in engine.process_update(a, b, delta, seq):
                if ev.kind == "GAIN":
                    assert ev.vertices not in held
                    held.add(ev.vertices)
                else:
                    assert ev.vertices in held
                    held.remove(ev.vertices)
            assert held == set(engine.snapshot_output_dense(expand=False))


def test_events_arrive_through_the_sink_in_order():
    sunk = []
    cfg = derived_cfg()
    engine = DenseSubgraphEngine(cfg, event_sink=sunk.append)
    events = engine.process_update(1, 2, 5.0, 1)
    assert sunk == events and len(sunk) >= 1


def test_index_stays_structurally_sound_under_random_streams():
    rng = random.Random(8080)
    cfg = derived_cfg(0.5)
    g = WeightedGraph(); g.ensure_universe(8)
    engine = DenseSubgraphEngine(cfg, g)
    for seq in range(1, 301):
        a, b, delta = random_update(rng, g, 8, magnitude=1.0)
        engine.process_update(a, b, delta, seq)
        engine.index.audit()
        for _vs, node in engine.index.items():
            m = node.meta
            assert cfg.is_dense(m.card, m.score)
            assert m.star_depth == cfg.free_extension_depth(m.card, m.score)


# -- rejected updates leave no trace ---------------------------------------------------

def _engine_state(engine):
    return (sorted(engine.graph.edges()), engine.graph.num_vertices,
            engine.state_signature(), vars(engine.stats).copy(),
            engine.snapshot_views(expand=True))


@pytest.mark.parametrize("a, b, delta, error", [
    (1, 2, float("nan"), ValueError),   # would store a NaN weight
    (1, 2, 1e308, OverflowError),       # round budget ceil(1e308 / delta_it) overflows
    (3, 9, -1.0, ValueError),           # negative weight; would grow the universe to 9
])
def test_rejected_update_changes_nothing(a, b, delta, error):
    cfg = derived_cfg()
    g = WeightedGraph()
    g.ensure_universe(7)
    engine = DenseSubgraphEngine(cfg, g)
    engine.process_update(1, 3, 9.0, 1)
    engine.process_update(1, 4, 0.2, 2)
    assert engine.has_too_dense()  # expanded views depend on the universe size
    before = _engine_state(engine)
    with pytest.raises(error):
        engine.process_update(a, b, delta, 3)
    assert _engine_state(engine) == before

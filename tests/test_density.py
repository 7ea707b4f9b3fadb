import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densestream import (ConfigError, DensityConfig, DensityFamily, WeightedGraph,
                         delta_it_upper)

FAMILIES = list(DensityFamily)


# -- cardinality weights -----------------------------------------------------------

def test_size_weights_match_their_definitions():
    f = DensityFamily
    assert f.AVGWEIGHT.size_weight(5) == 10.0
    assert f.AVGDEGREE.size_weight(5) == 5.0
    assert f.SQRTDENS.size_weight(5) == pytest.approx(math.sqrt(20))


@pytest.mark.parametrize("family", FAMILIES)
def test_size_weight_monotonicity_bounds(family):
    for n in range(3, 51):
        ratio = family.size_weight(n) / family.size_weight(n - 1)
        assert n / (n - 1) - 1e-12 <= ratio <= n / (n - 2) + 1e-12
        assert family.norm(n) <= family.norm(n - 1) + 1e-12


def test_size_weight_undefined_below_two():
    with pytest.raises(ValueError):
        DensityFamily.AVGWEIGHT.size_weight(1)


# -- threshold schedule ------------------------------------------------------------

def test_schedule_avgweight_worked_values():
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, 0.15)
    assert cfg.threshold_for(2) == pytest.approx(0.8, abs=1e-12)
    assert cfg.threshold_for(3) == pytest.approx(0.95, abs=1e-12)
    assert cfg.threshold_for(4) == 1.0


def test_schedule_avgdegree_matches_linear_closed_form():
    cfg = DensityConfig(DensityFamily.AVGDEGREE, 1.0, 4, 0.1)
    assert cfg.threshold_for(2) == pytest.approx(4 / 15, abs=1e-12)
    for n in range(2, 5):
        closed = (n - 1) / (cfg.n_max - 1) * (cfg.threshold + cfg.delta_it) - cfg.delta_it
        assert cfg.threshold_for(n) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_top_of_schedule_equals_output_threshold_exactly(family):
    for n_max in (3, 5, 9):
        cfg = DensityConfig(family, 1.3, n_max,
                            0.3 * delta_it_upper(family, 1.3, n_max))
        assert cfg.threshold_for(n_max) == 1.3


def test_schedule_values_and_range_check():
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, 0.15)
    assert cfg.density(2, 1.0) == 1.0  # S(2) = 1
    assert cfg.family.norm(2) == 0.5
    assert cfg.threshold_for(2) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        cfg.threshold_for(5)
    with pytest.raises(ValueError):
        cfg.threshold_for(1)


def test_normalized_thresholds_strictly_increase():
    for family in FAMILIES:
        cfg = DensityConfig(family, 0.9, 6, 0.5 * delta_it_upper(family, 0.9, 6))
        values = [cfg.threshold_for(n) * family.norm(n) for n in range(2, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_non_increasing_explicit_thresholds_rejected():
    with pytest.raises(ConfigError, match="must be strictly increasing"):
        DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, explicit_thresholds=(1.0, 0.9, 1.0))


@pytest.mark.parametrize("threshold, n_max, explicit", [
    (1.0, 3, (math.nan, 1.0)),       # T_2 NaN: no set is ever dense
    (1.0, 4, (0.5, math.nan, 1.0)),
    (math.inf, 3, (0.5, math.inf)),  # nothing is ever output-dense
    (math.nan, 3, (0.5, math.nan)),
    (math.inf, 3, None),
    (math.nan, 3, None),
])
def test_non_finite_thresholds_rejected(threshold, n_max, explicit):
    delta_it = None if explicit else 0.1
    with pytest.raises(ConfigError, match="must be finite"):
        DensityConfig(DensityFamily.AVGWEIGHT, threshold, n_max, delta_it,
                      explicit_thresholds=explicit)


def test_explicit_thresholds_must_end_at_output_threshold():
    with pytest.raises(ConfigError, match="must equal the output threshold"):
        DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, explicit_thresholds=(0.9, 0.975, 1.01))


# -- delta_it validity -------------------------------------------------------------

def test_delta_it_upper_worked_values():
    assert delta_it_upper(DensityFamily.AVGWEIGHT, 1.0, 4) == pytest.approx(0.75)
    assert delta_it_upper(DensityFamily.AVGDEGREE, 2.0, 5) == pytest.approx(2 / 3)


def test_delta_it_upper_degenerate_cardinality():
    with pytest.raises(ValueError):
        delta_it_upper(DensityFamily.AVGWEIGHT, 1.0, 2)


def test_delta_it_outside_range_rejected():
    upper = delta_it_upper(DensityFamily.AVGWEIGHT, 1.0, 4)
    for delta_it in (upper, -0.1, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="outside the valid range"):
            DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, delta_it)


def test_derived_schedule_needs_a_delta_it():
    with pytest.raises(ConfigError, match="delta_it is required"):
        DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4)


# -- the round unit of an explicit schedule ------------------------------------------

def test_walkthrough_table_implies_its_round_unit():
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, explicit_thresholds=(0.9, 0.975, 1.0))
    # tau = (0.45, 0.4875, 0.5): 6 * 0.0375 = 0.225 at n = 3, 12 * 0.0125 = 0.15 at n = 4
    assert cfg.delta_it == pytest.approx(0.15, abs=1e-12)
    assert cfg.iteration_budget(0.15) == 1
    assert cfg.iteration_budget(0.25) == 2


@pytest.mark.parametrize("delta_it", [0.15, 0.25, math.nan, math.inf])
def test_delta_it_beside_explicit_thresholds_rejected(delta_it):
    # a second description of the schedule: 0.25 let a chain go unexplored
    with pytest.raises(ConfigError, match="read from explicit thresholds"):
        DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, delta_it,
                      explicit_thresholds=(0.9, 0.975, 1.0))


@pytest.mark.parametrize("family", FAMILIES)
def test_explicit_round_unit_is_the_smallest_scaled_spacing(family):
    rng = random.Random(2103)
    for n_max in (3, 4, 6, 9):
        for _ in range(20):
            tau = [0.0, 0.0, rng.uniform(0.05, 1.0)]
            for _n in range(3, n_max + 1):
                tau.append(tau[-1] + rng.uniform(1e-3, 0.3))
            table = tuple(tau[n] / family.norm(n) for n in range(2, n_max + 1))
            cfg = DensityConfig(family, table[-1], n_max, explicit_thresholds=table)
            spacings = [n * (n - 1) * (family.norm(n) * cfg.threshold_for(n)
                                       - family.norm(n - 1) * cfg.threshold_for(n - 1))
                        for n in range(3, n_max + 1)]
            assert cfg.delta_it == min(spacings)


@pytest.mark.parametrize("family", FAMILIES)
def test_derived_schedule_keeps_its_delta_it(family):
    # its table's unit is delta_it * n_max / (n_max - 2), never below delta_it
    for n_max in (3, 5, 9):
        delta_it = 0.4 * delta_it_upper(family, 1.2, n_max)
        cfg = DensityConfig(family, 1.2, n_max, delta_it)
        assert cfg.delta_it == delta_it
        table = tuple(cfg.threshold_for(n) for n in range(2, n_max + 1))
        implied = DensityConfig(family, 1.2, n_max, explicit_thresholds=table).delta_it
        assert implied == pytest.approx(delta_it * n_max / (n_max - 2), rel=1e-9)


# -- per-round reduction identity --------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_threshold_spacing_reduces_to_delta_it(family):
    rng = random.Random(20240513)
    for n_max in (3, 7, 20, 50):
        for _ in range(10):
            threshold = rng.uniform(0.1, 3.0)
            delta_it = rng.uniform(0.05, 0.95) * delta_it_upper(family, threshold, n_max)
            cfg = DensityConfig(family, threshold, n_max, delta_it)
            for n in range(3, n_max + 1):
                gap = (family.norm(n) * cfg.threshold_for(n)
                       - family.norm(n - 1) * cfg.threshold_for(n - 1))
                assert abs((n - 2) * (n - 1) * gap - delta_it) <= 1e-12


# -- classification -----------------------------------------------------------------

def test_classify_walkthrough_thresholds(walkthrough_cfg):
    # dense but neither output-dense nor able to absorb a free vertex
    assert walkthrough_cfg.is_dense(2, 0.95)
    assert not walkthrough_cfg.is_output_dense(2, 0.95)
    assert walkthrough_cfg.free_extension_depth(2, 0.95) == 0
    assert not walkthrough_cfg.is_dense(3, 1.15)


def test_classify_saturated_set_absorbs_any_vertex():
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, 0.15)
    assert cfg.is_dense(3, 30.0)
    assert cfg.is_output_dense(3, 30.0)
    # 30 covers the full-cardinality bar T_4 * S_4 = 6 even without new weight
    assert cfg.free_extension_depth(3, 30.0) == 1  # capped by n_max


def test_classify_never_too_dense_at_full_cardinality():
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, 0.15)
    assert cfg.is_dense(4, 1000.0)
    assert cfg.free_extension_depth(4, 1000.0) == 0


def test_classify_rejects_out_of_range_cardinality(walkthrough_cfg):
    cfg = walkthrough_cfg
    for card, score in ((1, 0.0), (5, 10.0)):
        with pytest.raises(ValueError):
            cfg.threshold_for(card)
        with pytest.raises(ValueError):
            cfg.density(card, score)
        with pytest.raises(ValueError):
            cfg.free_extension_depth(card, score)


@pytest.mark.parametrize("card", [-1, 0, 1, 5])
def test_dense_tests_reject_out_of_range_cardinality(walkthrough_cfg, card):
    # n_max is 4; unchecked, -1 would index the schedule from its end
    with pytest.raises(ValueError):
        walkthrough_cfg.is_dense(card, 100.0)
    with pytest.raises(ValueError):
        walkthrough_cfg.is_output_dense(card, 100.0)


# -- exploration budget --------------------------------------------------------------

def test_iteration_budget_examples(walkthrough_cfg):
    assert walkthrough_cfg.iteration_budget(0.15) == 1
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, 0.1)
    assert cfg.iteration_budget(0.31) == 4
    assert cfg.iteration_budget(0.0) == 0


@given(st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=1e-3, max_value=0.7))
@settings(max_examples=200)
def test_iteration_budget_is_a_ceiling(delta, delta_it):
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, delta_it)
    k = cfg.iteration_budget(delta)
    assert k >= 1
    assert (k - 1) * delta_it < delta + 1e-6
    assert delta <= k * delta_it + 1e-6 * delta_it * k


# -- growth property -----------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_every_dense_set_contains_a_denser_normalized_subset(family):
    from itertools import combinations
    rng = random.Random(hash(family.value) & 0xFFFF)
    cfg = DensityConfig(family, 1.0, 5, 0.4 * delta_it_upper(family, 1.0, 5))
    for _ in range(8):
        g = WeightedGraph()
        n = rng.randint(5, 10)
        g.ensure_universe(n)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if rng.random() < 0.5:
                    g.apply_update(a, b, round(rng.uniform(0.05, 2.0), 6))
        for card in range(3, cfg.n_max + 1):
            for subset in combinations(range(1, n + 1), card):
                norm_here = (cfg.density(card, g.subgraph_score(subset))
                             / cfg.threshold_for(card))
                best_sub = max(
                    cfg.density(card - 1, g.subgraph_score(smaller))
                    / cfg.threshold_for(card - 1)
                    for smaller in combinations(subset, card - 1))
                assert best_sub >= norm_here - 1e-9

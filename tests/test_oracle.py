import random

import pytest

from densestream import DensityConfig, DensityFamily, WeightedGraph, delta_it_upper
from densestream.oracle import (OracleCapacityError, brute_force_dense, diff)
from tests.conftest import WALKTHROUGH_PRE_DENSE, build_walkthrough_graph


def test_unit_triangle_all_subsets_dense():
    # T_2 = T_3 = 1 exactly would break the strictly-increasing normalized
    # schedule; a vanishing spacing gives the same answer on unit weights.
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 3, 1e-9)
    g = WeightedGraph()
    for a, b in ((1, 2), (1, 3), (2, 3)):
        g.apply_update(a, b, 1.0)
    result = brute_force_dense(g, cfg, strategy="both")
    expected = {(1, 2), (1, 3), (2, 3), (1, 2, 3)}
    assert set(result.dense) == expected
    assert set(result.output_dense) == expected


def test_walkthrough_graph_pre_update_dense_set(walkthrough_cfg):
    g = build_walkthrough_graph()
    result = brute_force_dense(g, walkthrough_cfg, strategy="both")
    assert set(result.dense) == WALKTHROUGH_PRE_DENSE


def test_empty_graph_has_no_dense_sets(walkthrough_cfg):
    result = brute_force_dense(WeightedGraph(), walkthrough_cfg, strategy="both")
    assert result.dense == {}
    assert result.output_dense == {}


def test_capacity_guard():
    g = WeightedGraph()
    g.ensure_universe(30)
    cfg = DensityConfig(DensityFamily.AVGWEIGHT, 1.0, 4, 0.15)
    with pytest.raises(OracleCapacityError):
        brute_force_dense(g, cfg)
    brute_force_dense(g, cfg, universe_cap=30)  # override allows it


def test_unknown_strategy_rejected(walkthrough_cfg):
    with pytest.raises(ValueError):
        brute_force_dense(WeightedGraph(), walkthrough_cfg, strategy="guess")


def test_strategies_agree_on_random_instances():
    # Exhaustive enumeration and level-wise growth are independent; their
    # agreement also exercises the claim that an empty level stays empty
    # upward (no dense n-sets implies none of any larger size).
    rng = random.Random(4242)
    for trial in range(40):
        family = rng.choice(list(DensityFamily))
        n_max = rng.choice([3, 4, 5])
        threshold = rng.uniform(0.3, 1.5)
        cfg = DensityConfig(family, threshold, n_max,
                            rng.uniform(0.1, 0.8) * delta_it_upper(family, threshold, n_max))
        g = WeightedGraph()
        n = rng.randint(4, 9)
        g.ensure_universe(n)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if rng.random() < 0.55:
                    g.apply_update(a, b, rng.uniform(0.05, 2.5))
        brute_force_dense(g, cfg, strategy="both")  # raises on disagreement


def test_disagreeing_strategies_name_the_first_discrepancy(walkthrough_cfg, monkeypatch):
    import densestream.oracle as oracle
    real = oracle._exhaustive
    monkeypatch.setattr(oracle, "_exhaustive",
                        lambda g, cfg: {vs: d for vs, d in real(g, cfg).items() if vs != (1, 3)})
    with pytest.raises(AssertionError, match=r"disagree .*: extra 1,3: engine density"):
        brute_force_dense(build_walkthrough_graph(), walkthrough_cfg, strategy="both")


def test_diff_reports_each_kind():
    view = {(1, 2): 1.0, (2, 3): 0.5}
    assert diff(view, dict(view)) == []
    missing = diff({(1, 2): 1.0}, view)
    assert len(missing) == 1 and missing[0].kind == "missing"
    assert missing[0].vertices == (2, 3)
    extra = diff(view, {(1, 2): 1.0})
    assert len(extra) == 1 and extra[0].kind == "extra"
    drift = diff({(1, 2): 1.0}, {(1, 2): 1.1})
    assert len(drift) == 1 and drift[0].kind == "density"
    assert "1.1" in str(drift[0])
    mixed = diff({(3, 4): 1.0, (1, 2): 1.0, (2, 4): 2.0, (1, 3): 0.5},
                 {(1, 3): 0.7, (2, 3): 0.5, (1, 2): 1.0, (1, 4): 0.5, (3, 4): 1.2})
    assert [(d.kind, d.vertices) for d in mixed] == [
        ("missing", (1, 4)), ("missing", (2, 3)), ("extra", (2, 4)),
        ("density", (1, 3)), ("density", (3, 4))]

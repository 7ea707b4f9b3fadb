import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densestream import GraphError, WeightedGraph
from tests.conftest import build_walkthrough_graph


def test_insert_into_empty_graph():
    g = WeightedGraph()
    assert g.apply_update(1, 2, 0.8) == (0.0, 0.8)
    assert g.weight(2, 1) == 0.8
    assert g.num_vertices == 2


def test_incremental_weight_change():
    g = WeightedGraph()
    g.apply_update(1, 2, 0.8)
    assert g.apply_update(1, 2, 0.15) == (0.8, pytest.approx(0.95))


def test_exact_cancellation_removes_edge():
    g = WeightedGraph()
    g.apply_update(1, 2, 0.95)
    before, after = g.apply_update(1, 2, -0.95)
    assert (before, after) == (0.95, 0.0)
    assert g.weight(1, 2) == 0.0
    assert 2 not in g.neighbors(1)
    assert list(g.edges()) == []


def test_self_loop_rejected():
    g = WeightedGraph()
    with pytest.raises(GraphError):
        g.apply_update(7, 7, 0.5)


def test_negative_overshoot_rejected():
    g = WeightedGraph()
    g.apply_update(1, 2, 0.5)
    with pytest.raises(GraphError):
        g.apply_update(1, 2, -0.6)


def test_vertex_ids_must_be_positive():
    g = WeightedGraph()
    with pytest.raises(GraphError):
        g.apply_update(0, 3, 1.0)
    with pytest.raises(GraphError):
        g.ensure_universe(0)
    assert g.num_vertices == 0


@pytest.mark.parametrize("a, b, delta", [
    (1, 2, float("nan")), (1, 2, float("inf")), (1, 2, 1e308),  # 1e308 + 1e308 overflows
    (3, 9, -1.0)])
def test_rejected_update_changes_nothing(a, b, delta):
    g = WeightedGraph()
    g.apply_update(1, 2, 1e308)
    with pytest.raises(GraphError):
        g.apply_update(a, b, delta)
    assert list(g.edges()) == [(1, 2, 1e308)]
    assert g.num_vertices == 2


def test_merged_neighborhood_of_updated_pair():
    g = build_walkthrough_graph()
    g.apply_update(1, 2, 0.15)
    merged = g.merged_neighborhood({1, 2})
    assert merged[3] == pytest.approx(2.12)
    assert merged[4] == pytest.approx(2.045)
    assert merged[5] == pytest.approx(0.2)
    assert set(merged) == {3, 4, 5}


def test_merged_neighborhood_singleton_is_the_neighborhood():
    g = build_walkthrough_graph()
    assert g.merged_neighborhood({3}) == g.neighbors(3)


def test_merged_neighborhood_of_isolated_set_is_empty():
    g = WeightedGraph()
    g.ensure_universe(9)
    g.apply_update(1, 2, 1.0)
    assert g.merged_neighborhood({8, 9}) == {}


def test_subgraph_scores_on_walkthrough_graph():
    g = build_walkthrough_graph()
    g.apply_update(1, 2, 0.15)
    assert g.subgraph_score({1, 2}) == pytest.approx(0.95)
    assert g.subgraph_score({1, 2, 3}) == pytest.approx(3.07)
    assert g.subgraph_score({1}) == 0.0
    assert g.subgraph_score(set()) == 0.0


def test_unit_triangle_score():
    g = WeightedGraph()
    for a, b in ((1, 2), (1, 3), (2, 3)):
        g.apply_update(a, b, 1.0)
    assert g.subgraph_score({1, 2, 3}) == pytest.approx(3.0)


def test_extension_identity_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(10):
        g = WeightedGraph()
        n = rng.randint(4, 12)
        g.ensure_universe(n)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if rng.random() < 0.6:
                    g.apply_update(a, b, rng.uniform(0.01, 3.0))
        for _ in range(100):
            size = rng.randint(1, n - 1)
            members = rng.sample(range(1, n + 1), size)
            outside = [v for v in range(1, n + 1) if v not in members]
            y = rng.choice(outside)
            merged = g.merged_neighborhood(members)
            lhs = g.subgraph_score(set(members) | {y})
            rhs = g.subgraph_score(members) + merged.get(y, 0.0)
            assert abs(lhs - rhs) <= 1e-12


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6),
                          st.floats(0.01, 2.0)), max_size=40))
@settings(max_examples=100)
def test_symmetry_and_positivity_after_any_stream(raw):
    g = WeightedGraph()
    for a, b, w in raw:
        if a == b:
            continue
        g.apply_update(a, b, w)
    for u, v, w in g.edges():
        assert w > 0
        assert g.weight(v, u) == w


def test_stream_followed_by_negation_empties_graph():
    rng = random.Random(77)
    g = WeightedGraph()
    stream = []
    for _ in range(60):
        a, b = rng.sample(range(1, 8), 2)
        delta = round(rng.uniform(0.01, 1.0), 9)
        g.apply_update(a, b, delta)
        stream.append((a, b, delta))
    for a, b, delta in reversed(stream):
        g.apply_update(a, b, -delta)
    assert list(g.edges()) == []

import random

import pytest

from densestream import rerank_diverse


def test_disjoint_stories_keep_density_order():
    stories = [((1, 2, 3), 0.5), ((4, 5), 0.9), ((6, 7, 8), 0.7)]
    ranked = rerank_diverse(stories)
    assert [r[0] for r in ranked] == [(4, 5), (6, 7, 8), (1, 2, 3)]
    assert all(adj == d for _, d, adj in ranked)


def test_exact_duplicate_is_scaled_by_one_fifth():
    ranked = rerank_diverse([((1, 2), 1.0), ((1, 2), 0.9)])
    assert ranked[0][0] == (1, 2) and ranked[0][2] == 1.0
    assert ranked[1][2] == pytest.approx(0.9 * 0.2)


def test_half_covered_story_is_scaled_by_three_fifths():
    ranked = rerank_diverse([((1, 2), 1.0), ((1, 2, 3, 4), 0.8)])
    second = ranked[1]
    assert second[0] == (1, 2, 3, 4)
    assert second[2] == pytest.approx(0.8 * 0.6)


def test_ties_break_on_the_smaller_vertex_set():
    ranked = rerank_diverse([((5, 6), 1.0), ((1, 2), 1.0)])
    assert [r[0] for r in ranked] == [(1, 2), (5, 6)]


def test_limit_truncates_the_ranking():
    stories = [((i, i + 1), 1.0 / i) for i in range(1, 8)]
    assert len(rerank_diverse(stories, limit=3)) == 3


def test_penalty_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        rerank_diverse([((1, 2), 1.0)], penalty=1.2)
    with pytest.raises(ValueError):
        rerank_diverse([((1, 2), 1.0)], penalty=-0.1)


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        rerank_diverse([((1, 2), -1.0)])


@pytest.mark.parametrize("stories", [
    [((), 1.0)],
    [((1, 2), 0.5), ([], 1.0)],
])
def test_story_without_vertices_rejected(stories):
    with pytest.raises(ValueError, match="at least one vertex"):
        rerank_diverse(stories)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_density_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        rerank_diverse([((1, 2), bad), ((3, 4), 1.0)])


# -- equivalence with the full-scan greedy loop ---------------------------------------

def full_scan_rerank(stories, penalty=0.8, limit=None):
    """Reference: rescan and recount the whole remaining pool for every pick."""
    pool = [(tuple(sorted(set(vs))), float(d)) for vs, d in stories]
    covered = set()
    picked = []
    while pool and (limit is None or len(picked) < limit):
        best_i = -1
        best_adj = 0.0
        for i, (vs, d) in enumerate(pool):
            overlap = sum(1 for v in vs if v in covered)
            adj = d * (1.0 - penalty * overlap / len(vs))
            if (best_i < 0 or adj > best_adj
                    or (adj == best_adj and vs < pool[best_i][0])):
                best_i, best_adj = i, adj
        vs, d = pool.pop(best_i)
        picked.append((vs, d, best_adj))
        covered.update(vs)
    return picked


def test_duplicate_sets_with_a_full_tie_keep_input_order():
    stories = [((1, 2), 0.4), ((1, 2), 0.6), ((1, 2), 0.8)]
    ranked = rerank_diverse(stories, penalty=1.0)
    assert [d for _, d, _ in ranked] == [0.8, 0.4, 0.6]
    assert ranked == full_scan_rerank(stories, penalty=1.0)


def random_pool(rng):
    """Small pools full of ties: shared densities (0.0 among them), repeated
    and unsorted vertices, duplicate vertex sets."""
    densities = [0.0, 0.25, 0.5, 0.5, 1.0, 2.0, rng.uniform(0.0, 2.0)]
    pool = []
    for _ in range(rng.randint(0, 12)):
        if pool and rng.random() < 0.25:
            vs = list(rng.choice(pool)[0])
            rng.shuffle(vs)
        else:
            vs = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
        pool.append((tuple(vs), rng.choice(densities)))
    return pool


def test_matches_the_full_scan_on_random_pools():
    rng = random.Random(20071)
    for _ in range(4000):
        stories = random_pool(rng)
        penalty = rng.choice([0.0, 1.0, 0.5, rng.random()])
        limit = rng.choice([None, 0, 1, 2, 3])
        assert (rerank_diverse(stories, penalty, limit)
                == full_scan_rerank(stories, penalty, limit)), (stories, penalty, limit)

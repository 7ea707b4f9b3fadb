import hashlib
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from densestream import EPS, EdgeUpdate, WeightedGraph
from densestream.ingest import (CHI2_CRITICAL, LLR_CRITICAL,
                                AssociationMeasure, DecayedCounts,
                                DocumentIngestor, EntityDictionary,
                                IngestError, association_weight,
                                chi2_statistic, g_statistic,
                                parse_document_line, phi_coefficient,
                                settles_at_zero, table_weight)
from densestream.streams import format_update
from tests.conftest import contingency_table


# -- decayed counters ------------------------------------------------------------

def test_two_documents_at_the_same_instant_do_not_decay():
    c = DecayedCounts(mean_life=7200)
    c.observe(1000.0, ["a", "b"])
    c.observe(1000.0, ["a", "b"])
    assert c.cooccurrence("a", "b", 1000.0) == pytest.approx(2.0)


def test_one_mean_life_decays_to_one_over_e():
    c = DecayedCounts(mean_life=7200)
    c.observe(0.0, ["a", "b"])
    assert c.cooccurrence("a", "b", 7200.0) == pytest.approx(math.exp(-1), abs=1e-12)
    assert c.occurrence("a", 7200.0) == pytest.approx(math.exp(-1), abs=1e-12)


def test_document_without_entities_touches_only_the_total():
    c = DecayedCounts()
    c.observe(0.0, [])
    assert c.total(0.0) == 1.0
    assert c.occurrence("a", 0.0) == 0.0


def test_clock_regression_rejected():
    c = DecayedCounts()
    c.observe(100.0, ["a"])
    with pytest.raises(IngestError):
        c.observe(50.0, ["b"])


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected_before_anything_moves(t):
    ingestor = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED)
    ingestor.process_document(100.0, ["a", "b"])
    c = ingestor.counts
    with pytest.raises(IngestError, match="not finite"):
        ingestor.process_document(t, ["a", "c"])
    assert c.clock == 100.0
    assert c.total(100.0) == 1.0
    assert c.occurrence("a", 100.0) == 1.0 and c.occurrence("c", 100.0) == 0.0
    assert c.partners("a") == {"b"} and c.partners("c") == set()
    assert len(ingestor.dictionary) == 2


@given(st.floats(0.0, 1e5), st.floats(0.0, 1e5), st.floats(1.0, 1e5))
@settings(max_examples=150)
def test_decay_composes_across_intermediate_touches(gap1, gap2, tau):
    c = DecayedCounts(mean_life=tau)
    c.observe(0.0, ["a"])
    c.observe(gap1, ["b"])       # touches the clock, lazily decays nothing of a
    staged = c.occurrence("a", gap1 + gap2)
    direct = math.exp(-(gap1 + gap2) / tau)
    assert staged == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("mean_life", [math.nan, math.inf, 0.0, -1.0])
def test_mean_life_must_be_finite_and_positive(mean_life):
    with pytest.raises(IngestError, match="mean life"):
        DecayedCounts(mean_life)
    with pytest.raises(IngestError, match="mean life"):
        DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, mean_life)


def test_a_pair_has_one_cell_whichever_order_lists_it():
    c = DecayedCounts(mean_life=100.0)
    c.observe(0.0, ["b", "a"])
    c.observe(50.0, ["a", "c", "b"])
    c.observe(80.0, ["c", "b"])
    for t in (80.0, 300.0):
        ab = (math.exp(-0.5) + 1.0) * math.exp(-(t - 50.0) / 100.0)
        assert c.cooccurrence("b", "a", t) == c.cooccurrence("a", "b", t)
        assert c.cooccurrence("a", "b", t) == pytest.approx(ab, abs=1e-12)
        assert c.cooccurrence("c", "b", t) == c.cooccurrence("b", "c", t)
    assert c.partners("a") == {"b", "c"} and c.partners("b") == {"a", "c"}
    assert all(e in c.partners(x) for e in "abc" for x in c.partners(e))
    assert c.live_cells == 3


def test_repeated_observation_decays_then_increments():
    tau = 100.0
    c = DecayedCounts(mean_life=tau)
    c.observe(0.0, ["a"])
    c.observe(50.0, ["a"])
    assert c.occurrence("a", 50.0) == pytest.approx(math.exp(-0.5) + 1.0, abs=1e-12)


# -- 2x2 statistics ---------------------------------------------------------------

HAND_TABLE = (10.0, 0.0, 0.0, 90.0)  # n11, n10, n01, n00


def test_hand_table_against_independent_implementation():
    n11, n10, n01, n00 = HAND_TABLE
    table = [[n11, n10], [n01, n00]]
    chi2_ref = chi2_contingency(table, correction=False)[0]
    g_ref = chi2_contingency(table, correction=False, lambda_="log-likelihood")[0]
    assert chi2_statistic(*HAND_TABLE) == pytest.approx(chi2_ref, rel=1e-12)
    assert g_statistic(*HAND_TABLE) == pytest.approx(g_ref, rel=1e-12)
    assert phi_coefficient(*HAND_TABLE) == pytest.approx(1.0)


def test_statistics_on_fractional_tables_match_reference():
    table = (7.25, 2.5, 3.75, 110.0)
    ref = [[table[0], table[1]], [table[2], table[3]]]
    assert chi2_statistic(*table) == pytest.approx(
        chi2_contingency(ref, correction=False)[0], rel=1e-12)
    assert g_statistic(*table) == pytest.approx(
        chi2_contingency(ref, correction=False, lambda_="log-likelihood")[0], rel=1e-12)


def test_degenerate_tables_yield_zero_not_errors():
    assert g_statistic(0, 0, 0, 0) == 0.0
    assert chi2_statistic(5, 5, 0, 0) == 0.0
    assert phi_coefficient(0, 0, 0, 10) == 0.0


def _counts_with(pair_docs, left_only, right_only, others):
    c = DecayedCounts()
    t = 0.0
    for _ in range(pair_docs):
        c.observe(t, ["L", "R"])
    for _ in range(left_only):
        c.observe(t, ["L"])
    for _ in range(right_only):
        c.observe(t, ["R"])
    for _ in range(others):
        c.observe(t, [])
    return c


def test_llr_support_gate_blocks_rare_entities():
    c = _counts_with(pair_docs=4, left_only=0, right_only=5, others=200)
    # L appears four times: below the support bar, however strong the signal
    assert association_weight(c, AssociationMeasure.LLR_THRESHOLDED, "L", "R", 0.0) == 0.0


def test_llr_significant_pair_gets_unit_weight():
    c = _counts_with(pair_docs=9, left_only=0, right_only=0, others=200)
    assert association_weight(c, AssociationMeasure.LLR_THRESHOLDED, "L", "R", 0.0) == 1.0


def test_llr_negative_association_never_forms_an_edge():
    # L and R each frequent but never together: the statistic is large while
    # the correlation is negative
    c = _counts_with(pair_docs=0, left_only=50, right_only=50, others=10)
    assert g_statistic(*contingency_table(c, "L", "R", 0.0)) > 6.635
    assert association_weight(c, AssociationMeasure.LLR_THRESHOLDED, "L", "R", 0.0) == 0.0


def test_chi2_insignificant_pair_weighs_zero():
    c = _counts_with(pair_docs=1, left_only=9, right_only=9, others=100)
    table = contingency_table(c, "L", "R", 0.0)
    assert chi2_statistic(*table) <= 3.841
    assert association_weight(c, AssociationMeasure.CHI2_CORRELATION, "L", "R", 0.0) == 0.0


def test_chi2_significant_pair_weighs_its_phi():
    c = _counts_with(pair_docs=10, left_only=0, right_only=0, others=90)
    w = association_weight(c, AssociationMeasure.CHI2_CORRELATION, "L", "R", 0.0)
    assert w == pytest.approx(1.0)


def test_unseen_entities_weigh_zero():
    c = DecayedCounts()
    c.observe(0.0, ["x"])
    assert association_weight(c, AssociationMeasure.CHI2_CORRELATION, "p", "q", 0.0) == 0.0


# -- incremental emission ------------------------------------------------------------

def test_updates_touch_only_edges_incident_to_the_document():
    ing = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION)
    t = 0.0
    for _ in range(10):
        ing.process_document(t, ["d", "e"])
    for _ in range(30):
        ing.process_document(t, [])
    ids = {tok: ing.dictionary.id_for(tok) for tok in ("a", "b", "c", "d", "e")}
    doc_ids = {ids["a"], ids["b"], ids["c"]}
    for _ in range(8):
        updates = ing.process_document(t, ["a", "b", "c"])
        for u in updates:
            assert u.a in doc_ids or u.b in doc_ids


def test_document_with_one_fresh_entity_emits_nothing():
    ing = DocumentIngestor()
    assert ing.process_document(0.0, ["solo"]) == []


def test_stable_zero_weight_pairs_stay_silent():
    ing = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION)
    ing.process_document(0.0, ["a", "b"])
    # one co-occurrence among two documents: no significance, weight stays 0
    updates = ing.process_document(0.0, ["a"])
    assert updates == []


def test_emitted_stream_never_underflows_a_graph():
    ing = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION, mean_life=50.0)
    g = WeightedGraph()
    docs = []
    import random
    rng = random.Random(6)
    pool = ["a", "b", "c", "d", "e", "f"]
    t = 0.0
    for _ in range(300):
        t += rng.uniform(0, 30)
        k = rng.choice([0, 1, 2, 2, 3])
        docs.append((t, rng.sample(pool, k)))
    for t, ents in docs:
        for u in ing.process_document(t, ents):
            g.apply_update(u.a, u.b, u.delta)  # raises on underflow
    for _, _, w in g.edges():
        assert w > 0


def test_staleness_error_metric_is_computable():
    # compare emitted (stale) weights against a full recomputation at a few
    # checkpoints; the magnitudes are data-dependent and deliberately ungated
    import random
    rng = random.Random(11)
    ing = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION, mean_life=100.0)
    stale: dict[tuple[str, str], float] = {}
    pool = ["a", "b", "c", "d", "e"]
    t = 0.0
    errors = []
    for step in range(200):
        t += rng.uniform(0, 10)
        ents = rng.sample(pool, rng.choice([0, 1, 2, 2, 3]))
        for u in ing.process_document(t, ents):
            pair = (ing.dictionary.token_for(u.a), ing.dictionary.token_for(u.b))
            key = tuple(sorted(pair))
            stale[key] = stale.get(key, 0.0) + u.delta
        if step % 40 == 20:
            for i, e1 in enumerate(pool):
                for e2 in pool[i + 1:]:
                    fresh = association_weight(ing.counts, ing.measure, e1, e2, t)
                    errors.append(abs(stale.get((e1, e2), 0.0) - fresh))
    assert errors
    assert statistics.median(errors) >= 0.0
    assert all(math.isfinite(e) for e in errors)


# -- the screen -------------------------------------------------------------------------

def _nudged(rng, x, spread=16):
    """x moved by up to `spread` floats either way."""
    step = rng.randint(-spread, spread)
    for _ in range(abs(step)):
        x = math.nextafter(x, math.copysign(math.inf, step))
    return x


def _support(rng, n):
    pick = rng.random()
    if pick < 0.4:
        return rng.uniform(0.0, n)
    if pick < 0.6:
        return n * 10 ** -rng.uniform(0, 6)           # rare
    if pick < 0.8:
        return n * (1 - 10 ** -rng.uniform(0, 16))    # in nearly every post
    return _nudged(rng, min(n, rng.choice([5.0, 6.0, 10.0, n / 2])))


def _screen_draws(rng, count):
    """(n, k1, k2, stored k11, decay factor), with n >= 1 as after a post.

    Most draws put the stored k11 at a boundary, a few floats or a relative
    1e-6 or 1e-9 either side: phi = 0, X2 = 3.841, 2*X2 = 6.635 and X2 =
    6.635 (X2 read as the screen reads it).  A share are clamp cases: k11 at
    min(k1, k2), or n at k1 + k2 - k11.  A tenth are pairs seen together in
    all posts but a few floats' worth.  Half the draws do not decay k11."""
    levels = [None, 0.0, CHI2_CRITICAL, LLR_CRITICAL / 2, LLR_CRITICAL]
    for _ in range(count):
        n = 10 ** rng.uniform(0, 5)
        k1 = _support(rng, n)
        if rng.random() < 0.1:
            k2 = _nudged(rng, k1, 2)
            k11 = _nudged(rng, min(k1, k2), 2)
            n = max(_nudged(rng, k1 + k2 - k11, 4), 1.0)
        else:
            k2 = _support(rng, n)
            level, kk = rng.choice(levels), k1 * k2
            den = kk * (n - k1) * (n - k2)
            if level is None or den <= 0:
                k11 = rng.uniform(0.0, min(k1, k2))
            else:
                k11 = (kk + math.sqrt(level * den / n)) / n
                k11 *= 1 + rng.choice([0.0, 1e-6, 1e-9]) * rng.uniform(-3, 3)
            k11 = min(k11, k1, k2)  # a co-occurrence never tops a support
            pick = rng.random()
            if pick < 0.15:
                k11 = min(k1, k2)
            if pick < 0.3 and k1 + k2 - k11 >= 1:
                n = _nudged(rng, k1 + k2 - k11)
            k11 = _nudged(rng, k11)
        pick = rng.random()
        decay = (1.0 if pick < 0.5 else 1.0 - rng.randint(1, 16) * 2.0 ** -53 if pick < 0.6
                 else rng.uniform(0.0, 1.0) if pick < 0.8 else 10 ** -rng.uniform(0, 3))
        yield n, k1, k2, k11, decay


@pytest.mark.parametrize("measure", ["llr", "chi2"])
def test_the_screen_settles_only_pairs_that_weigh_zero(measure):
    """Whenever the screen settles a pair, its table weighs exactly 0 at the
    decayed co-occurrence, with the entities in either order."""
    measure = AssociationMeasure(measure)
    rng = random.Random(f"screen-{measure.value}")
    settled = weighed = 0
    for n, k1, k2, k11, decay in _screen_draws(rng, 60000):
        decayed = k11 * decay
        for a, b in ((k1, k2), (k2, k1)):
            if settles_at_zero(measure, n, a, b, k11):
                settled += 1
                assert table_weight(measure, n, a, b, decayed) == 0.0, (n, a, b, k11, decay)
                assert table_weight(measure, n, b, a, decayed) == 0.0, (n, a, b, k11, decay)
            elif table_weight(measure, n, a, b, decayed) != 0.0:
                weighed += 1
    assert settled > 40000 and weighed > 2000


# -- the per-post loop against the per-pair reference -----------------------------------

class PerPairIngestor(DocumentIngestor):
    """Reference: every incident pair weighed from scratch by association_weight.

    It counts a pair as tabled when the llr support gate would let it
    through at t, which every pair does under chi2.  Under llr it counts a
    pair as visited when it is tabled, or when its weight was nonzero
    before the post; under chi2 every pair is visited."""

    def process_document(self, t, entities):
        ents = sorted(set(entities))
        self.counts.observe(t, ents)
        for e in ents:
            self.dictionary.id_for(e)
        t = self.counts.clock
        updates = []
        recomputed = set()
        for e in ents:
            for x in sorted(self.counts.partners(e)):
                key = (e, x) if e <= x else (x, e)
                if key in recomputed:
                    continue
                recomputed.add(key)
                new_w = association_weight(self.counts, self.measure, key[0], key[1], t)
                old_w = self._weights.get(key, 0.0)
                tabled = (self.measure is AssociationMeasure.CHI2_CORRELATION
                          or min(self.counts.occurrence(key[0], t),
                                 self.counts.occurrence(key[1], t)) >= 5)
                self.pairs_reweighed += tabled or old_w != 0.0
                self.pairs_tabled += tabled
                if abs(new_w - old_w) > EPS:
                    self._seq += 1
                    updates.append(EdgeUpdate(self._seq, self.dictionary.id_for(key[0]),
                                              self.dictionary.id_for(key[1]), new_w - old_w))
                    if new_w == 0.0:
                        self._weights.pop(key, None)
                    else:
                        self._weights[key] = new_w
        self.updates_emitted += len(updates)
        return updates


def _bursty_stream(rng, mean_life):
    """Posts in bursts sharing one timestamp, so that supports reach whole
    numbers such as exactly 5, with gaps between bursts that are sometimes
    long enough to decay every count below the llr support bar.  Posts
    mention an entity more than once."""
    pool = [f"n{i}" for i in range(rng.randint(4, 8))]
    t = 0.0
    for _ in range(rng.randint(8, 20)):
        t += mean_life * (rng.uniform(1.0, 4.0) if rng.random() < 0.25 else rng.uniform(0.0, 0.2))
        for _ in range(rng.randint(1, 12)):
            yield t, rng.choices(pool, k=rng.choice([0, 1, 2, 3, 4, 5]))


@pytest.mark.parametrize("mean_life", [30.0, 7200.0, 1e6])
@pytest.mark.parametrize("measure", ["llr", "chi2"])
def test_per_post_loop_emits_what_the_per_pair_loop_emits(measure, mean_life):
    measure = AssociationMeasure(measure)
    rng = random.Random(f"{measure.value}-{mean_life}")
    emitted = 0
    for _ in range(60):
        ing = DocumentIngestor(measure, mean_life)
        ref = PerPairIngestor(measure, mean_life)
        for t, ents in _bursty_stream(rng, mean_life):
            assert ing.process_document(t, ents) == ref.process_document(t, ents)
        work = (ing.pairs_reweighed, ing.pairs_tabled + ing.pairs_screened,
                ing.updates_emitted)
        assert work == (ref.pairs_reweighed, ref.pairs_tabled, ref.updates_emitted)
        emitted += ing.updates_emitted
    assert emitted > 0


def _boundary_posts(mean_life, stored, offset):
    """x's count is `stored` at its last post, t_last; e has 4 co-occurrences
    with x, then posts alone four times at t_last + tau*ln(stored/5) + offset,
    which takes its support past 5.  x is never touched again, so only the
    hot set can bring e-x to a visit, at the instant x's count falls to 5."""
    docs = [(0.0, [])] * 2000 + [(0.0, ["e", "x"])] * 4
    if stored == 10.0:
        docs += [(0.0, ["x"])] * 6
        t_last = 0.0
    else:  # 5 at t=0, decayed until one more post lands on `stored`
        docs += [(0.0, ["x"])]
        t_last = -mean_life * math.log((stored - 1.0) / 5.0)
        docs += [(t_last, ["x"])]
    boundary = t_last + mean_life * math.log(stored / 5.0)
    return docs + [(boundary + offset(boundary, mean_life), ["e"])] * 4


@pytest.mark.parametrize("offset", [
    lambda b, tau: 0.0,
    lambda b, tau: math.nextafter(b, math.inf) - b,
    lambda b, tau: tau * 1e-12,
], ids=["at", "next-float", "tau-1e-12"])
@pytest.mark.parametrize("stored", [10.0, 5.000001, 5.0])
@pytest.mark.parametrize("mean_life", [30.0, 7200.0, 1e6])
def test_hot_set_expiry_boundary_emits_what_the_per_pair_loop_emits(mean_life, stored, offset):
    ing = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, mean_life)
    ref = PerPairIngestor(AssociationMeasure.LLR_THRESHOLDED, mean_life)
    for t, ents in _boundary_posts(mean_life, stored, offset):
        assert ing.process_document(t, ents) == ref.process_document(t, ents)
    # where x's count still reads 5 (stored 10 at the boundary, or a stored 5),
    # e-x opens; a hot set that dropped x at the exact crossing would miss it
    assert ref.counts.stored_occurrence("x") == pytest.approx(stored, abs=1e-12)
    opened = ref.counts.occurrence("x", ref.counts.clock) >= 5
    assert ing.updates_emitted == ref.updates_emitted == opened


@pytest.mark.parametrize("mean_life", [300.0, 7200.0])
def test_hot_set_and_weighted_partners_hold_their_invariants(mean_life):
    ing = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, mean_life)
    counts, hot = ing.counts, ing._hot
    left = 0
    for t, ents in _story_stream(count=3000):
        before = set(hot)
        ing.process_document(t, ents)
        t = counts.clock
        left += len(before - hot)
        tokens = [ing.dictionary.token_for(i) for i in range(1, len(ing.dictionary) + 1)]
        assert {x for x in tokens if counts.occurrence(x, t) >= 5} <= hot
        assert all(counts.stored_occurrence(x) >= 5 for x in hot)
        assert all(w != 0.0 and ing._weights[x][e] == w
                   for e, row in ing._weights.items() for x, w in row.items())
    assert ing.updates_emitted > 0
    assert left > 0  # entities did leave the hot set


def test_cold_partners_do_not_pile_up_in_the_hot_set():
    """A hub posts five times with a fresh partner in each burst, bursts
    three mean lives apart.  Each partner is hot after its burst and cold by
    the next, where the hub's visit retires it: neither the visits nor the
    hot set grow with the number of past partners."""
    tau, bursts = 7200.0, 150
    ing = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, tau)
    for b in range(bursts):
        for _ in range(20):
            ing.process_document(3 * tau * b, [])
        for _ in range(5):
            ing.process_document(3 * tau * b, ["hub", f"p{b}"])
    assert ing.updates_emitted > 0
    assert ing.pairs_reweighed <= 2 * bursts  # opened, then closed a burst later
    assert ing.hot_entities <= 2              # the hub and its latest partner


STORY_STREAM_SHA256 = {  # format_update lines, computed with the per-pair loop
    "llr": "f7fe1606352b83a7e8ec78ebec3302b53f00753a8f09f639646b59fa7af498a7",
    "chi2": "9fe510fbd5101acc05918258540e2f30a95244cf08524036fce3a0a6a3101c2a",
}
# (pairs_reweighed, pairs_tabled, pairs_screened, updates_emitted) on the same
# stream: a weaker screen tables more pairs
STORY_STREAM_WORK = {
    "llr": (111880, 14617, 97263, 136),
    "chi2": (199238, 38629, 160609, 31448),
}


def _story_stream(seed=7, count=2000):
    """Zipf background entities, plus a 5-entity story in a share of the
    posts of every 400 s burst; one post every 2 s on average."""
    rng = random.Random(seed)
    names = [f"e{r}" for r in range(1, 301)]
    zipf = [1.0 / r for r in range(1, 301)]
    docs, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(0.5)
        ents = set(rng.choices(names, zipf, k=1 + rng.randrange(3)))
        burst, phase = divmod(t, 600.0)
        if phase < 400.0 and rng.random() < 0.2:
            ents.update(rng.sample([f"s{burst:.0f}_{j}" for j in range(5)], 3))
        docs.append((round(t, 3), sorted(ents)))
    return docs


@pytest.mark.parametrize("measure", ["llr", "chi2"])
def test_update_stream_is_pinned_on_a_story_stream(measure):
    ing = DocumentIngestor(AssociationMeasure(measure))
    h = hashlib.sha256()
    for t, ents in _story_stream():
        for u in ing.process_document(t, ents):
            h.update(format_update(u).encode() + b"\n")
    assert h.hexdigest() == STORY_STREAM_SHA256[measure]
    work = (ing.pairs_reweighed, ing.pairs_tabled, ing.pairs_screened, ing.updates_emitted)
    assert work == STORY_STREAM_WORK[measure]
    assert ing.pairs_screened > 0


@pytest.mark.parametrize("measure", ["llr", "chi2"])
def test_measure_given_by_its_value_weighs_as_the_enum(measure):
    by_value = DocumentIngestor(measure)
    by_enum = DocumentIngestor(AssociationMeasure(measure))
    assert by_value.measure is AssociationMeasure(measure)
    emitted = 0
    for t, ents in _story_stream(count=600):
        updates = by_value.process_document(t, ents)
        assert updates == by_enum.process_document(t, ents)
        emitted += len(updates)
    assert emitted > 0


def test_association_weight_takes_the_measure_by_value():
    # L's support of 4 closes the pair under llr; chi2 would weigh it
    c = _counts_with(pair_docs=4, left_only=0, right_only=5, others=200)
    assert association_weight(c, "llr", "L", "R", 0.0) == 0.0
    chi2 = association_weight(c, AssociationMeasure.CHI2_CORRELATION, "L", "R", 0.0)
    assert chi2 > 0.0
    assert association_weight(c, "chi2", "L", "R", 0.0) == chi2


def test_unknown_measure_is_rejected():
    with pytest.raises(IngestError, match="unknown association measure 'nonsense'"):
        DocumentIngestor("nonsense")
    with pytest.raises(IngestError, match="unknown association measure"):
        association_weight(DecayedCounts(), "nonsense", "a", "b", 0.0)


def test_work_counters_add_up_per_post():
    ing = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED)
    for _ in range(20):
        ing.process_document(0.0, [])
    for _ in range(6):
        ing.process_document(0.0, ["a", "b"])       # a-b opens on the fifth
    ing.process_document(0.0, ["c"])
    assert ing.process_document(0.0, ["a", "c"]) == []
    # a-b is visited from its fifth post on, when both supports reach 5: twice.
    # The last post visits a-b (b is hot) but not a-c: c's support of 2 keeps
    # it out of the hot set, and a-c never had a weight.
    assert ing.pairs_reweighed == 2 + 1
    assert ing.pairs_tabled == 2 + 1                  # c's support of 2 closes a-c
    assert ing.updates_emitted == 1
    assert ing.counts.live_cells == 2


# -- plumbing ----------------------------------------------------------------------

def test_entity_dictionary_roundtrip(tmp_path):
    d = EntityDictionary()
    assert d.id_for("osama") == 1
    assert d.id_for("obama") == 2
    assert d.id_for("osama") == 1
    path = tmp_path / "entities.json"
    d.save(path)
    loaded = EntityDictionary.load(path)
    assert loaded.id_for("obama") == 2
    assert loaded.token_for(1) == "osama"


@pytest.mark.parametrize("text, named", [
    ('["a", "a", "b"]', "listed twice"),  # would give b id 2 where the file says 3
    ('{"a": 1}', "list of strings"),       # would load as ["a"]
    ('[1, 2]', "list of strings"),
    ('["a", null]', "list of strings"),
    ('"ab"', "list of strings"),
])
def test_entity_dictionary_load_refuses_a_file_that_is_not_its_list(tmp_path, text, named):
    path = tmp_path / "entities.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IngestError, match=named):
        EntityDictionary.load(path)


@pytest.mark.parametrize("vid", [0, -1, 3])
def test_entity_dictionary_knows_only_its_own_ids(vid):
    d = EntityDictionary()
    d.id_for("a")
    d.id_for("b")
    with pytest.raises(IngestError, match=f"no entity has id {vid}"):
        d.token_for(vid)


def test_document_line_parsing():
    assert parse_document_line("123\ta,b,c") == (123.0, ["a", "b", "c"])
    assert parse_document_line("99\t") == (99.0, [])
    assert parse_document_line("99") == (99.0, [])
    with pytest.raises(IngestError):
        parse_document_line("not-a-time\ta", 4)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_non_finite_document_timestamp_rejected_with_its_line(stamp):
    with pytest.raises(IngestError, match="line 4: non-finite timestamp"):
        parse_document_line(f"{stamp}\ta,b", 4)

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from densestream import WeightedGraph
from densestream.ingest import (AssociationMeasure, DecayedCounts,
                                DocumentIngestor, EntityDictionary,
                                IngestError, association_weight,
                                chi2_statistic, contingency_table,
                                g_statistic, parse_document_line,
                                phi_coefficient)


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


def test_observe_then_flush_matches_the_combined_call():
    seed_docs = [(float(t), ["u", "v"] if t % 3 else []) for t in range(30)]
    combined = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION)
    staged = DocumentIngestor(AssociationMeasure.CHI2_CORRELATION)
    for t, ents in seed_docs:
        got = combined.process_document(t, ents)
        staged.observe_document(t, ents)
        assert staged.flush_updates(ents) == got


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

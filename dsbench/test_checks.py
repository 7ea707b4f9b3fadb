"""Each reference check passes on a real output and fails on a corrupted copy.

    python3 -m pytest -q dsbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

import checks                                                        # noqa: E402
from inputs import MEAN_LIFE, PENALTY, QUERY_K, make_documents       # noqa: E402

from densestream import (DenseSubgraphEngine, DensityConfig, DensityFamily,  # noqa: E402
                         SyntheticSpec, WeightedGraph, delta_it_upper, generate,
                         rerank_diverse)
from densestream.ingest import AssociationMeasure, DocumentIngestor  # noqa: E402


class Output:
    """A small real replay with everything the checks look at."""

    def __init__(self, updates, n_max: int, vertices: int):
        self.sched = checks.Schedule(0.7, n_max, 0.4)
        family = DensityFamily.AVGWEIGHT
        cfg = DensityConfig(family, 0.7, n_max, 0.4 * delta_it_upper(family, 0.7, n_max))
        graph = WeightedGraph()
        graph.ensure_universe(vertices)
        engine = DenseSubgraphEngine(cfg, graph)
        self.updates, self.events, self.queries = [], [], []
        for i, u in enumerate(updates, 1):
            self.updates.append((u.a, u.b, u.delta))
            self.events += [(e.seq, e.kind, e.vertices) for e in engine.process(u)]
            if i % 100 == 0:
                stories = sorted(engine.snapshot_output_dense(expand=True).items())
                self.queries.append((i, rerank_diverse(stories, PENALTY, QUERY_K)))
        self.weights = {(a, b): w for a, b, w in graph.edges()}
        self.dense, self.output = engine.snapshot_views(expand=True)
        self.materialized = engine.snapshot_output_dense(expand=False)
        self.signature = engine.state_signature()
        self.table = checks.pair_table(self.updates)


@pytest.fixture(scope="module")
def planted():
    spec = SyntheticSpec(vertex_count=60, update_count=1500, planted_sets=1,
                         planted_size=10, reject_too_dense=True, gate_n_max=6, seed=3)
    return Output(generate(spec), 6, 60)


@pytest.fixture(scope="module")
def saturated():
    spec = SyntheticSpec(vertex_count=40, update_count=2600, planted_sets=1,
                         planted_size=10, seed=4)
    out = Output(generate(spec), 5, 40)
    assert any(depth for _score, depth in out.signature.values()), "no star chain formed"
    return out


@pytest.fixture(scope="module")
def documents():
    docs = make_documents(5, 1500)
    ingestor = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, MEAN_LIFE)
    updates = [u for t, ents in docs for u in ingestor.process_document(t, ents)]
    token = ingestor.dictionary.token_for
    weights = {tuple(sorted((token(a), token(b)))): w
               for (a, b), w in checks.pair_table((u.a, u.b, u.delta) for u in updates).items()}
    assert weights, "no llr edge formed"
    return docs, weights


def _first(d):
    return sorted(d)[0]


def _nudge(view, vs):
    copy = dict(view)
    copy[vs] += 10 * checks.TOL
    return copy


# -- the real outputs pass ---------------------------------------------------------------

def test_real_outputs_pass(planted, saturated, documents):
    for out in (planted, saturated):
        assert checks.check_conservation(out.updates, out.weights) == []
        assert checks.check_event_replay(out.events, out.materialized) == []
        assert checks.check_queries(out.updates, out.queries, out.sched, PENALTY) == []
    assert planted.dense and planted.output
    assert checks.check_enumeration(planted.table, planted.sched,
                                    planted.dense, planted.output) == []
    assert checks.check_reported_dense(saturated.table, saturated.sched,
                                       saturated.dense, saturated.output) == []
    assert checks.check_signature(saturated.table, saturated.sched, saturated.signature) == []
    docs, weights = documents
    assert checks.check_llr_weights(docs, weights, MEAN_LIFE) == []


# -- each check fails on its corrupted copy --------------------------------------------------

def test_conservation_catches_a_changed_weight(planted):
    weights = dict(planted.weights)
    weights[_first(weights)] += 0.01
    assert checks.check_conservation(planted.updates, weights)


def test_event_replay_catches_a_removed_event(planted):
    gains = [i for i, e in enumerate(planted.events) if e[1] == "GAIN"]
    events = planted.events[:gains[-1]] + planted.events[gains[-1] + 1:]
    assert checks.check_event_replay(events, planted.materialized)


def test_event_replay_catches_a_dropped_set(planted):
    materialized = dict(planted.materialized)
    del materialized[_first(materialized)]
    assert checks.check_event_replay(planted.events, materialized)


def test_enumeration_catches_a_dropped_set(planted):
    dense = dict(planted.dense)
    del dense[max(dense, key=dense.get)]
    assert checks.check_enumeration(planted.table, planted.sched, dense, planted.output)


def test_enumeration_catches_a_nudged_density(planted):
    output = _nudge(planted.output, _first(planted.output))
    assert checks.check_enumeration(planted.table, planted.sched, planted.dense, output)


def test_reported_dense_catches_a_nudged_density(saturated):
    dense = _nudge(saturated.dense, _first(saturated.dense))
    assert checks.check_reported_dense(saturated.table, saturated.sched, dense,
                                       saturated.output)


def test_signature_catches_a_changed_weight(saturated):
    table = dict(saturated.table)
    table[_first(table)] += 0.01
    assert checks.check_signature(table, saturated.sched, saturated.signature)


def test_signature_catches_a_wrong_chain_depth(saturated):
    signature = dict(saturated.signature)
    vs = next(vs for vs, (_s, depth) in sorted(signature.items()) if depth)
    score, depth = signature[vs]
    signature[vs] = (score, depth - 1)
    assert checks.check_signature(saturated.table, saturated.sched, signature)


def _swap_first_ranks(queries):
    i, (position, picks) = next((i, q) for i, q in enumerate(queries) if len(q[1]) > 1)
    picks = [picks[1], picks[0]] + picks[2:]
    return queries[:i] + [(position, picks)] + queries[i + 1:]


def test_queries_catch_a_swapped_rank(planted, saturated):
    for out in (planted, saturated):
        queries = _swap_first_ranks(out.queries)
        assert checks.check_queries(out.updates, queries, out.sched, PENALTY)


def test_queries_catch_a_nudged_density(saturated):
    position, picks = saturated.queries[-1]
    vs, d, adj = picks[0]
    queries = saturated.queries[:-1] + [(position, [(vs, d + 10 * checks.TOL, adj)] + picks[1:])]
    assert checks.check_queries(saturated.updates, queries, saturated.sched, PENALTY)


def test_llr_weights_catch_a_changed_weight(documents):
    docs, weights = documents
    weights = dict(weights)
    weights[_first(weights)] = 0.0
    assert checks.check_llr_weights(docs, weights, MEAN_LIFE)

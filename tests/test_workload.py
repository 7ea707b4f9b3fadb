import dataclasses
import math

import pytest

from densestream import (DenseSubgraphEngine, GenerationReport, SyntheticSpec,
                         WeightedGraph, generate)
from densestream.streams import format_update
from densestream.workload import WorkloadError

DESK_SPEC = SyntheticSpec(vertex_count=1000, update_count=2500,
                          planted_sets=10, planted_size=10, seed=42)


def test_same_seed_reproduces_the_stream_byte_for_byte():
    first = [format_update(u) for u in generate(DESK_SPEC)]
    second = [format_update(u) for u in generate(DESK_SPEC)]
    assert first == second


def test_sign_and_placement_fractions():
    report = GenerationReport()
    stream = generate(DESK_SPEC, report)
    assert len(stream) == 2500
    negative = sum(1 for u in stream if u.delta < 0)
    assert abs(negative / len(stream) - 0.30) <= 0.03
    span = DESK_SPEC.planted_sets * DESK_SPEC.planted_size
    planted = sum(
        1 for u in stream
        if u.a <= span and u.b <= span and (u.a - 1) // 10 == (u.b - 1) // 10)
    assert abs(planted / len(stream) - 0.90) <= 0.02
    assert report.negative == negative
    assert report.planted == planted


def test_all_updates_land_in_the_single_planted_set():
    spec = SyntheticSpec(vertex_count=50, update_count=300, planted_sets=1,
                         planted_size=10, planted_probability=1.0, seed=3)
    for u in generate(spec):
        assert 1 <= u.a <= 10 and 1 <= u.b <= 10


def test_magnitudes_in_range_and_sequences_consecutive():
    stream = generate(DESK_SPEC)
    assert [u.seq for u in stream] == list(range(1, 2501))
    for u in stream:
        assert 0 < abs(u.delta) <= 0.1 + 1e-12


def test_replay_never_underflows():
    g = WeightedGraph()
    for u in generate(DESK_SPEC):
        g.apply_update(u.a, u.b, u.delta)  # raises if a weight would go negative


def _forms_a_star_core(spec: SyntheticSpec, stream) -> bool:
    """Whether replaying ``stream`` under the gate's config ever makes a star core."""
    g = WeightedGraph()
    g.ensure_universe(spec.vertex_count)
    engine = DenseSubgraphEngine(spec.gate_config(), g)
    for u in stream:
        engine.process(u)
        if engine.has_too_dense():
            return True
    return False


def test_rejection_gate_keeps_the_run_free_of_saturated_sets():
    spec = SyntheticSpec(vertex_count=200, update_count=800, magnitude_max=0.3,
                         planted_sets=4, planted_size=6, reject_too_dense=True,
                         gate_threshold=0.7, gate_n_max=8, seed=9)
    report = GenerationReport()
    stream = generate(spec, report)
    assert len(stream) == 800
    assert report.rejected > 0
    assert not _forms_a_star_core(spec, stream)
    # the same spec without the gate does saturate, so the gate did the work
    ungated = dataclasses.replace(spec, reject_too_dense=False)
    assert _forms_a_star_core(spec, generate(ungated))


def test_infeasible_specs_are_rejected():
    with pytest.raises(WorkloadError):
        SyntheticSpec(vertex_count=50, planted_sets=10, planted_size=10)
    with pytest.raises(WorkloadError):
        SyntheticSpec(vertex_count=100, planted_sets=10, planted_size=10,
                      planted_probability=0.5)  # nowhere to put noise updates
    with pytest.raises(WorkloadError):
        SyntheticSpec(negative_probability=1.5)
    for magnitude in (0.0, math.nan, math.inf):
        with pytest.raises(WorkloadError):
            SyntheticSpec(magnitude_max=magnitude)  # nan or inf writes unreadable deltas
    with pytest.raises(WorkloadError):
        SyntheticSpec(update_count=-3)
    with pytest.raises(WorkloadError):
        SyntheticSpec(planted_sets=0)  # planted updates with no block to land in
    with pytest.raises(WorkloadError):
        SyntheticSpec(planted_sets=-1, planted_probability=0.0)  # ids below 1

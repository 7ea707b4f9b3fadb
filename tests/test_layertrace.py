"""The benchmark's tracer patches names of the package; they must exist and
come back unchanged when tracing ends."""

import sys
from pathlib import Path

from densestream import density, engine, graph, index, ingest, rerank

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "dsbench"))
from layertrace import LayerTracer  # noqa: E402

OWNERS = (graph.WeightedGraph, index.SubgraphIndex, density.DensityConfig,
          engine.DenseSubgraphEngine, ingest.DocumentIngestor, rerank, ingest)


def test_tracer_patches_existing_names_and_restores_them():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = LayerTracer()
    try:
        tracer.install()  # a KeyError here names a patched attribute that is gone
        patched = [(owner, attr) for owner, attr, _ in tracer._undo]
        assert patched
        assert all(owner in OWNERS for owner, _ in patched)
        assert all(vars(owner)[attr] is not before[OWNERS.index(owner)][attr]
                   for owner, attr in patched)
    finally:
        tracer.close()
    assert [dict(vars(owner)) for owner in OWNERS] == before

"""Per-layer tracing from outside the program.

``LayerTracer`` wraps public functions of the ``densestream`` modules (class
attributes and module functions) with counting or timing wrappers, and
undoes the wrapping on ``close``.  Timed wrappers keep a stack so that each
span's self time excludes the timed spans it caused.  Everything is kept in
memory; the benchmark reads the totals when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class LayerTracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)   # items yielded by iterators
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        fn = getattr(owner, attr)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def time(self, owner, attr: str, key: str, materialize: bool = False,
             size=None) -> None:
        """Time every call.

        ``materialize`` drains a returned iterator inside the span (for
        callers that consume it whole) and counts its items; ``size(args,
        result)`` instead counts what one call handled.
        """
        fn = getattr(owner, attr)
        calls, total, self_time, items = self.calls, self.total, self.self_time, self.items
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
                    items[key] += len(out)
                    out = iter(out)
                elif size is not None:
                    items[key] += size(args, out)
                return out
            finally:
                d = clock() - t0
                child = stack.pop()
                total[key] += d
                self_time[key] += d - child
                if stack:
                    stack[-1] += d

        self._patch(owner, attr, timed)

    def install(self) -> "LayerTracer":
        """Wrap the layer boundaries the benchmark reports on."""
        from densestream import density, engine, graph, index, ingest, rerank
        g, i = graph.WeightedGraph, index.SubgraphIndex
        self.time(g, "apply_update", "graph.apply_update")
        self.time(g, "merged_neighborhood", "graph.merged_neighborhood")
        self.time(g, "edges", "graph.edges", materialize=True)
        self.time(i, "iterate_containing", "index.iterate_containing", materialize=True)
        self.count(i, "find", "index.find")
        self.count(i, "extend_lookup", "index.extend_lookup")
        self.count(density.DensityConfig, "is_dense", "density.is_dense")
        self.count(density.DensityConfig, "free_extension_depth",
                   "density.free_extension_depth")
        self.time(engine.DenseSubgraphEngine, "process_update", "engine.process")
        self.time(engine.DenseSubgraphEngine, "snapshot_views", "engine.snapshot_views",
                  size=lambda args, views: len(views[0]))
        self.time(rerank, "rerank_diverse", "rerank.rerank_diverse",
                  size=lambda args, picks: len(args[0]))
        self.time(ingest.DocumentIngestor, "process_document", "ingest.process_document")
        self.time(ingest, "association_weight", "ingest.association_weight")
        return self

    def reset(self) -> None:
        for d in (self.calls, self.total, self.self_time, self.items):
            d.clear()

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

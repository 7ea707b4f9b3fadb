"""The measuring process: one workload, one closed loop, one thread.

Started by ``run.py`` with the monotonic time at which it launched this
process, so that ``setup_s`` is the wall time from process start until the
first item can be processed: interpreter start, imports, building the engine
(and ingestor) and reading the cached input.  Items are processed one at a
time through the public API; the next item starts only after the previous
one's events are returned.  Queries run at fixed item positions and are
timed apart from items.  After the timed range the outputs are checked
against ``checks.py`` and one JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(1, str(BENCH_DIR))

from densestream import rerank                                      # noqa: E402
from densestream.density import DensityConfig, DensityFamily, delta_it_upper  # noqa: E402
from densestream.engine import DenseSubgraphEngine                  # noqa: E402
from densestream.graph import WeightedGraph                         # noqa: E402
from densestream.ingest import (AssociationMeasure, DocumentIngestor,  # noqa: E402
                                read_documents)
from densestream.streams import read_updates                        # noqa: E402

import checks                                                       # noqa: E402
from inputs import MEAN_LIFE, PENALTY, QUERY_K, WORKLOADS            # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed                       # noqa: E402
from layertrace import LayerTracer                                  # noqa: E402

OUT_DIR = BENCH_DIR / ".out"
SEGMENT_S = 0.025       # CPU seconds of items between calibration passes
WINDOW = 4              # passes on each side that rescale one timing
QUERY_REPEATS = 3       # identical queries issued at each query position


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


class Run:
    """Engine, ingestor and everything one run records."""

    def __init__(self, name: str, path: Path, tracer: LayerTracer | None):
        w = self.w = WORKLOADS[name]
        family = DensityFamily.AVGWEIGHT
        self.cfg = DensityConfig(family, w.threshold, w.n_max,
                                 w.delta_it_fraction * delta_it_upper(family, w.threshold, w.n_max))
        graph = WeightedGraph()
        if w.vertices:
            graph.ensure_universe(w.vertices)
        self.engine = DenseSubgraphEngine(self.cfg, graph)
        self.ingestor = None
        t0 = time.perf_counter()
        if w.kind == "documents":
            self.ingestor = DocumentIngestor(AssociationMeasure.LLR_THRESHOLDED, MEAN_LIFE)
            self.items = list(read_documents(path))
        else:
            self.items = list(read_updates(str(path)))
        self.read_s = time.perf_counter() - t0
        self.tracer = tracer
        self.applied = []       # updates fed to the engine, in order
        self.events = []
        self.queries: list[tuple[int, list]] = []
        self.speed = HostSpeed()
        self.raw_items: list[tuple[float, int]] = []    # (CPU seconds, passes before)
        self.raw_queries: list[tuple[float, int]] = []
        self.wall_s = 0.0                                # wall time of the timed items
        self.repeat_problems: list[str] = []
        self.attempted = self.failed = 0
        self.entries_peak = self.nodes_peak = 0

    def step(self, item) -> None:
        engine, events = self.engine, self.events
        if self.ingestor is None:
            self.applied.append(item)
            events.extend(engine.process(item))
            return
        updates = self.ingestor.process_document(*item)
        self.applied.extend(updates)
        for u in updates:
            events.extend(engine.process(u))

    def query(self) -> list:
        stories = sorted(self.engine.snapshot_output_dense(expand=True).items())
        return rerank.rerank_diverse(stories, penalty=PENALTY, limit=QUERY_K)

    def _attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def execute(self) -> None:
        """Warm up untimed, then time the fixed range of items.

        Items and queries are timed in thread CPU time, so that time the
        host takes the processor away is not counted.  A calibration pass
        (see ``hostspeed``) runs before the range and after every
        ``SEGMENT_S`` of item time, which always ends before a query: a pass
        right after a large query ran up to half again as slow, measuring
        the query's disturbance rather than the host.  Every timing is kept
        with the number of passes made before it.
        """
        w, index = self.w, self.engine.index
        for item in self.items[:w.warmup]:
            self._attempt(self.step, item)
        if self.tracer is not None:
            self.tracer.reset()
            self.stats_before = vars(self.engine.stats).copy()
            self.child_probes_before = index.child_probes
            self.applied_before = len(self.applied)
        cpu, wall, speed = time.thread_time, time.perf_counter, self.speed
        speed.sample()
        segment = 0.0
        for k, item in enumerate(self.items[w.warmup:w.warmup + w.timed], 1):
            t0, c0 = wall(), cpu()
            self._attempt(self.step, item)
            d = cpu() - c0
            self.wall_s += wall() - t0
            self.raw_items.append((d, len(speed.samples)))
            segment += d
            if self.tracer is not None:
                self.entries_peak = max(self.entries_peak, len(index))
                self.nodes_peak = max(self.nodes_peak, index.node_count)
            due = k % w.query_every == 0
            if due or segment >= SEGMENT_S:
                speed.sample()
                segment = 0.0
            if due:
                answers = []
                for _ in range(QUERY_REPEATS):
                    c0 = cpu()
                    answers.append(self._attempt(self.query))
                    self.raw_queries.append((cpu() - c0, len(speed.samples)))
                if any(a != answers[0] for a in answers):
                    self.repeat_problems.append(f"item {k}: repeated queries differ")
                if answers[0] is not None:
                    self.queries.append((len(self.applied), answers[0]))
        self.item_times = self.rescale(self.raw_items)
        self.query_times = self.rescale(self.raw_queries)

    def rescale(self, timings, window: int = WINDOW) -> list[float]:
        """Timings as on the reference host: each is scaled by REFERENCE_S
        over the median of the ``window`` passes before it and as many after."""
        samples = self.speed.samples
        out = []
        for t, j in timings:
            near = samples[max(j - window, 0):j + window]
            out.append(t * REFERENCE_S / statistics.median(near))
        return out

    # -- outputs ----------------------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(self.item_times) / sum(self.item_times), "items/s"),
            "item_p99_ms": (_p99(self.item_times) * 1e3, "ms"),
            "query_ms": (statistics.median(self.query_times) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def raw(self) -> dict:
        """Uncorrected figures, for judging the host-speed correction."""
        n = len(self.raw_items)
        out = {"items_per_s_wall": n / self.wall_s,
               "items_per_s_cpu": n / sum(t for t, _ in self.raw_items),
               "query_ms_cpu": statistics.median(t for t, _ in self.raw_queries) * 1e3,
               "item_p99_ms_cpu": _p99([t for t, _ in self.raw_items]) * 1e3,
               "calibration_median_s": statistics.median(self.speed.samples)}
        return out

    def per_layer(self) -> dict:
        tr, st = self.tracer, vars(self.engine.stats)
        d = {k: st[k] - self.stats_before[k] for k in st}
        calls, total, self_t, items = tr.calls, tr.total, tr.self_time, tr.items
        n_items = len(self.item_times)
        n_queries = len(self.query_times)
        docs = n_items if self.ingestor is not None else 0
        weighed = calls["ingest.association_weight"]
        emitted = len(self.applied) - self.applied_before if docs else 0
        return {
            "streams.read_s": (self.read_s, "s"),
            "graph.apply_update_s": (total["graph.apply_update"], "s"),
            "graph.merged_neighborhood_s": (total["graph.merged_neighborhood"], "s"),
            "graph.merged_neighborhood_calls": (calls["graph.merged_neighborhood"], "count"),
            "graph.edges_scanned": (items["graph.edges"], "count"),
            "index.iterate_containing_s": (total["index.iterate_containing"], "s"),
            "index.sets_visited_per_item": (
                _ratio(items["index.iterate_containing"], n_items), "count/item"),
            "index.find_calls": (calls["index.find"], "count"),
            "index.extend_lookup_calls": (calls["index.extend_lookup"], "count"),
            "index.child_probe_ratio": (
                _ratio(self.engine.index.child_probes - self.child_probes_before,
                       calls["index.extend_lookup"]), "ratio"),
            "index.entries_peak": (self.entries_peak, "count"),
            "index.nodes_peak": (self.nodes_peak, "count"),
            "density.is_dense_calls": (calls["density.is_dense"], "count"),
            "density.free_extension_depth_calls": (
                calls["density.free_extension_depth"], "count"),
            "engine.process_self_s": (self_t["engine.process"], "s"),
            "engine.probes_per_item": (_ratio(d["probes"], n_items), "count/item"),
            "engine.probe_accept_ratio": (
                _ratio(d["probes"] - d["rejected_probes"], d["probes"]), "ratio"),
            "engine.explore_calls": (d["explore_calls"], "count"),
            "engine.cheap_explores": (d["cheap_explores"], "count"),
            "engine.star_scans": (d["star_scans"], "count"),
            "engine.events": (d["events"], "count"),
            "engine.snapshot_views_s": (total["engine.snapshot_views"], "s"),
            "engine.snapshot_sets": (
                _ratio(items["engine.snapshot_views"], n_queries), "count/query"),
            "rerank.rerank_diverse_s": (total["rerank.rerank_diverse"], "s"),
            "rerank.pool_size": (_ratio(items["rerank.rerank_diverse"], n_queries), "count/query"),
            "ingest.process_document_self_s": (self_t["ingest.process_document"], "s"),
            "ingest.association_weight_s": (total["ingest.association_weight"], "s"),
            "ingest.pairs_recomputed_per_doc": (_ratio(weighed, docs), "count/doc"),
            "ingest.updates_per_doc": (_ratio(emitted, docs), "count/doc"),
            "ingest.emit_ratio": (_ratio(emitted, weighed), "ratio"),
        }

    def check(self) -> list[str]:
        w, engine = self.w, self.engine
        sched = checks.Schedule(w.threshold, w.n_max, w.delta_it_fraction)
        applied = [(u.a, u.b, u.delta) for u in self.applied]
        weights = {(a, b): x for a, b, x in engine.graph.edges()}
        problems = checks.check_conservation(applied, weights)
        problems += checks.check_event_replay(
            [(e.seq, e.kind, e.vertices) for e in self.events],
            engine.snapshot_output_dense(expand=False))
        problems += checks.check_queries(applied, self.queries, sched, PENALTY)
        table = checks.pair_table(applied)
        if w.name == "planted":
            dense, output = engine.snapshot_views(expand=True)
            problems += checks.check_enumeration(table, sched, dense, output)
        elif w.name == "saturated":
            dense, output = engine.snapshot_views(expand=True)
            problems += checks.check_reported_dense(table, sched, dense, output)
            problems += checks.check_signature(table, sched, engine.state_signature())
        else:
            token = self.ingestor.dictionary.token_for
            by_token = {tuple(sorted((token(a), token(b)))): x for (a, b), x in weights.items()}
            problems += checks.check_llr_weights(self.items, by_token, MEAN_LIFE)
        return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    args = p.parse_args(argv)

    tracer = LayerTracer().install() if args.trace else None
    run = Run(args.workload, args.input, tracer)
    setup_s = time.monotonic() - args.launched
    setup_cpu = time.process_time()
    run.execute()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.close()
        metrics = run.per_layer()
        traced = len(run.item_times) / sum(run.item_times)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "items_per_s_traced": traced,
            "calls": dict(tracer.calls), "total_s": dict(tracer.total),
            "self_s": dict(tracer.self_time), "items": dict(tracer.items),
        }, indent=1, sort_keys=True))
        print(f"traced items_per_s={traced:.2f}", file=sys.stderr)
    else:
        metrics = run.end_to_end(setup_s, peak_rss_mb)
    problems = run.repeat_problems + run.check()
    print("raw " + json.dumps({"setup_s_cpu": setup_cpu,
                               **run.raw()}), file=sys.stderr)
    for line in problems[:20]:
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

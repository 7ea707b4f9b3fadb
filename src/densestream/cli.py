"""Operator command line: run, verify, gen, top, ingest.

Event output is byte-deterministic for a fixed (config, input) pair; wall
times and other run summaries go to stderr so they never pollute files or
piped event streams.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

from .density import ConfigError, DensityConfig, DensityFamily, delta_it_upper
from .engine import DenseSubgraphEngine
from .graph import GraphError, WeightedGraph
from .ingest import (AssociationMeasure, DocumentIngestor, EntityDictionary,
                     IngestError, numbered_documents)
from .oracle import OracleCapacityError, brute_force_dense, diff
from .rerank import rerank_diverse
from .streams import StreamFormatError, format_event, format_update, read_updates
from .workload import GenerationReport, SyntheticSpec, WorkloadError, generate


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--density", choices=[f.value for f in DensityFamily],
                   default="avgweight", help="cardinality weight family")
    p.add_argument("--threshold", type=float, default=1.0,
                   help="output density threshold T")
    p.add_argument("--nmax", type=int, default=5, help="maximum set cardinality")
    p.add_argument("--delta-it", default=None,
                   help="round unit of the derived schedule, absolute or as N%% of "
                        "its maximum (default 1%%); --thresholds implies its own")
    p.add_argument("--thresholds", default=None,
                   help="explicit T_2,...,T_nmax overriding the derived schedule")
    p.add_argument("--universe", type=int, default=None,
                   help="declare the vertex universe size up front")


class _InputError(ValueError):
    """Input the command refuses, named by the option's flag or the update's seq."""


def _number(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _InputError(f"{flag}: not a number: {text!r}") from None


def build_config(args) -> DensityConfig:
    family = DensityFamily(args.density)
    if args.thresholds:
        if args.delta_it is not None:
            raise _InputError("--delta-it: the round unit follows from --thresholds; "
                              "give one of the two")
        explicit = tuple(_number("--thresholds", x) for x in args.thresholds.split(","))
        return DensityConfig(family, args.threshold, args.nmax, explicit_thresholds=explicit)
    spec = ("1%" if args.delta_it is None else args.delta_it).strip()
    if spec.endswith("%"):
        frac = _number("--delta-it", spec[:-1]) / 100.0
        delta_it = frac * delta_it_upper(family, args.threshold, args.nmax)
    else:
        delta_it = _number("--delta-it", spec)
    return DensityConfig(family, args.threshold, args.nmax, delta_it)


def _make_engine(args, cfg: DensityConfig) -> DenseSubgraphEngine:
    graph = WeightedGraph()
    if args.universe is not None:
        if args.universe < 1:
            raise _InputError("--universe must be at least 1")
        graph.ensure_universe(args.universe)
    return DenseSubgraphEngine(cfg, graph)


def _replay(engine: DenseSubgraphEngine, path: str):
    """Feed a stream file to the engine, yielding (update, its events)."""
    for u in read_updates(path):
        try:
            events = engine.process(u)
        except (GraphError, OverflowError) as exc:
            raise _InputError(f"update seq={u.seq}: {exc}") from exc
        yield u, events


@contextmanager
def _out_stream(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def cmd_run(args) -> int:
    cfg = build_config(args)
    engine = _make_engine(args, cfg)
    start = time.perf_counter()
    count = 0
    with _out_stream(args.events) as out:
        for _u, events in _replay(engine, args.updates):
            for ev in events:
                out.write(format_event(ev) + "\n")
            count += 1
    wall = time.perf_counter() - start
    st = engine.stats
    print(f"updates={count} events={st.events} peak_index={st.peak_entries} "
          f"round_unit={cfg.delta_it:.9f} wall_secs={wall:.3f}", file=sys.stderr)
    if args.expand:
        snap = engine.snapshot_output_dense(expand=True)
        for vs in sorted(snap):
            print(f"FINAL {snap[vs]:.9f} {','.join(map(str, vs))}", file=sys.stdout
                  if args.events not in (None, "-") else sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.checkpoint_every < 1:
        raise _InputError("--checkpoint-every must be at least 1")
    cfg = build_config(args)
    engine = _make_engine(args, cfg)
    checked = 0
    count = 0
    for u, _events in _replay(engine, args.updates):
        count += 1
        if count % args.checkpoint_every:
            continue
        checked += 1
        oracle = brute_force_dense(engine.graph, cfg, strategy=args.oracle,
                                   universe_cap=args.oracle_cap)
        dense_view, output_view = engine.snapshot_views(expand=True)
        for view, truth, label in (
                (dense_view, oracle.dense, "dense"),
                (output_view, oracle.output_dense, "output-dense")):
            problems = diff(view, truth)
            if problems:
                print(f"FAIL at update seq={u.seq} ({label} view): {problems[0]}",
                      file=sys.stderr)
                return 1
    print(f"PASS {count} updates, {checked} checkpoints", file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    spec = SyntheticSpec(
        vertex_count=args.vertices,
        update_count=args.count,
        magnitude_max=args.magnitude,
        negative_probability=args.negative_prob,
        planted_probability=args.planted_prob,
        planted_sets=args.planted_sets,
        planted_size=args.planted_size,
        reject_too_dense=args.reject_too_dense,
        gate_threshold=args.gate_threshold,
        gate_n_max=args.gate_nmax,
        seed=args.seed,
    )
    report = GenerationReport()
    stream = generate(spec, report)
    with _out_stream(args.out) as out:
        for u in stream:
            out.write(format_update(u) + "\n")
    print(f"updates={len(stream)} rejected={report.rejected} "
          f"negative={report.negative} planted={report.planted}", file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    if not 0.0 <= args.penalty <= 1.0:
        raise _InputError("--penalty must lie in [0, 1]")
    if args.k < 1:
        raise _InputError("--k must be at least 1")
    cfg = build_config(args)
    engine = _make_engine(args, cfg)
    for _ in _replay(engine, args.updates):
        pass
    stories = engine.snapshot_output_dense(expand=True).items()
    ranked = rerank_diverse(stories, penalty=args.penalty, limit=args.k)
    for rank, (vs, density, adjusted) in enumerate(ranked, 1):
        print(f"{rank} {density:.9f} {adjusted:.9f} {','.join(map(str, vs))}")
    return 0


def cmd_ingest(args) -> int:
    dictionary = EntityDictionary()
    ingestor = DocumentIngestor(AssociationMeasure(args.measure),
                                mean_life=args.mean_life_secs,
                                dictionary=dictionary)
    count = 0
    with _out_stream(args.out) as out:
        for lineno, t, ents in numbered_documents(args.documents):
            try:
                updates = ingestor.process_document(t, ents)
            except IngestError as exc:
                raise IngestError(f"line {lineno}: {exc}") from exc
            for u in updates:
                out.write(format_update(u) + "\n")
                count += 1
    if args.dictionary:
        dictionary.save(args.dictionary)
    print(f"updates={count} entities={len(dictionary)}"
          f" pairs_visited={ingestor.pairs_reweighed} pairs_tabled={ingestor.pairs_tabled}"
          f" live_cells={ingestor.counts.live_cells} hot={ingestor.hot_entities}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densestream",
        description="maintain dense vertex sets under streaming edge-weight updates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="process an update stream, writing events")
    _add_config_flags(p)
    p.add_argument("--updates", required=True, help="update stream file")
    p.add_argument("--events", default=None, help="events file (default stdout)")
    p.add_argument("--expand", action="store_true",
                   help="also print the final expanded output-dense view")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="replay a stream in lockstep with the oracle")
    _add_config_flags(p)
    p.add_argument("--updates", required=True)
    p.add_argument("--checkpoint-every", type=int, default=1)
    p.add_argument("--oracle", choices=["levelwise", "exhaustive", "both"],
                   default="levelwise")
    p.add_argument("--oracle-cap", type=int, default=25)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a synthetic update stream")
    p.add_argument("--out", default=None, help="stream file (default stdout)")
    p.add_argument("--vertices", type=int, default=1000)
    p.add_argument("--count", type=int, default=2500)
    p.add_argument("--magnitude", type=float, default=0.1)
    p.add_argument("--negative-prob", type=float, default=0.3)
    p.add_argument("--planted-prob", type=float, default=0.9)
    p.add_argument("--planted-sets", type=int, default=10)
    p.add_argument("--planted-size", type=int, default=10)
    p.add_argument("--reject-too-dense", action="store_true")
    p.add_argument("--gate-threshold", type=float, default=0.7)
    p.add_argument("--gate-nmax", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("top", help="diversity-reranked output-dense sets")
    _add_config_flags(p)
    p.add_argument("--updates", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--penalty", type=float, default=0.8)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("ingest", help="turn a document stream into edge updates")
    p.add_argument("--documents", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--measure", choices=[m.value for m in AssociationMeasure],
                   default="chi2")
    p.add_argument("--mean-life-secs", type=float, default=7200.0)
    p.add_argument("--dictionary", default=None,
                   help="write the entity-id dictionary to this JSON file")
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StreamFormatError, ConfigError, OracleCapacityError, IngestError,
            WorkloadError, _InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

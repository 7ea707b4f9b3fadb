"""Workload definitions and their cached inputs.

Every input is a pure function of (workload, seed).  Inputs are generated
once per (workload, seed) and cached under ``dsbench/.cache/`` (ignored by
git): update streams in the ``densestream`` stream format, documents in the
``densestream ingest`` format.

Regenerate one cached input (or all three for one seed) with::

    python3 dsbench/inputs.py --workload planted --seed 7
    python3 dsbench/inputs.py --seed 7            # every workload
"""

from __future__ import annotations

import argparse
import bisect
import math
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_DIR = BENCH_DIR / ".cache"
sys.path.insert(0, str(ROOT / "src"))

from densestream.graph import EdgeUpdate                             # noqa: E402
from densestream.streams import read_updates, write_updates          # noqa: E402
from densestream.workload import SyntheticSpec, generate             # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "stream" (edge updates) or "documents"
    threshold: float       # engine config: avgweight family throughout
    n_max: int
    delta_it_fraction: float
    vertices: int          # universe declared up front (streams only)
    warmup: int            # items processed untimed before the timed range
    timed: int             # items in the timed range
    query_every: int       # queries after every this many timed items


WORKLOADS = {
    # Gated synthetic stream: no set can ever absorb a free vertex.  Two
    # planted 10-vertex blocks reach their plateau (nearly every subset up to
    # n_max dense) by about item 4500; the timed range lies on the plateau.
    "planted": Workload("planted", "stream", 0.7, 8, 0.4, 10_000,
                        warmup=5_000, timed=3_000, query_every=250),
    # Ungated synthetic stream: planted blocks saturate and star chains form
    # inside the timed range (about 70 star cores by its end).
    "saturated": Workload("saturated", "stream", 0.7, 5, 0.4, 1_000,
                          warmup=17_000, timed=4_000, query_every=500),
    # Synthetic posts through DocumentIngestor (llr) into the engine.
    "documents": Workload("documents", "documents", 0.7, 5, 0.4, 0,
                          warmup=0, timed=4_000, query_every=250),
}

PLANTED_BLOCKS = 2
SATURATED_BLOCKS = 10
QUERY_K = 10            # stories per query, as `densestream top --k`
PENALTY = 0.8           # rerank overlap penalty, as `densestream top --penalty`
MEAN_LIFE = 7200.0      # DocumentIngestor mean life, seconds
# Each workload's input comes from one fixed generator seed; --seed draws a
# relabeling of its vertices or entities (README, *Workloads and seeds*).
BASE_SEEDS = {"planted": 18, "saturated": 1, "documents": 1}


def total_items(w: Workload) -> int:
    return w.warmup + w.timed


def input_path(name: str, seed: int) -> Path:
    suffix = "docs" if WORKLOADS[name].kind == "documents" else "updates"
    return CACHE_DIR / f"{name}-{seed}.{suffix}"


# -- synthetic edge streams ------------------------------------------------------------

def _planted_spec():
    w = WORKLOADS["planted"]
    return SyntheticSpec(vertex_count=w.vertices, update_count=total_items(w),
                         planted_sets=PLANTED_BLOCKS, planted_size=10,
                         reject_too_dense=True, gate_threshold=w.threshold,
                         gate_delta_it_fraction=w.delta_it_fraction,
                         gate_n_max=w.n_max, seed=BASE_SEEDS["planted"])


def _saturated_spec():
    w = WORKLOADS["saturated"]
    return SyntheticSpec(vertex_count=w.vertices, update_count=total_items(w),
                         planted_sets=SATURATED_BLOCKS, planted_size=10,
                         seed=BASE_SEEDS["saturated"])


def relabeling(seed: int, vertices: int) -> list[int]:
    """A seeded permutation of 1..vertices, as a lookup table (index 0 unused)."""
    ids = list(range(1, vertices + 1))
    random.Random(f"relabel-{seed}").shuffle(ids)
    return [0] + ids


def base_stream(name: str) -> list:
    """The generator's stream before relabeling, cached apart: the gated
    planted stream takes about fifteen seconds to generate."""
    path = CACHE_DIR / f"{name}-base.updates"
    if not path.exists():
        spec = _planted_spec() if name == "planted" else _saturated_spec()
        _write_atomic(path, lambda tmp: write_updates(str(tmp), generate(spec)))
    return list(read_updates(str(path)))


def make_stream(name: str, seed: int) -> list:
    perm = relabeling(seed, WORKLOADS[name].vertices)
    return [EdgeUpdate(u.seq, perm[u.a], perm[u.b], u.delta) for u in base_stream(name)]


# -- synthetic documents ------------------------------------------------------------------

@dataclass(frozen=True)
class DocumentSpec:
    entities: int = 2000          # background vocabulary, Zipf-ranked
    zipf_s: float = 1.0
    mean_gap: float = 2.0         # seconds between posts (exponential)
    background_mean: float = 1.5  # background entities per post, 1 + Poisson
    story_gap: float = 600.0      # seconds between story starts
    story_size: int = 5
    story_span: float = 500.0     # seconds a story stays active (one at a time)
    story_share: float = 0.15     # share of posts during a burst that cover it
    story_mentions: int = 3       # story entities named per covering post


def _poisson(rng: random.Random, mean: float) -> int:
    limit = math.exp(-mean)
    k, p = 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def make_documents(seed: int, count: int, spec: DocumentSpec = DocumentSpec()
                   ) -> list[tuple[float, list[str]]]:
    """Timestamped posts: Zipf background entities plus planted story bursts."""
    rng = random.Random(f"documents-{seed}")
    weights = [1.0 / (r ** spec.zipf_s) for r in range(1, spec.entities + 1)]
    cum = []
    acc = 0.0
    for wt in weights:
        acc += wt
        cum.append(acc)

    def background() -> str:
        return f"e{bisect.bisect_left(cum, rng.random() * acc)}"

    # Stories follow a fixed schedule, so that every seed plants the same
    # number of equally long bursts; with random starts the number of
    # stories and their overlaps varied enough to change the engine's state
    # twentyfold between seeds.
    horizon = count * spec.mean_gap
    stories = []
    start = spec.story_gap / 2
    while start < horizon:
        members = [f"s{len(stories)}_{j}" for j in range(spec.story_size)]
        stories.append((start, start + spec.story_span, members))
        start += spec.story_gap
    docs = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(1.0 / spec.mean_gap)
        ents = {background() for _ in range(1 + _poisson(rng, spec.background_mean))}
        for start, end, members in stories:
            if start <= t < end and rng.random() < spec.story_share:
                ents.update(rng.sample(members, spec.story_mentions))
        docs.append((round(t, 3), sorted(ents)))
    return docs


# -- cache ---------------------------------------------------------------------------------

def _write_atomic(path: Path, write) -> None:
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    write(tmp)
    os.replace(tmp, path)


def relabeled_documents(seed: int) -> list[tuple[float, list[str]]]:
    """The fixed posts with every entity renamed by a seeded permutation, which
    changes every sorted order in the ingestor and every vertex id."""
    docs = make_documents(BASE_SEEDS["documents"], total_items(WORKLOADS["documents"]))
    names = sorted({e for _, ents in docs for e in ents})
    perm = list(range(len(names)))
    random.Random(f"relabel-{seed}").shuffle(perm)
    rename = {e: f"n{perm[i]}" for i, e in enumerate(names)}
    return [(t, sorted(rename[e] for e in ents)) for t, ents in docs]


def _write_documents(tmp: Path, seed: int) -> None:
    with open(tmp, "w", encoding="utf-8") as fh:
        for t, ents in relabeled_documents(seed):
            fh.write(f"{t:.3f}\t{','.join(ents)}\n")


def ensure_input(name: str, seed: int) -> Path:
    """Path of the cached input, generating it first when absent."""
    path = input_path(name, seed)
    if not path.exists():
        if WORKLOADS[name].kind == "documents":
            _write_atomic(path, lambda tmp: _write_documents(tmp, seed))
        else:
            _write_atomic(path, lambda tmp: write_updates(str(tmp), make_stream(name, seed)))
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="generate cached benchmark inputs")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="one workload (default: every workload)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--force", action="store_true", help="regenerate when cached")
    args = p.parse_args(argv)
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        if args.force:
            input_path(name, args.seed).unlink(missing_ok=True)
            (CACHE_DIR / f"{name}-base.updates").unlink(missing_ok=True)
        print(ensure_input(name, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

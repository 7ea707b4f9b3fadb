"""densestream benchmark: one run of one workload.

    python3 dsbench/run.py --workload planted --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout.  The input for (workload, seed) is
generated into ``dsbench/.cache/`` when not cached yet; then a fresh
interpreter (``measure.py``) replays it through the package in ``src/`` and
prints the result as the last line of standard output: a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.

Each workload's work is fixed (see ``inputs.py``), never a duration:
``--seconds`` is accepted for the harness interface and does not change what
is measured.  Exits non-zero without a result when the package source is
missing or the measuring process fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MEASURE_TIMEOUT = 170.0
# glibc adapts its mmap threshold to the sizes freed so far, which made the
# peak resident memory of one input land on either of two values ~10% apart;
# pinning the threshold at its initial value makes the peak repeat.
MEASURE_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def main(argv=None) -> int:
    if not (ROOT / "src" / "densestream" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from inputs import WORKLOADS, ensure_input
    p = argparse.ArgumentParser(description="run one densestream benchmark workload")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=0,
                   help="accepted for the harness; the work per run is fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    path = ensure_input(args.workload, args.seed)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "measure.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--input", str(path), "--trace", str(args.trace),
             "--launched", repr(launched)],
            cwd=ROOT, env={**os.environ, **MEASURE_ENV}, timeout=MEASURE_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"error: measuring process exceeded {MEASURE_TIMEOUT:.0f}s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

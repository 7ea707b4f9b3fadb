"""File formats for update streams and event logs.

Update stream: UTF-8 lines ``<seq> <a> <b> <delta>`` joined by single
spaces; ``#`` comment lines and blank lines are ignored.  Events:
``<seq> GAIN|LOSE <density to 9 decimals> <v1,v2,...>`` with vertices
ascending.  Both are written byte-deterministically.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Iterator

from .engine import DensityEvent
from .graph import EdgeUpdate


class StreamFormatError(ValueError):
    pass


def parse_update_line(line: str, lineno: int) -> EdgeUpdate:
    parts = line.split()
    if len(parts) != 4:
        raise StreamFormatError(f"line {lineno}: expected 'seq a b delta', got {line!r}")
    try:
        seq, a, b = int(parts[0]), int(parts[1]), int(parts[2])
        delta = float(parts[3])
    except ValueError as exc:
        raise StreamFormatError(f"line {lineno}: malformed field in {line!r}") from exc
    if not math.isfinite(delta):
        raise StreamFormatError(f"line {lineno}: non-finite delta in {line!r}")
    if a == b:
        raise StreamFormatError(f"line {lineno}: self-loop update on vertex {a}")
    if a < 1 or b < 1:
        raise StreamFormatError(f"line {lineno}: vertex ids must be positive")
    return EdgeUpdate(seq, a, b, delta)


def read_updates(source: IO[str] | str) -> Iterator[EdgeUpdate]:
    """Parse a stream file or open handle; malformed lines abort with their number."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            yield from read_updates(fh)
        return
    for i, line in enumerate(source, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_update_line(stripped, i)


def format_update(u: EdgeUpdate) -> str:
    return f"{u.seq} {u.a} {u.b} {u.delta:.9f}"


def write_updates(path: str, updates: Iterable[EdgeUpdate]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for u in updates:
            fh.write(format_update(u) + "\n")
            n += 1
    return n


def format_event(ev: DensityEvent) -> str:
    verts = ",".join(str(v) for v in ev.vertices)
    return f"{ev.seq} {ev.kind} {ev.density:.9f} {verts}"

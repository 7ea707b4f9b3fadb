"""Turn a timestamped entity-annotated document stream into edge updates.

Occurrence, co-occurrence and document totals decay exponentially with a
configurable mean life (a count observed dt ago contributes e^(-dt/tau)).
Counters decay lazily: each stores its value as of its last touch.

Edge weights come from a 2x2 contingency table of the decayed counts.  Two
measures: a thresholded log-likelihood-ratio (weight 1 when both entities
have support of at least five documents and the G-statistic clears the 1%
critical value, else 0) and a chi-square-gated correlation coefficient
(max(phi, 0) when the statistic clears the 5% value, else 0).

A document only re-weighs edges incident to its own entities; edges between
untouched entities keep the weight computed at the last time one of their
endpoints appeared.  That staleness approximation is what makes incremental
emission possible.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .density import EPS
from .graph import EdgeUpdate

DEFAULT_MEAN_LIFE = 7200.0     # seconds; two hours
LLR_MIN_SUPPORT = 5.0          # documents per entity before an edge may form
LLR_CRITICAL = 6.635           # chi-square(1df) upper tail at p = 0.01
CHI2_CRITICAL = 3.841          # chi-square(1df) upper tail at p = 0.05
TIME_SLACK = 1e-6              # tolerated timestamp regression


class IngestError(ValueError):
    pass


class AssociationMeasure(str, Enum):
    LLR_THRESHOLDED = "llr"
    CHI2_CORRELATION = "chi2"


class DecayedCounts:
    """Exponentially decayed occurrence / co-occurrence / total counters."""

    def __init__(self, mean_life: float = DEFAULT_MEAN_LIFE):
        if mean_life <= 0:
            raise IngestError("mean life must be positive")
        self.mean_life = mean_life
        self._occ: dict[str, list[float]] = {}        # entity -> [count, t]
        self._co: dict[tuple[str, str], list[float]] = {}
        self._partners: dict[str, set[str]] = {}      # ever co-occurred with
        self._total = [0.0, 0.0]
        self._clock: Optional[float] = None

    def _decayed(self, value: float, t0: float, t: float) -> float:
        if t == t0:
            return value
        return value * math.exp(-(t - t0) / self.mean_life)

    def observe(self, t: float, entities: Iterable[str]) -> None:
        """Count one document at time t mentioning the given entities."""
        if not math.isfinite(t):
            raise IngestError(f"document timestamp {t} is not finite")
        if self._clock is not None and t < self._clock - TIME_SLACK:
            raise IngestError(f"document timestamp {t} precedes clock {self._clock}")
        t = max(t, self._clock) if self._clock is not None else t
        self._clock = t
        cell = self._total
        cell[0] = self._decayed(cell[0], cell[1], t) + 1.0
        cell[1] = t
        ents = sorted(set(entities))
        for e in ents:
            cell = self._occ.setdefault(e, [0.0, t])
            cell[0] = self._decayed(cell[0], cell[1], t) + 1.0
            cell[1] = t
        for i, e1 in enumerate(ents):
            for e2 in ents[i + 1:]:
                cell = self._co.setdefault((e1, e2), [0.0, t])
                cell[0] = self._decayed(cell[0], cell[1], t) + 1.0
                cell[1] = t
                self._partners.setdefault(e1, set()).add(e2)
                self._partners.setdefault(e2, set()).add(e1)

    def occurrence(self, e: str, t: float) -> float:
        cell = self._occ.get(e)
        return 0.0 if cell is None else self._decayed(cell[0], cell[1], t)

    def cooccurrence(self, e1: str, e2: str, t: float) -> float:
        key = (e1, e2) if e1 <= e2 else (e2, e1)
        cell = self._co.get(key)
        return 0.0 if cell is None else self._decayed(cell[0], cell[1], t)

    def total(self, t: float) -> float:
        return self._decayed(self._total[0], self._total[1], t)

    def partners(self, e: str) -> set[str]:
        return self._partners.get(e, set())

    @property
    def clock(self) -> Optional[float]:
        return self._clock


def contingency_table(counts: DecayedCounts, e1: str, e2: str,
                      t: float) -> tuple[float, float, float, float]:
    """(n11, n10, n01, n00) of decayed counts at time t, clamped at zero."""
    n = counts.total(t)
    k1 = counts.occurrence(e1, t)
    k2 = counts.occurrence(e2, t)
    k11 = counts.cooccurrence(e1, e2, t)
    n11 = k11
    n10 = max(k1 - k11, 0.0)
    n01 = max(k2 - k11, 0.0)
    n00 = max(n - k1 - k2 + k11, 0.0)
    return n11, n10, n01, n00


def g_statistic(n11: float, n10: float, n01: float, n00: float) -> float:
    """Likelihood-ratio statistic of a 2x2 table (zero cells contribute zero)."""
    n = n11 + n10 + n01 + n00
    r1, r2 = n11 + n10, n01 + n00
    c1, c2 = n11 + n01, n10 + n00
    if n <= 0 or min(r1, r2, c1, c2) <= 0:
        return 0.0
    g = 0.0
    for obs, expected in ((n11, r1 * c1 / n), (n10, r1 * c2 / n),
                          (n01, r2 * c1 / n), (n00, r2 * c2 / n)):
        if obs > 0:
            g += obs * math.log(obs / expected)
    return 2.0 * g


def chi2_statistic(n11: float, n10: float, n01: float, n00: float) -> float:
    n = n11 + n10 + n01 + n00
    r1, r2 = n11 + n10, n01 + n00
    c1, c2 = n11 + n01, n10 + n00
    if n <= 0 or min(r1, r2, c1, c2) <= 0:
        return 0.0
    d = n11 * n00 - n10 * n01
    return n * d * d / (r1 * r2 * c1 * c2)


def phi_coefficient(n11: float, n10: float, n01: float, n00: float) -> float:
    r1, r2 = n11 + n10, n01 + n00
    c1, c2 = n11 + n01, n10 + n00
    denom = r1 * r2 * c1 * c2
    if denom <= 0:
        return 0.0
    return (n11 * n00 - n10 * n01) / math.sqrt(denom)


def association_weight(counts: DecayedCounts, measure: AssociationMeasure,
                       e1: str, e2: str, t: float) -> float:
    """Edge weight for a pair at time t; insignificant pairs weigh exactly 0."""
    table = contingency_table(counts, e1, e2, t)
    if measure is AssociationMeasure.LLR_THRESHOLDED:
        if (counts.occurrence(e1, t) < LLR_MIN_SUPPORT
                or counts.occurrence(e2, t) < LLR_MIN_SUPPORT):
            return 0.0
        # Only positive association counts; a pair co-occurring less often
        # than independence predicts must not create an edge.
        if phi_coefficient(*table) <= 0:
            return 0.0
        return 1.0 if g_statistic(*table) > LLR_CRITICAL else 0.0
    if chi2_statistic(*table) > CHI2_CRITICAL:
        return max(phi_coefficient(*table), 0.0)
    return 0.0


class EntityDictionary:
    """Stable mapping of opaque entity tokens to dense 1-based vertex ids."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def id_for(self, token: str) -> int:
        vid = self._ids.get(token)
        if vid is None:
            vid = len(self._tokens) + 1
            self._ids[token] = vid
            self._tokens.append(token)
        return vid

    def token_for(self, vid: int) -> str:
        return self._tokens[vid - 1]

    def __len__(self) -> int:
        return len(self._tokens)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self._tokens), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EntityDictionary":
        d = cls()
        for token in json.loads(Path(path).read_text(encoding="utf-8")):
            d.id_for(token)
        return d


class DocumentIngestor:
    """Feeds documents through the counters and emits the resulting updates.

    After each document only the pairs incident to its entities are
    recomputed; an update is emitted when a recomputed weight moved by more
    than the comparison tolerance.
    """

    def __init__(self, measure: AssociationMeasure = AssociationMeasure.CHI2_CORRELATION,
                 mean_life: float = DEFAULT_MEAN_LIFE,
                 dictionary: Optional[EntityDictionary] = None):
        self.counts = DecayedCounts(mean_life)
        self.measure = measure
        self.dictionary = dictionary if dictionary is not None else EntityDictionary()
        self._weights: dict[tuple[str, str], float] = {}  # last emitted weight
        self._seq = 0

    def observe_document(self, t: float, entities: Iterable[str]) -> None:
        """Count a document; weights are not recomputed until the flush."""
        ents = sorted(set(entities))
        self.counts.observe(t, ents)  # first, so a rejected document registers nothing
        for e in ents:
            self.dictionary.id_for(e)  # ids follow first appearance, not first edge

    def flush_updates(self, entities: Iterable[str]) -> list[EdgeUpdate]:
        """Re-weigh every pair incident to the given entities.

        Called after ``observe_document`` for the same document; emits one
        update per pair whose weight moved by more than the tolerance, with
        consecutive sequence numbers.
        """
        t = self.counts.clock
        ents = sorted(set(entities))
        updates: list[EdgeUpdate] = []
        recomputed: set[tuple[str, str]] = set()
        for e in ents:
            for x in sorted(self.counts.partners(e)):
                key = (e, x) if e <= x else (x, e)
                if key in recomputed:
                    continue
                recomputed.add(key)
                new_w = association_weight(self.counts, self.measure, key[0], key[1], t)
                old_w = self._weights.get(key, 0.0)
                if abs(new_w - old_w) > EPS:
                    self._seq += 1
                    updates.append(EdgeUpdate(
                        self._seq,
                        self.dictionary.id_for(key[0]),
                        self.dictionary.id_for(key[1]),
                        new_w - old_w,
                    ))
                    if new_w == 0.0:
                        self._weights.pop(key, None)
                    else:
                        self._weights[key] = new_w
        return updates

    def process_document(self, t: float, entities: Iterable[str]) -> list[EdgeUpdate]:
        self.observe_document(t, entities)
        return self.flush_updates(entities)


def parse_document_line(line: str, lineno: int = 0) -> tuple[float, list[str]]:
    """One document per line: ``<timestamp>`` TAB ``<entity>[,<entity>...]``."""
    body = line.rstrip("\n")
    if "\t" in body:
        stamp, rest = body.split("\t", 1)
    else:
        stamp, rest = body, ""
    try:
        t = float(stamp)
    except ValueError as exc:
        raise IngestError(f"line {lineno}: bad timestamp {stamp!r}") from exc
    if not math.isfinite(t):
        raise IngestError(f"line {lineno}: non-finite timestamp {stamp!r}")
    entities = [e for e in rest.split(",") if e] if rest else []
    return t, entities


def read_documents(path) -> Iterator[tuple[float, list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            yield parse_document_line(line, i)

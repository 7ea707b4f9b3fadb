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

Each document reads the total and its own entities' occurrences once; it
has just touched them, so they need no decay.  Under llr a pair is then
gated in order: the document entity's support, then the partner's decayed
count, and only then are the co-occurrence decayed and the table built.
Decay never raises a count: c * exp(-dt/tau) <= c holds also in floating
point, for dt >= 0 and a finite tau > 0, which is why the mean life must
be finite.

Under llr a post visits only the partners whose weight can move.  A pair
weighs 0 while either support is below 5, so a pair whose last emitted
weight is 0 stays silent unless both counts are at least 5 now.  The
ingestor therefore keeps two structures: each entity's partners of
nonzero weight, with that weight, stored both ways, and a hot set that
holds every entity whose decayed count may still be at least 5.  A post
entity joins the set when its count is at least 5 and leaves it
otherwise; a visited partner whose decayed count reads below 5 leaves it
too.  A post entity below 5 visits only its weighted partners; any other
visits its hot partners and its weighted ones, in sorted order.  A
skipped pair would have weighed 0 and emitted nothing, and the visited
pairs keep their order, so the emitted stream is the one of visiting every
partner.  A pair of two post entities is weighed once, from the smaller:
a weighted pair is listed from both sides, and an unweighted pair the
larger visits has both entities hot, so the smaller visited it first.

Retirement is exact: a retired entity stays below 5 until its next post
re-adds it, because its decayed count never rises between touches.  That
assumes ``exp`` is monotone in the elapsed time, as the clock never runs
back and the other steps of the decay round monotonically.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, KeysView, Optional

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

    @classmethod
    def _missing_(cls, value):
        raise IngestError(f"unknown association measure {value!r}")


class DecayedCounts:
    """Exponentially decayed occurrence / co-occurrence / total counters."""

    def __init__(self, mean_life: float = DEFAULT_MEAN_LIFE):
        if not (math.isfinite(mean_life) and mean_life > 0):
            raise IngestError(f"mean life must be finite and positive, got {mean_life}")
        self.mean_life = mean_life
        self._occ: dict[str, list[float]] = {}        # entity -> [count, t]
        # e -> {partner: [count, t]}; a pair's one cell is shared by both rows
        self._co: dict[str, dict[str, list[float]]] = {}
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
                row = self._co.setdefault(e1, {})
                cell = row.get(e2)
                if cell is None:
                    cell = row[e2] = self._co.setdefault(e2, {})[e1] = [0.0, t]
                cell[0] = self._decayed(cell[0], cell[1], t) + 1.0
                cell[1] = t

    def occurrence(self, e: str, t: float) -> float:
        cell = self._occ.get(e)
        return 0.0 if cell is None else self._decayed(cell[0], cell[1], t)

    def stored_occurrence(self, e: str) -> float:
        """Occurrence count of e as of its last touch.

        Decay never raises a count, so this bounds the decayed count at any
        later time from above, and costs no ``exp``.
        """
        cell = self._occ.get(e)
        return 0.0 if cell is None else cell[0]

    def cooccurrence(self, e1: str, e2: str, t: float) -> float:
        cell = self._co.get(e1, {}).get(e2)
        return 0.0 if cell is None else self._decayed(cell[0], cell[1], t)

    def total(self, t: float) -> float:
        return self._decayed(self._total[0], self._total[1], t)

    def partners(self, e: str) -> KeysView[str]:
        """The entities e ever co-occurred with, as a set-like view."""
        return self._co.get(e, {}).keys()

    @property
    def live_cells(self) -> int:
        """Co-occurrence cells held, one per pair; none is ever dropped."""
        return sum(map(len, self._co.values())) // 2

    @property
    def clock(self) -> Optional[float]:
        return self._clock


def _table(n: float, k1: float, k2: float,
           k11: float) -> tuple[float, float, float, float]:
    return k11, max(k1 - k11, 0.0), max(k2 - k11, 0.0), max(n - k1 - k2 + k11, 0.0)


def contingency_table(counts: DecayedCounts, e1: str, e2: str,
                      t: float) -> tuple[float, float, float, float]:
    """(n11, n10, n01, n00) of decayed counts at time t, clamped at zero."""
    return _table(counts.total(t), counts.occurrence(e1, t),
                  counts.occurrence(e2, t), counts.cooccurrence(e1, e2, t))


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


def table_weight(measure: AssociationMeasure, n: float, k1: float, k2: float,
                 k11: float) -> float:
    """Edge weight from decayed counts at one instant: the total n, the two
    occurrences k1 and k2, and their co-occurrence k11.  Insignificant pairs
    weigh exactly 0."""
    table = _table(n, k1, k2, k11)
    if measure is AssociationMeasure.LLR_THRESHOLDED:
        if k1 < LLR_MIN_SUPPORT or k2 < LLR_MIN_SUPPORT:
            return 0.0
        # Only positive association counts; a pair co-occurring less often
        # than independence predicts must not create an edge.
        if phi_coefficient(*table) <= 0:
            return 0.0
        return 1.0 if g_statistic(*table) > LLR_CRITICAL else 0.0
    if chi2_statistic(*table) > CHI2_CRITICAL:
        return max(phi_coefficient(*table), 0.0)
    return 0.0


def association_weight(counts: DecayedCounts, measure: AssociationMeasure | str,
                       e1: str, e2: str, t: float) -> float:
    """Edge weight for a pair at time t; insignificant pairs weigh exactly 0."""
    return table_weight(AssociationMeasure(measure), counts.total(t),
                        counts.occurrence(e1, t), counts.occurrence(e2, t),
                        counts.cooccurrence(e1, e2, t))


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
        if not 1 <= vid <= len(self._tokens):
            raise IngestError(f"no entity has id {vid}")
        return self._tokens[vid - 1]

    def __len__(self) -> int:
        return len(self._tokens)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self._tokens), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EntityDictionary":
        """Read a saved dictionary: a JSON list of distinct tokens, id i at i-1."""
        tokens = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise IngestError(f"{path}: an entity dictionary is a JSON list of strings")
        if len(set(tokens)) != len(tokens):
            raise IngestError(f"{path}: an entity is listed twice")
        d = cls()
        for token in tokens:
            d.id_for(token)
        return d


class DocumentIngestor:
    """Feeds documents through the counters and emits the resulting updates.

    After each document only the pairs incident to its entities are
    recomputed; an update is emitted when a recomputed weight moved by more
    than the comparison tolerance.  Under llr a post visits only the
    partners whose weight can move (see the module docstring).  Plain
    counters report the work done so far: pairs visited
    (``pairs_reweighed``), pairs whose contingency table was built, and
    updates emitted; ``counts.live_cells`` and ``hot_entities`` gauge the
    state held.
    """

    def __init__(self, measure: AssociationMeasure | str = AssociationMeasure.CHI2_CORRELATION,
                 mean_life: float = DEFAULT_MEAN_LIFE,
                 dictionary: Optional[EntityDictionary] = None):
        self.measure = AssociationMeasure(measure)
        self.counts = DecayedCounts(mean_life)
        self.dictionary = dictionary if dictionary is not None else EntityDictionary()
        self._weights: dict[str, dict[str, float]] = {}  # e -> {x: last nonzero weight}
        self._hot: set[str] = set()  # every entity whose decayed count may be >= 5
        self._seq = 0
        self.pairs_reweighed = 0
        self.pairs_tabled = 0
        self.updates_emitted = 0

    @property
    def hot_entities(self) -> int:
        """Entities at the llr support bar at their last post, not read below it since."""
        return len(self._hot)

    def process_document(self, t: float, entities: Iterable[str]) -> list[EdgeUpdate]:
        """Count a document, then re-weigh the pairs incident to its entities.

        Emits one update per pair whose weight moved by more than the
        tolerance, with consecutive sequence numbers.  A rejected document
        changes nothing.  A pair of two post entities is weighed from the
        smaller one only.

        Under llr a post entity e visits its weighted partners and, when its
        own support is at least 5, its hot partners, in sorted order.  A
        visited partner x weighs 0, with no ``exp``, when e's support is
        below the bar.  Otherwise x's count is decayed once and gated,
        retiring x from the hot set when below the bar, and only then is the
        co-occurrence decayed and the table built.  chi2 visits every
        partner.
        """
        counts = self.counts
        posted = set(entities)
        ents = sorted(posted)
        counts.observe(t, ents)  # first, so a rejected document registers nothing
        for e in ents:
            self.dictionary.id_for(e)  # ids follow first appearance, not first edge
        t = counts.clock
        n = counts.total(t)
        measure = self.measure
        gated = measure is AssociationMeasure.LLR_THRESHOLDED
        hot = self._hot
        if gated:
            for e in ents:  # just touched: the stored count is the count at t
                if counts.stored_occurrence(e) >= LLR_MIN_SUPPORT:
                    hot.add(e)
                else:
                    hot.discard(e)
        weights = self._weights
        updates: list[EdgeUpdate] = []
        reweighed = tabled = 0
        for e in ents:
            k_e = counts.occurrence(e, t)
            closed = gated and k_e < LLR_MIN_SUPPORT
            if not gated:
                visit = counts.partners(e)
            elif closed:
                visit = weights.get(e, ())
            else:
                visit = counts.partners(e) & hot  # iterates the smaller side
                visit.update(weights.get(e, ()))
            for x in sorted(visit):
                if x < e and x in posted:
                    continue  # weighed from x
                row = weights.get(e)
                old_w = 0.0 if row is None else row.get(x, 0.0)
                new_w = 0.0
                if not closed:
                    k_x = counts.occurrence(x, t)
                    if gated and k_x < LLR_MIN_SUPPORT:
                        hot.discard(x)  # below 5 until its next post
                        if old_w == 0.0:
                            continue  # weighed 0 and still does
                    else:
                        tabled += 1
                        k11 = counts.cooccurrence(e, x, t)
                        # k1 is the occurrence of the smaller entity: the
                        # table is not symmetric in floating point
                        new_w = (table_weight(measure, n, k_e, k_x, k11) if e < x
                                 else table_weight(measure, n, k_x, k_e, k11))
                reweighed += 1
                if abs(new_w - old_w) > EPS:
                    lo, hi = (e, x) if e < x else (x, e)
                    self._seq += 1
                    updates.append(EdgeUpdate(
                        self._seq,
                        self.dictionary.id_for(lo),
                        self.dictionary.id_for(hi),
                        new_w - old_w,
                    ))
                    if new_w == 0.0:
                        del weights[e][x]
                        del weights[x][e]
                    else:
                        weights.setdefault(e, {})[x] = new_w
                        weights.setdefault(x, {})[e] = new_w
        self.pairs_reweighed += reweighed
        self.pairs_tabled += tabled
        self.updates_emitted += len(updates)
        return updates


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


def numbered_documents(path) -> Iterator[tuple[int, float, list[str]]]:
    """(line number, timestamp, entities) for each document line of a file."""
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield (i, *parse_document_line(line, i))


def read_documents(path) -> Iterator[tuple[float, list[str]]]:
    for _lineno, t, entities in numbered_documents(path):
        yield t, entities

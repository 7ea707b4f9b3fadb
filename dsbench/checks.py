"""Reference checks for the benchmark's outputs.

Everything here is recomputed from the benchmark's own inputs with plain
Python; nothing is imported from ``densestream``.  Each check takes plain
data (tuples, dicts, lists) and returns a list of problems, empty when the
output agrees with the reference.

Densities are compared within ``TOL``.  A set whose reference density lies
within ``BAND`` of a threshold is left out of membership comparisons: the
engine sums deltas in update order and the reference sums final pair
weights, so the two may round to opposite sides of an exact tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

TOL = 1e-6
BAND = 1e-6
ZERO = 1e-9          # weights at or below this are absent (as in the graph)


@dataclass(frozen=True)
class Schedule:
    """Threshold schedule of the avgweight family, derived from its definition.

    S(n) = n(n-1)/2 and T_n = T + 2 * delta_it * ((n-2)/(n-1) - (m-2)/(m-1)),
    with delta_it the given fraction of its largest valid value
    (m-1) * T / (2 * (m-2)).
    """

    threshold: float
    n_max: int
    delta_it_fraction: float

    @property
    def delta_it(self) -> float:
        m = self.n_max
        return self.delta_it_fraction * (m - 1) * self.threshold / (2 * (m - 2))

    def size(self, n: int) -> float:
        return n * (n - 1) / 2.0

    def bar(self, n: int) -> float:
        m = self.n_max
        spacing = (n - 2) / (n - 1) - (m - 2) / (m - 1)
        return self.threshold + 2.0 * self.delta_it * spacing

    def depth(self, card: int, score: float) -> int:
        """How many zero-weight vertices the set can absorb and stay dense."""
        k = 0
        while card + k + 1 <= self.n_max and \
                score / self.size(card + k + 1) >= self.bar(card + k + 1) - ZERO:
            k += 1
        return k


def _key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def pair_table(updates) -> dict[tuple[int, int], float]:
    """Final weight of every pair: the sum of its deltas, absent when zero."""
    table: dict[tuple[int, int], float] = {}
    for a, b, delta in updates:
        k = _key(a, b)
        table[k] = table.get(k, 0.0) + delta
    return {k: w for k, w in table.items() if w > ZERO}


def set_score(table, vs) -> float:
    return sum(table.get(p, 0.0) for p in combinations(vs, 2))


# -- conservation and event replay -----------------------------------------------------

def check_conservation(updates, engine_weights) -> list[str]:
    """Every pair's engine weight equals the sum of its deltas in the input."""
    ref = pair_table(updates)
    problems = []
    for k in sorted(ref.keys() | engine_weights.keys()):
        r, e = ref.get(k, 0.0), engine_weights.get(k, 0.0)
        if abs(r - e) > TOL:
            problems.append(f"pair {k}: engine weight {e!r}, deltas sum to {r!r}")
    return problems


def check_event_replay(events, materialized_output) -> list[str]:
    """GAIN/LOSE events replayed from the empty set give the final output set."""
    current: set = set()
    problems = []
    for seq, kind, vs in events:
        if kind == "GAIN":
            if vs in current:
                problems.append(f"seq {seq}: GAIN of {vs} already reported")
            current.add(vs)
        elif kind == "LOSE":
            if vs not in current:
                problems.append(f"seq {seq}: LOSE of {vs} never gained")
            current.discard(vs)
        else:
            problems.append(f"seq {seq}: unknown event kind {kind!r}")
    final = set(materialized_output)
    problems += [f"replay holds {vs}, snapshot lacks it" for vs in sorted(current - final)]
    problems += [f"snapshot holds {vs}, replay lacks it" for vs in sorted(final - current)]
    return problems


# -- dense-set enumeration (gated streams) ------------------------------------------------

def enumerate_dense(table, sched: Schedule) -> dict[tuple[int, ...], float]:
    """Level-wise enumeration of dense sets, growing each set by its neighbors.

    Complete when no set can absorb a vertex it has no edge to (the
    generator's gate guarantees that): every dense (n+1)-set then holds a
    dense n-set joined to the remaining vertex by an edge.  Sets within
    ``BAND`` below a threshold are kept so that the comparison can skip them.
    """
    adj: dict[int, dict[int, float]] = {}
    for (a, b), w in table.items():
        adj.setdefault(a, {})[b] = w
        adj.setdefault(b, {})[a] = w
    level = {k: w for k, w in table.items()
             if w / sched.size(2) >= sched.bar(2) - BAND}
    dense = dict(level)
    for card in range(3, sched.n_max + 1):
        size, bar = sched.size(card), sched.bar(card) - BAND
        nxt: dict[tuple[int, ...], float] = {}
        for vs, score in level.items():
            cands = set()
            for v in vs:
                cands.update(adj[v])
            for y in cands.difference(vs):
                evs = tuple(sorted(vs + (y,)))
                if evs in nxt:
                    continue
                s = score + sum(adj[y].get(v, 0.0) for v in vs)
                if s / size >= bar:
                    nxt[evs] = s
        if not nxt:
            break
        dense.update(nxt)
        level = nxt
    return {vs: s / sched.size(len(vs)) for vs, s in dense.items()}


def _compare_view(name, ref, view, table, sched, bar_of) -> list[str]:
    problems = []
    for vs, d in ref.items():
        bar = bar_of(len(vs))
        if vs in view:
            if abs(view[vs] - d) > TOL:
                problems.append(f"{name} {vs}: density {view[vs]!r}, reference {d!r}")
        elif d >= bar + BAND:
            problems.append(f"{name} {vs}: missing (reference density {d!r})")
    for vs in view.keys() - ref.keys():
        d = set_score(table, vs) / sched.size(len(vs))
        if d < bar_of(len(vs)) - BAND:
            problems.append(f"{name} {vs}: reported but reference density is {d!r}")
    return problems


def check_enumeration(table, sched: Schedule, dense_view, output_view) -> list[str]:
    """Dense and output-dense views equal a level-wise enumeration."""
    ref = enumerate_dense(table, sched)
    ref_out = {vs: d for vs, d in ref.items() if d >= sched.threshold - BAND}
    return (_compare_view("dense", ref, dense_view, table, sched, sched.bar)
            + _compare_view("output", ref_out, output_view, table, sched,
                            lambda n: sched.threshold))


# -- saturated streams: every reported set, every chain depth --------------------------------

def check_reported_dense(table, sched: Schedule, dense_view, output_view) -> list[str]:
    """Every reported set is dense (output-dense) when recomputed from the table."""
    problems = []
    for name, view, bar_of in (("dense", dense_view, sched.bar),
                               ("output", output_view, lambda n: sched.threshold)):
        for vs, d in view.items():
            ref = set_score(table, vs) / sched.size(len(vs))
            if abs(ref - d) > TOL:
                problems.append(f"{name} {vs}: density {d!r}, reference {ref!r}")
            elif ref < bar_of(len(vs)) - BAND:
                problems.append(f"{name} {vs}: reference density {ref!r} below its bar")
    return problems


def check_signature(table, sched: Schedule, signature) -> list[str]:
    """Materialized scores and star-chain depths agree with the reference score."""
    problems = []
    for vs, (score, depth) in signature.items():
        ref = set_score(table, vs)
        if abs(ref - score) > TOL:
            problems.append(f"set {vs}: score {score!r}, reference {ref!r}")
            continue
        card = len(vs)
        near = any(abs(ref / sched.size(n) - sched.bar(n)) <= BAND
                   for n in range(card + 1, sched.n_max + 1))
        want = sched.depth(card, ref)
        if depth != want and not near:
            problems.append(f"set {vs}: chain depth {depth}, reference {want}")
    return problems


# -- queries -------------------------------------------------------------------------------

def check_queries(updates, queries, sched: Schedule, penalty: float) -> list[str]:
    """Each ranked story clears T, and adjusted scores follow the greedy order.

    ``queries`` holds (updates applied before the query, ranked picks) with
    picks as (vertices, density, adjusted).  Densities are recomputed from
    the pair table at the query's position; adjusted scores from density
    and the coverage of earlier picks.  The greedy choice makes adjusted
    scores non-increasing, ties going to the smaller vertex tuple.
    """
    problems = []
    table: dict[tuple[int, int], float] = {}
    done = 0
    for qi, (position, picks) in enumerate(sorted(queries, key=lambda q: q[0])):
        for a, b, delta in updates[done:position]:
            k = _key(a, b)
            table[k] = table.get(k, 0.0) + delta
        done = position
        covered: set = set()
        prev = None
        for rank, (vs, d, adj) in enumerate(picks, 1):
            where = f"query {qi} rank {rank} {vs}"
            ref = set_score(table, vs) / sched.size(len(vs))
            if abs(ref - d) > TOL:
                problems.append(f"{where}: density {d!r}, reference {ref!r}")
            if ref < sched.threshold - BAND:
                problems.append(f"{where}: reference density {ref!r} below T")
            overlap = sum(1 for v in vs if v in covered)
            want = d * (1.0 - penalty * overlap / len(vs))
            if abs(want - adj) > TOL:
                problems.append(f"{where}: adjusted {adj!r}, recomputed {want!r}")
            if prev is not None:
                p_vs, p_adj = prev
                if adj > p_adj + TOL or (adj == p_adj and vs < p_vs):
                    problems.append(f"{where}: ranked after {p_vs} out of greedy order")
            prev = (vs, adj)
            covered.update(vs)
    return problems


# -- documents: the llr gate from scratch ------------------------------------------------------

LLR_SUPPORT = 5.0
LLR_CRITICAL = 6.635   # chi-square, one degree of freedom, p = 0.01


def _g_statistic(cells) -> float:
    n11, n10, n01, n00 = cells
    n = n11 + n10 + n01 + n00
    rows, cols = (n11 + n10, n01 + n00), (n11 + n01, n10 + n00)
    if n <= 0 or min(rows + cols) <= 0:
        return 0.0
    g = 0.0
    for obs, r, c in ((n11, 0, 0), (n10, 0, 1), (n01, 1, 0), (n00, 1, 1)):
        if obs > 0:
            g += obs * math.log(obs * n / (rows[r] * cols[c]))
    return 2.0 * g


def llr_reference(docs, mean_life: float):
    """Final llr weight of every pair that ever co-occurred, with a flag for
    pairs too close to a cut to compare.

    A document re-weighs every pair incident to its entities, so a pair's
    final weight is computed at the last document naming either entity.
    Decayed counts there are summed from scratch over the documents up to
    that one: each contributes exp(-(t_last - t_doc) / mean_life).
    """
    if not docs:
        return {}
    t0 = docs[0][0]
    prefix = []          # running sum of exp((t - t0) / mean_life) over documents
    occ: dict[str, float] = {}
    co: dict[tuple[str, str], float] = {}
    last: dict[str, int] = {}
    acc = 0.0
    for i, (t, ents) in enumerate(docs):
        x = math.exp((t - t0) / mean_life)
        acc += x
        prefix.append(acc)
        uniq = sorted(set(ents))
        for e in uniq:
            occ[e] = occ.get(e, 0.0) + x
            last[e] = i
        for p in combinations(uniq, 2):
            co[p] = co.get(p, 0.0) + x
    out = {}
    for (e1, e2), s12 in co.items():
        i = max(last[e1], last[e2])
        scale = math.exp(-(docs[i][0] - t0) / mean_life)
        n, k1, k2, k11 = prefix[i] * scale, occ[e1] * scale, occ[e2] * scale, s12 * scale
        cells = (k11, max(k1 - k11, 0.0), max(k2 - k11, 0.0), max(n - k1 - k2 + k11, 0.0))
        g = _g_statistic(cells)
        positive = cells[0] * cells[3] - cells[1] * cells[2]
        near = (abs(k1 - LLR_SUPPORT) <= BAND or abs(k2 - LLR_SUPPORT) <= BAND
                or abs(g - LLR_CRITICAL) <= BAND * max(1.0, g)
                or abs(positive) <= BAND)
        ok = k1 >= LLR_SUPPORT and k2 >= LLR_SUPPORT and positive > 0 and g > LLR_CRITICAL
        out[(e1, e2)] = (1.0 if ok else 0.0, near)
    return out


def check_llr_weights(docs, engine_weights, mean_life: float) -> list[str]:
    """Final engine weights (keyed by sorted entity pairs) equal the llr gate."""
    ref = llr_reference(docs, mean_life)
    problems = []
    for pair in sorted(ref.keys() | engine_weights.keys()):
        want, near = ref.get(pair, (0.0, False))
        got = engine_weights.get(pair, 0.0)
        if abs(got - want) > TOL and not near:
            problems.append(f"pair {pair}: engine weight {got!r}, llr gate gives {want!r}")
    return problems

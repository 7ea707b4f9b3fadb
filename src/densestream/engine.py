"""Incremental maintenance of every dense vertex set under weight updates.

One update is processed at a time (strict discrete-time semantics).  Scores
move by the weight change the graph stored: a weight the graph clamps to 0
moves them by minus the weight it had, so an increase too small to store is
a no-op.  For a weight decrease, every indexed set containing both
endpoints is re-scored and evicted if it fell below its cardinality
threshold.  For an increase, the engine re-scores those sets and then
searches outward for sets that newly crossed their threshold: the updated
pair itself, indexed sets holding one endpoint augmented with the other
(the cheap step), and neighbor-by-neighbor growth around sets holding
both, bounded by ceil(delta / delta_it) rounds.  Every probed set holds both
endpoints, so it is indexed exactly when it was indexed before the update
(``_known``: the walk over the index found it) or the update admitted it
(``_round``); a probe reads these two tables and never looks the set up in
the index.  Re-exploration is suppressed by the round at which each set
admitted during the update was found, and a set indexed before the update
is never probed: the update re-scores it and grows from it, and it has no
round in this update, so a probe could only count itself.  This rests on
the index, not on pre-update scores, so it is exact with star cores too.
Growth builds no merged neighborhood: it walks the adjacent vertices and
sums a coordinate only for an extension it probes, in the order
``merged_neighborhood`` sums it.

A growth loop over P finds nothing new once P+y is indexed for every vertex
y adjacent to P; scores play no part.  A loop that probes nothing stores on
P's node the sum of its members' link counters, which an update bumps at both
endpoints when it moves their weight up from 0.  Two events break that
certificate: a member gains a neighbor, raising the sum, or some P+y is
removed, which clears the sum stored on each P+y-v.  Removal happens only in
``_negative`` (growth and the explicit expansion only insert), so while the
sum holds the loop is skipped: it would probe, and count, nothing.

Sets dense enough to absorb any further vertex for free are star cores
with a star depth k: they stand for every extension by up to k vertices
contributing no weight.  The depth is a pure function of (score,
cardinality), so it is refreshed wherever a score changes; the star scan at
the end of a positive update materializes implied sets whose membership the
update changed (a formerly disconnected vertex became a neighbor, or a
non-adjacent pair gained an edge) and seeds growth around cores whose
supersets cannot be reached through materialized entries alone.  The scan
order is fixed because it decides which scan admits a set first, and so
the event order and the floating-point sum that becomes the set's score:
first the cores holding an endpoint, each once the walk over the index has
left its subtree, then the others, most recently deepened first.

With ``star_mode=False`` the implied sets are expanded into explicit index
entries after every update instead, also after one that only grew the
universe (the representation the star encoding replaces); views are
identical, the cost is not.

Events track the *materialized* answer set: a GAIN or LOSE is emitted
exactly when a stored set enters or leaves the output-dense set.  Supersets
represented only by a star core are reported through the expanded
snapshot, not the event stream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

from .density import DensityConfig
from .graph import EdgeUpdate, WeightedGraph
from .index import SubgraphIndex, _Node

GAIN = "GAIN"
LOSE = "LOSE"


@dataclass(frozen=True)
class DensityEvent:
    seq: int
    kind: str
    vertices: tuple[int, ...]
    density: float


@dataclass
class EngineStats:
    updates: int = 0
    events: int = 0
    probes: int = 0
    rejected_probes: int = 0
    explore_calls: int = 0
    cheap_explores: int = 0
    star_scans: int = 0
    peak_entries: int = 0
    skipped_loops: int = 0


def _with(vs: tuple[int, ...], y: int) -> tuple[int, ...]:
    i = bisect_left(vs, y)
    return vs[:i] + (y,) + vs[i:]


class DenseSubgraphEngine:
    """Single-writer engine owning the graph and the dense-set index."""

    def __init__(self, cfg: DensityConfig, graph: Optional[WeightedGraph] = None,
                 star_mode: bool = True):
        self.cfg = cfg
        # DensityConfig's tables, read here without its cardinality checks
        self._sizes, self._bars, self._out_bar = cfg._sizes, cfg._bars, cfg._out_bar
        self.graph = graph if graph is not None else WeightedGraph()
        self.index = SubgraphIndex(validator=cfg.is_dense)
        self.star_mode = star_mode
        self.stats = EngineStats()
        # sets admitted this update -> (round found, node)
        self._round: dict[tuple[int, ...], tuple[int, _Node]] = {}
        self._links: dict[int, int] = {}  # vertex -> times it gained a neighbor
        self._events: list[DensityEvent] = []
        self._dirty: set = set()  # star cores pending expansion (explicit mode)
        # per-update context
        self._lo = self._hi = 0
        self._delta = 0.0
        self._w_after = 0.0
        self._budget = 0
        self._seq = 0
        self._known: set[tuple[int, ...]] = set()

    # -- public surface ----------------------------------------------------------

    def process(self, update: EdgeUpdate) -> list[DensityEvent]:
        return self.process_update(update.a, update.b, update.delta, update.seq)

    def process_update(self, a: int, b: int, delta: float, seq: int = 0) -> list[DensityEvent]:
        """Apply one weight update and return the emitted events, in order.

        An update rejected for its input raises before any state changes.
        """
        if delta > 0:  # first: an overflowing budget must reject the update unapplied
            self._budget = self.cfg.iteration_budget(delta)
        prev_universe = self.graph.num_vertices
        w_before, w_after = self.graph.apply_update(a, b, delta)
        if w_after == 0.0:
            delta = -w_before  # the graph clamped the weight: scores follow it
        elif w_before == 0.0:  # a and b become neighbors: certificates lapse
            links = self._links
            links[a], links[b] = links.get(a, 0) + 1, links.get(b, 0) + 1
        self.stats.updates += 1
        self._events = []
        self._seq = seq
        if delta != 0.0:
            self._round = {}  # only this update's sets are read; this frees the rest
            self._lo, self._hi = (a, b) if a < b else (b, a)
            self._delta = delta
            self._w_after = w_after
            if delta < 0:
                self._negative()
            else:
                self._positive()
        if not self.star_mode:
            if self.graph.num_vertices > prev_universe:
                self._dirty.update(self.index.star_parents())
            self._expand_implied()
        if len(self.index) > self.stats.peak_entries:
            self.stats.peak_entries = len(self.index)
        events = self._events
        self._events = []
        return events

    def snapshot_views(self, expand: bool = True) -> tuple[
            dict[tuple[int, ...], float], dict[tuple[int, ...], float]]:
        """(dense view, output-dense view) between updates.

        The dense view lists the indexed sets, then, with ``expand``, the
        star-implied supersets no entry stores; the output-dense view is the
        dense view's sets that clear the output bar, in the same order.  The
        expanded views are the ones compared against the oracle.
        """
        sizes = self._sizes
        dense = {vs: node.score / sizes[len(vs)] for vs, node in self.index.items()}
        if expand and self.star_mode:
            for core in self.index.star_parents():
                score = core.score
                for evs in self._implied_sets(core.vs, core.star_depth):
                    if evs not in dense:
                        dense[evs] = score / sizes[len(evs)]
        bar = self._out_bar
        return dense, {vs: d for vs, d in dense.items() if d >= bar}

    def snapshot_output_dense(self, expand: bool = True) -> dict[tuple[int, ...], float]:
        return self.snapshot_views(expand)[1]

    def has_too_dense(self) -> bool:
        return next(self.index.star_parents(), None) is not None

    def state_signature(self) -> dict[tuple[int, ...], tuple[float, int]]:
        """Materialized sets with (score, star depth); for state comparisons."""
        return {vs: (node.score, node.star_depth)
                for vs, node in self.index.items()}

    # -- implied-set enumeration ------------------------------------------------------

    def _free_candidates(self, vs: tuple[int, ...]) -> list[int]:
        n = self.graph.num_vertices
        taken = set(vs).union(*map(self.graph.neighbors, vs))
        if len(taken) == n:
            return []
        return [y for y in range(1, n + 1) if y not in taken]

    def _implied_sets(self, vs: tuple[int, ...], depth: int) -> list[tuple[int, ...]]:
        """Extensions of ``vs`` by up to ``depth`` pairwise-disconnected free
        vertices, sorted."""
        cand = self._free_candidates(vs)
        if not cand:
            return []
        if depth == 1:
            return [_with(vs, y) for y in cand]
        nbrs = self.graph.neighbors
        out: list[tuple[int, ...]] = []
        chosen: list[int] = []

        def rec(start: int) -> None:
            if chosen:
                out.append(tuple(sorted(vs + tuple(chosen))))
            if len(chosen) == depth:
                return
            for i in range(start, len(cand)):
                y = cand[i]
                row = nbrs(y)
                if not any(z in row for z in chosen):
                    chosen.append(y)
                    rec(i + 1)
                    chosen.pop()

        rec(0)
        return out

    # -- event plumbing -----------------------------------------------------------------

    def _emit(self, kind: str, vs: tuple[int, ...], density: float) -> None:
        self._events.append(DensityEvent(self._seq, kind, vs, density))
        self.stats.events += 1

    # -- negative updates -----------------------------------------------------------------

    def _negative(self) -> None:
        a, b = self._lo, self._hi
        sizes, bars, out_bar = self._sizes, self._bars, self._out_bar
        victims = list(self.index.iterate_containing_both(a, b))
        for vs, node in victims:
            card = len(vs)
            s_new = node.score + self._delta
            if s_new / sizes[card] >= bars[card]:
                self._rescore(node, vs)
                continue
            if node.score / sizes[card] >= out_bar:
                self._emit(LOSE, vs, s_new / sizes[card])
            self.index.remove(node)
            for k in range(card):  # vs minus one vertex may hold a certificate
                if (sub := self.index.find(vs[:k] + vs[k + 1:])) is not None:
                    sub.certified = None

    # -- positive updates ------------------------------------------------------------------

    def _positive(self) -> None:
        a, b = self._lo, self._hi
        work: list[tuple[_Node, tuple[int, ...], Optional[int]]] = []
        cores: list[_Node] = []
        open_: list[_Node] = []  # cores whose subtree the walk is still in
        self._known = known = set()  # indexed before the update, holding both endpoints
        for vs, node in self.index.iterate_containing(a, b):
            while open_ and vs[:len(open_[-1].vs)] != open_[-1].vs:
                cores.append(open_.pop())
            if node.star_depth:
                open_.append(node)
            ina, inb = a in vs, b in vs
            if ina and inb:
                work.append((node, vs, None))
                known.add(vs)
            elif len(vs) < self.cfg.n_max:  # one endpoint, and room for the other
                work.append((node, vs, b if ina else a))
        # Scan order (module docstring), fixed before re-scoring can move a core.
        cores += reversed(open_)
        cores += [c for c in self.index.star_parents() if a not in c.vs and b not in c.vs]

        # Re-score sets containing both endpoints; report threshold crossings.
        for node, vs, other in work:
            if other is None:
                self._rescore(node, vs)

        # The updated pair itself may now be worth indexing.
        self._probe((a, b), self._w_after, 0)

        # Outward search, in traversal order.
        for node, vs, other in work:
            if other is None:
                self._explore(node, 1)
            else:
                self._cheap_explore(vs, node.score, other)

        # Maintenance of star-implied sets whose membership this update changed.
        for node in cores:
            self._star_scan(node)

    def _explore(self, node: _Node, i: int) -> None:
        """Grow around an indexed set containing both endpoints (round ``i``).

        Extensions in ``_known`` (indexed before the update) are not probed;
        only a probed extension gets its coordinate of the merged neighborhood.
        """
        vs, score = node.vs, node.score
        card = len(vs)
        if card >= self.cfg.n_max:
            return
        size, bar = self._sizes[card + 1], self._bars[card + 1]
        if (score - self._delta) / size >= bar:
            return  # could absorb any vertex before the update: supersets known
        if i > self._budget:
            return
        self.stats.explore_calls += 1
        stamp = sum([self._links.get(v, 0) for v in vs])
        if node.certified == stamp:
            self.stats.skipped_loops += 1
        else:
            known = self._known
            fresh = [(evs, y) for y in sorted(self.graph.adjacent(vs))
                     if (evs := _with(vs, y)) not in known]
            if not fresh:
                node.certified = stamp
            members = set(vs)  # the order merged_neighborhood sums in
            for evs, y in fresh:
                self._probe(evs, score + self._coordinate(members, y), i)
        if score / size >= bar and card + 2 <= self.cfg.n_max and i + 1 <= self._budget:
            # Newly able to absorb any vertex: extensions by a disconnected
            # vertex are covered by the star core, but pairs joined by an
            # edge not touching the set contribute weight and must be seeded.
            self._probe_edge_pairs(vs, score, i + 1)

    def _probe_edge_pairs(self, vs: tuple[int, ...], score: float, i: int) -> None:
        """Probe ``vs`` plus both endpoints of every edge disjoint from it.

        Edges are visited in sorted order so that discovery (and event)
        order is deterministic.
        """
        gamma = self.graph.merged_neighborhood(vs)
        members = set(vs)
        for y, z, w in sorted(self.graph.edges()):
            if y in members or z in members:
                continue
            s = score + gamma.get(y, 0.0) + gamma.get(z, 0.0) + w
            self._probe(_with(_with(vs, y), z), s, i)

    def _coordinate(self, vs: Iterable[int], y: int) -> float:
        """Total weight between a vertex set and one outside vertex, summed from
        0.0 in ``vs``'s order: over ``set(vs)``, ``merged_neighborhood(vs)[y]``."""
        row = self.graph.neighbors(y)
        total = 0.0
        for v in vs:
            total += row.get(v, 0.0)
        return total

    def _cheap_explore(self, vs: tuple[int, ...], score: float, other: int) -> None:
        """Augment a one-endpoint set with the other, unless ``_known`` holds it."""
        card = len(vs)
        if score / self._sizes[card + 1] >= self._bars[card + 1]:
            return  # was too dense before: its supersets were already known
        self.stats.cheap_explores += 1
        evs = _with(vs, other)
        if evs not in self._known:
            self._probe(evs, score + self._coordinate(vs, other), 1)

    def _star_scan(self, node: _Node) -> None:
        """Reconcile one star core with the update.

        A core holding one endpoint may have just gained the other as a
        neighbor, pulling the implied extension out of the core's coverage:
        it is materialized (and grown from).  A core holding neither endpoint
        may imply both as free extensions; the pair now joined by an edge is
        no longer free together, so the combined set is probed.  For a core
        holding both, supersets reached by adding an edge disjoint from the
        core are probed, which only matters while the star depth is exactly
        one (deeper coverage means those supersets were dense already).
        """
        vs, score = node.vs, node.score
        card, n_max = len(vs), self.cfg.n_max
        self.stats.star_scans += 1
        a, b = self._lo, self._hi
        ina, inb = a in vs, b in vs
        if ina and inb:
            if card + 2 > n_max:
                return
            if self.cfg.free_extension_depth(card, score - self._delta) != 1:
                return
            self._probe_edge_pairs(vs, score, 1)
        elif ina or inb:
            other = b if ina else a
            if self._coordinate(vs, other) == self._delta:
                # the update created other's first link to this core
                self._probe(_with(vs, other), score + self._delta, 1)
        else:
            if card + 2 > n_max:
                return
            if self._coordinate(vs, a) == 0.0 and self._coordinate(vs, b) == 0.0:
                s = score + self.graph.weight(a, b)
                self._probe(_with(_with(vs, a), b), s, 1)

    # -- candidate admission -----------------------------------------------------------------

    def _probe(self, vs: tuple[int, ...], score: float, i: int) -> None:
        """Evaluate one candidate set, holding both endpoints, found at round ``i``."""
        if vs in self._known:
            return  # indexed before the update: it has no round to lower
        self.stats.probes += 1
        admitted = self._round.get(vs)
        if admitted is not None:
            t, node = admitted
            if t > i:
                # reachable in fewer rounds than first thought: explore deeper
                self._round[vs] = (i, node)
                self._explore(node, i + 1)
            return
        card = len(vs)
        if score / self._sizes[card] >= self._bars[card]:
            self._admit(vs, score, i)
        else:
            self.stats.rejected_probes += 1

    def _admit(self, vs: tuple[int, ...], score: float, i: int) -> None:
        card = len(vs)
        size = self._sizes[card]
        # Dense before the update but never materialized (it was covered by a
        # star core): treat like any other stored stable set from here on.
        stable = (score - self._delta) / size >= self._bars[card]
        node = self.index.insert(vs, score)
        self._round[vs] = (0 if stable else i, node)
        if score / size >= self._out_bar:
            self._emit(GAIN, vs, score / size)
        self._maintain_closure(node, vs)
        self._explore(node, 1 if stable else i + 1)

    # -- score and star-depth upkeep --------------------------------------------------------

    def _rescore(self, node: _Node, vs: tuple[int, ...]) -> None:
        """Shift a kept set's score by the update, report a crossing of the
        output bar, and refresh its star depth."""
        size = self._sizes[len(vs)]
        was_out = node.score / size >= self._out_bar
        node.score += self._delta
        if (node.score / size >= self._out_bar) != was_out:
            self._emit(LOSE if was_out else GAIN, vs, node.score / size)
        self._maintain_closure(node, vs)

    def _maintain_closure(self, node: _Node, vs: tuple[int, ...]) -> None:
        card = len(vs)
        if not node.star_depth and (card == self.cfg.n_max or node.score
                                    / self._sizes[card + 1] < self._bars[card + 1]):
            return  # depth 0 before and after, by free_extension_depth's first test
        depth = self.cfg.free_extension_depth(card, node.score)
        if depth != node.star_depth:
            grew = depth > node.star_depth
            self.index.set_star_depth(node, depth)
            if grew and not self.star_mode:
                self._dirty.add(node)

    def _expand_implied(self) -> None:
        """Explicit mode: materialize every star-implied set as an entry."""
        while self._dirty:
            batch = sorted(self._dirty, key=attrgetter("vs"))
            self._dirty.clear()
            for node in batch:
                score = node.score
                for evs in self._implied_sets(node.vs, node.star_depth):
                    if self.index.entry(evs) is not None:
                        continue
                    newn = self.index.insert(evs, score)
                    d = score / self._sizes[len(evs)]
                    if d >= self._out_bar:
                        self._emit(GAIN, evs, d)
                    self._maintain_closure(newn, evs)

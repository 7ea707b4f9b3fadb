"""Incremental maintenance of every dense vertex set under weight updates.

One update is processed at a time (strict discrete-time semantics).  For a
weight decrease, every indexed set containing both endpoints is re-scored
and evicted if it fell below its cardinality threshold.  For an increase,
the engine re-scores those sets and then searches outward for sets that
newly crossed their threshold: the updated pair itself, indexed sets holding
one endpoint augmented with the other (the cheap step), and
neighbor-by-neighbor growth around sets holding both, bounded by
ceil(delta / delta_it) rounds.  Re-exploration is suppressed with per-update
epoch and iteration annotations on the index entries.

Sets dense enough to absorb any further vertex for free carry a star chain
whose k-th node stands for every extension by k vertices contributing no
weight.  Chain length is a pure function of (score, cardinality), so chains
are refreshed wherever a score changes; the star scan at the end of a
positive update materializes implied sets whose membership the update
changed (a formerly disconnected vertex became a neighbor, or a
non-adjacent pair gained an edge) and seeds growth around cores whose
supersets cannot be reached through materialized entries alone.

With ``star_mode=False`` the chains are expanded into explicit index entries
after every update instead (the representation the star encoding replaces);
views are identical, the cost is not.

Events track the *materialized* answer set: a GAIN or LOSE is emitted
exactly when a stored set enters or leaves the output-dense set.  Supersets
represented only by a star chain are reported through the expanded snapshot,
not the event stream.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .density import EPS, DensityConfig
from .graph import EdgeUpdate, WeightedGraph
from .index import STAR, SubgraphIndex, _Node

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


def _with(vs: tuple[int, ...], y: int) -> tuple[int, ...]:
    i = bisect_left(vs, y)
    return vs[:i] + (y,) + vs[i:]


class DenseSubgraphEngine:
    """Single-writer engine owning the graph and the dense-set index."""

    def __init__(self, cfg: DensityConfig, graph: Optional[WeightedGraph] = None,
                 star_mode: bool = True,
                 event_sink: Optional[Callable[[DensityEvent], None]] = None,
                 record_probes: bool = False,
                 iteration_cap: Optional[int] = None):
        self.cfg = cfg
        self.graph = graph if graph is not None else WeightedGraph()
        self.index = SubgraphIndex(validator=cfg.is_dense)
        self.star_mode = star_mode
        self.event_sink = event_sink
        self.record_probes = record_probes
        self.probe_log: list[tuple[tuple[int, ...], float, bool]] = []
        self.iteration_cap = iteration_cap  # overrides the derived round budget
        self.stats = EngineStats()
        self._epoch = 0
        self._events: list[DensityEvent] = []
        self._dirty: set = set()  # chain parents pending expansion (explicit mode)
        # per-update context
        self._lo = self._hi = 0
        self._delta = 0.0
        self._w_after = 0.0
        self._budget = 0
        self._seq = 0

    # -- public surface ----------------------------------------------------------

    def process(self, update: EdgeUpdate) -> list[DensityEvent]:
        return self.process_update(update.a, update.b, update.delta, update.seq)

    def process_update(self, a: int, b: int, delta: float, seq: int = 0) -> list[DensityEvent]:
        """Apply one weight update and return the emitted events, in order.

        An update rejected for its input raises before any state changes.
        """
        if delta > 0:  # first: an overflowing budget must reject the update unapplied
            self._budget = (self.iteration_cap if self.iteration_cap is not None
                            else self.cfg.iteration_budget(delta))
        prev_universe = self.graph.num_vertices
        _, w_after = self.graph.apply_update(a, b, delta)
        self.stats.updates += 1
        self._events = []
        if delta != 0.0:
            self._epoch += 1
            self._seq = seq
            self._lo, self._hi = (a, b) if a < b else (b, a)
            self._delta = delta
            self._w_after = w_after
            if delta < 0:
                self._negative()
            else:
                self._positive(prev_universe)
            if not self.star_mode:
                self._expand_chains()
        if len(self.index) > self.stats.peak_entries:
            self.stats.peak_entries = len(self.index)
        events = self._events
        self._events = []
        if self.event_sink is not None:
            for ev in events:
                self.event_sink(ev)
        return events

    def snapshot_views(self, expand: bool = True) -> tuple[
            dict[tuple[int, ...], float], dict[tuple[int, ...], float]]:
        """(dense view, output-dense view) between updates, in one pass.

        With ``expand`` the star-implied supersets are enumerated as well;
        the expanded views are the ones compared against the oracle.
        """
        cfg = self.cfg
        sizes = cfg._sizes
        bar = cfg.threshold - EPS
        dense: dict[tuple[int, ...], float] = {}
        output: dict[tuple[int, ...], float] = {}
        cores: dict[int, tuple[int, ...]] = {}  # id(chain parent) -> its set
        for vs, node in self.index.items():
            m = node.meta
            d = m.score / sizes[m.card]
            dense[vs] = d
            if d >= bar:
                output[vs] = d
            if m.star_depth:
                cores[id(node)] = vs
        if expand and self.star_mode:
            for parent, depth in self.index.star_parents():
                m = parent.meta
                for evs in self._implied_sets(cores[id(parent)], depth):
                    if evs not in dense:
                        d = m.score / sizes[len(evs)]
                        dense[evs] = d
                        if d >= bar:
                            output[evs] = d
        return dense, output

    def snapshot_dense(self, expand: bool = True) -> dict[tuple[int, ...], float]:
        return self.snapshot_views(expand)[0]

    def snapshot_output_dense(self, expand: bool = True) -> dict[tuple[int, ...], float]:
        return self.snapshot_views(expand)[1]

    def expand_implicit(self, star_node: _Node) -> list[tuple[int, ...]]:
        """The vertex sets one star-chain node stands for, explicit ones excluded."""
        depth = 0
        p = star_node
        while p.label is STAR:
            depth += 1
            p = p.parent
        if depth == 0:
            return []
        vs = self.index.vertices_of(star_node)
        out = []
        for evs in self._implied_sets(vs, depth, exact_depth=depth):
            node = self.index.find(evs)
            if node is None or node.meta is None:
                out.append(evs)
        return out

    def has_too_dense(self) -> bool:
        return next(self.index.star_parents(), None) is not None

    def state_signature(self) -> dict[tuple[int, ...], tuple[float, int]]:
        """Materialized sets with (score, chain depth); for state comparisons."""
        return {vs: (node.meta.score, node.meta.star_depth)
                for vs, node in self.index.items()}

    # -- implied-set enumeration ------------------------------------------------------

    def _free_candidates(self, vs: tuple[int, ...]) -> list[int]:
        n = self.graph.num_vertices
        taken = set(vs).union(*map(self.graph.neighbors, vs))
        if len(taken) == n:
            return []
        return [y for y in range(1, n + 1) if y not in taken]

    def _implied_sets(self, vs: tuple[int, ...], depth: int,
                      exact_depth: Optional[int] = None) -> list[tuple[int, ...]]:
        """Extensions of ``vs`` by up to ``depth`` pairwise-disconnected free
        vertices (exactly ``exact_depth`` of them when given), sorted."""
        cand = self._free_candidates(vs)
        if not cand:
            return []
        if depth == 1 and exact_depth in (None, 1):
            return [_with(vs, y) for y in cand]
        nbrs = self.graph.neighbors
        out: list[tuple[int, ...]] = []
        chosen: list[int] = []

        def rec(start: int) -> None:
            if chosen and (exact_depth is None or len(chosen) == exact_depth):
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
        cfg = self.cfg
        victims = list(self.index.iterate_containing_both(a, b))
        for vs, node in victims:
            m = node.meta
            s_new = m.score + self._delta
            was_out = cfg.is_output_dense(m.card, m.score)
            if not cfg.is_dense(m.card, s_new):
                if was_out:
                    self._emit(LOSE, vs, cfg.density(m.card, s_new))
                self._dirty.discard(node)
                self.index.remove(node)
            else:
                if was_out and not cfg.is_output_dense(m.card, s_new):
                    self._emit(LOSE, vs, cfg.density(m.card, s_new))
                m.score = s_new
                self._maintain_closure(node, vs)

    # -- positive updates ------------------------------------------------------------------

    def _positive(self, prev_universe: int) -> None:
        a, b = self._lo, self._hi
        cfg = self.cfg
        idx = self.index
        work: list[tuple[_Node, tuple[int, ...], Optional[int]]] = []
        cores: list[tuple[_Node, tuple[int, ...]]] = []
        seen_cores = set()
        for vs, node in list(idx.iterate_containing(a, b)):
            if node.label is STAR:
                parent = node.parent
                while parent.label is STAR:
                    parent = parent.parent
                if id(parent) not in seen_cores:
                    seen_cores.add(id(parent))
                    cores.append((parent, vs))
                continue
            if node.meta is None:
                continue
            ina, inb = a in vs, b in vs
            if ina and inb:
                work.append((node, vs, None))
            elif ina or inb:
                work.append((node, vs, b if ina else a))

        # Re-score sets containing both endpoints; report threshold crossings.
        for node, vs, other in work:
            if other is None:
                m = node.meta
                was_out = cfg.is_output_dense(m.card, m.score)
                m.score += self._delta
                if not was_out and cfg.is_output_dense(m.card, m.score):
                    self._emit(GAIN, vs, cfg.density(m.card, m.score))
                self._maintain_closure(node, vs)

        # The updated pair itself may now be worth indexing.
        pair = (a, b)
        pnode = idx.find(pair)
        if pnode is None or pnode.meta is None:
            self._probe(pair, self._w_after, 0)

        # Outward search, in traversal order.
        for node, vs, other in work:
            if other is None:
                self._explore(node, vs, 1)
            else:
                self._cheap_explore(node, vs, other)

        # Maintenance of star-implied sets whose membership this update changed.
        for node, vs in cores:
            self._star_scan(node, vs)

        if not self.star_mode and self.graph.num_vertices > prev_universe:
            for parent, _depth in idx.star_parents():
                self._dirty.add(parent)

    def _explore(self, node: _Node, vs: tuple[int, ...], i: int) -> None:
        """Grow around a set containing both endpoints (round ``i``)."""
        cfg = self.cfg
        m = node.meta
        card = m.card
        if card >= cfg.n_max:
            return
        if cfg.is_dense(card + 1, m.score - self._delta):
            return  # could absorb any vertex before the update: supersets known
        if i > self._budget:
            return
        self.stats.explore_calls += 1
        stats = self.stats
        score = m.score
        idx = self.index
        epoch = self._epoch
        size_next = cfg._sizes[card + 1]
        bar_next = cfg._thresholds[card + 1] - EPS
        log = self.probe_log if self.record_probes else None
        gamma = self.graph.merged_neighborhood(vs)
        for y in sorted(gamma):
            s = score + gamma[y]
            target = idx.extend_lookup(node, y)
            stats.probes += 1
            if target is None or target.meta is None:
                if s / size_next >= bar_next:
                    evs = _with(vs, y)
                    if log is not None:
                        log.append((evs, s, True))
                    self._admit(evs, s, i)
                else:
                    stats.rejected_probes += 1
                    if log is not None:
                        log.append((_with(vs, y), s, False))
            else:
                t = target.meta.iteration_tag(epoch)
                if t is not None and t > i:
                    target.meta.tag = i
                    target.meta.tag_epoch = epoch
                    self._explore(target, _with(vs, y), i + 1)
        if (cfg.is_dense(card + 1, score) and card + 2 <= cfg.n_max
                and i + 1 <= self._budget):
            # Newly able to absorb any vertex: extensions by a disconnected
            # vertex are covered by the star chain, but pairs joined by an
            # edge not touching the set contribute weight and must be seeded.
            self._probe_edge_pairs(vs, score, gamma, i + 1)

    def _probe_edge_pairs(self, vs: tuple[int, ...], score: float,
                          gamma: dict[int, float], i: int) -> None:
        """Probe ``vs`` plus both endpoints of every edge disjoint from it.

        ``gamma`` is the merged neighborhood of ``vs``; edges are visited in
        sorted order so that discovery (and event) order is deterministic.
        """
        members = set(vs)
        for y, z, w in sorted(self.graph.edges()):
            if y in members or z in members:
                continue
            s = score + gamma.get(y, 0.0) + gamma.get(z, 0.0) + w
            self._probe(_with(_with(vs, y), z), s, i)

    def _coordinate(self, vs: tuple[int, ...], y: int) -> float:
        """Total weight between a vertex set and one outside vertex."""
        row = self.graph.neighbors(y)
        return sum([row.get(v, 0.0) for v in vs])

    def _cheap_explore(self, node: _Node, vs: tuple[int, ...], other: int) -> None:
        """Augment a one-endpoint set with the other endpoint."""
        cfg = self.cfg
        m = node.meta
        if m.card + 1 > cfg.n_max:
            return
        if cfg.is_dense(m.card + 1, m.score):
            return  # was too dense before: its supersets were already known
        self.stats.cheap_explores += 1
        evs = _with(vs, other)
        target = self.index.extend_lookup(node, other)
        if target is not None and target.meta is not None:
            self._probe(evs, 0.0, 1, node=target)  # score unused: already indexed
        else:
            self._probe(evs, m.score + self._coordinate(vs, other), 1, node=target)

    def _star_scan(self, node: _Node, vs: tuple[int, ...]) -> None:
        """Reconcile one star core with the update.

        A core holding one endpoint may have just gained the other as a
        neighbor, pulling the implied extension out of the chain's coverage:
        it is materialized (and grown from).  A core holding neither endpoint
        may imply both as free extensions; the pair now joined by an edge is
        no longer free together, so the combined set is probed.  For a core
        holding both, supersets reached by adding an edge disjoint from the
        core are probed, which only matters while the chain is exactly one
        deep (deeper coverage means those supersets were dense already).
        """
        cfg = self.cfg
        m = node.meta
        if m is None:
            return
        self.stats.star_scans += 1
        a, b = self._lo, self._hi
        ina, inb = a in vs, b in vs
        if ina and inb:
            if m.card + 2 > cfg.n_max:
                return
            pre = m.score - self._delta
            if cfg.free_extension_depth(m.card, pre) != 1:
                return
            self._probe_edge_pairs(vs, m.score, self.graph.merged_neighborhood(vs), 1)
        elif ina or inb:
            other = b if ina else a
            if self._coordinate(vs, other) == self._delta:
                # the update created other's first link to this core
                self._probe(_with(vs, other), m.score + self._delta, 1)
        else:
            if m.card + 2 > cfg.n_max:
                return
            if self._coordinate(vs, a) == 0.0 and self._coordinate(vs, b) == 0.0:
                s = m.score + self.graph.weight(a, b)
                self._probe(_with(_with(vs, a), b), s, 1)

    # -- candidate admission -----------------------------------------------------------------

    def _probe(self, vs: tuple[int, ...], score: float, i: int,
               node: object = False) -> None:
        """Evaluate one candidate set discovered at round ``i``.

        ``node`` may carry a pre-located tree node (or None when the caller
        already knows the set is absent); ``False`` means look it up here.
        """
        self.stats.probes += 1
        if node is False:
            node = self.index.find(vs)
        if node is not None and node.meta is not None:
            m = node.meta
            t = m.iteration_tag(self._epoch)
            if t is not None and t > i:
                # reachable in fewer rounds than first thought: explore deeper
                m.tag = i
                m.tag_epoch = self._epoch
                self._explore(node, vs, i + 1)
            return
        card = len(vs)
        if self.cfg.is_dense(card, score):
            if self.record_probes:
                self.probe_log.append((vs, score, True))
            self._admit(vs, score, i)
        else:
            self.stats.rejected_probes += 1
            if self.record_probes:
                self.probe_log.append((vs, score, False))

    def _admit(self, vs: tuple[int, ...], score: float, i: int) -> None:
        cfg = self.cfg
        card = len(vs)
        # Dense before the update but never materialized (it was covered by a
        # star chain): treat like any other stored stable set from here on.
        stable = cfg.is_dense(card, score - self._delta)
        node = self.index.insert(vs, score, self._epoch, 0 if stable else i)
        if cfg.is_output_dense(card, score):
            self._emit(GAIN, vs, cfg.density(card, score))
        self._maintain_closure(node, vs)
        self._explore(node, vs, 1 if stable else i + 1)

    # -- star-chain upkeep ------------------------------------------------------------------

    def _maintain_closure(self, node: _Node, vs: tuple[int, ...]) -> None:
        depth = self.cfg.free_extension_depth(node.meta.card, node.meta.score)
        if depth != node.meta.star_depth:
            grew = depth > node.meta.star_depth
            self.index.set_star_depth(node, depth)
            if grew and not self.star_mode:
                self._dirty.add(node)

    def _expand_chains(self) -> None:
        """Explicit mode: materialize every chain-implied set as an entry."""
        cfg = self.cfg
        while self._dirty:
            batch = sorted(self._dirty, key=self.index.vertices_of)
            self._dirty.clear()
            for node in batch:
                m = node.meta
                if m is None or m.star_depth == 0:
                    continue
                vs = self.index.vertices_of(node)
                for evs in self._implied_sets(vs, m.star_depth):
                    enode = self.index.find(evs)
                    if enode is not None and enode.meta is not None:
                        continue
                    newn = self.index.insert(evs, m.score, self._epoch, None)
                    if cfg.is_output_dense(len(evs), m.score):
                        self._emit(GAIN, evs, cfg.density(len(evs), m.score))
                    self._maintain_closure(newn, evs)

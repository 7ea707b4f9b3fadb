"""Prefix tree of dense vertex sets with embedded inverted lists.

Sets are stored sorted, one tree node per prefix element, so overlapping
sets share their common-prefix path.  Each vertex has an inverted list --
an intrusive doubly-linked chain threaded through the tree nodes carrying
that vertex as label -- which makes "every indexed set containing v" an
iteration over a few subtrees and lets node deletion unlink in constant
work.

A chain of nodes labeled with the fictitious vertex ``*`` (sorting above
every real vertex) may hang below an entry: the k-th chain node stands for
all supersets built by adding k vertices that contribute no weight.  Those
supersets share the parent's score and are never materialized.

Not safe for concurrent mutation; the engine owns it on one update thread.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

STAR = float("inf")  # fictitious label, lexicographically above all vertices


class IndexError_(ValueError):
    pass


class SubgraphMeta:
    """Per-entry payload: running score plus update-scoped bookkeeping.

    ``tag``/``tag_epoch`` record the exploration iteration that discovered
    the entry during the update ``tag_epoch``; stale epochs mean the entry is
    pre-existing as far as the current update is concerned.  ``star_depth``
    is the length of the free-extension chain below the node.
    """

    __slots__ = ("score", "card", "tag", "tag_epoch", "star_depth")

    def __init__(self, score: float, card: int,
                 tag: Optional[int] = None, tag_epoch: int = -1):
        self.score = score
        self.card = card
        self.tag = tag
        self.tag_epoch = tag_epoch
        self.star_depth = 0

    def iteration_tag(self, epoch: int) -> Optional[int]:
        """The discovery iteration if set during this update, else None."""
        return self.tag if self.tag_epoch == epoch else None


class _Node:
    __slots__ = ("label", "parent", "children", "meta", "il_prev", "il_next")

    def __init__(self, label, parent):
        self.label = label
        self.parent = parent
        self.children: dict = {}
        self.meta: Optional[SubgraphMeta] = None
        self.il_prev: Optional[_Node] = None
        self.il_next: Optional[_Node] = None

    def __repr__(self):  # debugging aid only
        return f"<node {self.label}>"


class SubgraphIndex:
    """The dense-set store: prefix tree + inverted lists + star chains."""

    def __init__(self, validator: Optional[Callable[[int, float], bool]] = None):
        self.root = _Node(None, None)
        self._heads: dict = {}        # label -> first node of its inverted list
        self._entry_count = 0
        self._node_count = 0
        self._validator = validator   # (card, score) -> dense?
        self.child_probes = 0         # fast-path lookups performed

    def __len__(self) -> int:
        return self._entry_count

    @property
    def node_count(self) -> int:
        return self._node_count

    # -- inverted-list plumbing ------------------------------------------------

    def _link(self, node: _Node) -> None:
        head = self._heads.get(node.label)
        node.il_next = head
        node.il_prev = None
        if head is not None:
            head.il_prev = node
        self._heads[node.label] = node

    def _unlink(self, node: _Node) -> None:
        if node.il_prev is not None:
            node.il_prev.il_next = node.il_next
        else:
            if self._heads.get(node.label) is node:
                if node.il_next is None:
                    del self._heads[node.label]
                else:
                    self._heads[node.label] = node.il_next
        if node.il_next is not None:
            node.il_next.il_prev = node.il_prev
        node.il_prev = node.il_next = None

    def inverted_list(self, label) -> Iterator[_Node]:
        node = self._heads.get(label)
        while node is not None:
            yield node
            node = node.il_next

    # -- path access -------------------------------------------------------------

    def find(self, vertices: Iterable[int]) -> Optional[_Node]:
        """Node for a sorted vertex tuple, or None; may carry no meta."""
        node = self.root
        for v in vertices:
            node = node.children.get(v)
            if node is None:
                return None
        return node

    def entry(self, vertices: Iterable[int]) -> Optional[_Node]:
        """Like find() but only returns nodes representing an indexed set."""
        node = self.find(vertices)
        return node if node is not None and node.meta is not None else None

    def vertices_of(self, node: _Node) -> tuple[int, ...]:
        """Reconstruct the (sorted) vertex set via parent pointers.

        Star labels are skipped, so for a chain node this is the core set
        whose free extensions the node represents.
        """
        out = []
        label = node.label
        while label is not None:
            if label is not STAR:
                out.append(label)
            node = node.parent
            label = node.label
        out.reverse()
        return tuple(out)

    def insert(self, vertices: tuple[int, ...], score: float, epoch: int = 0,
               tag: Optional[int] = None) -> _Node:
        """Insert or refresh the entry for a sorted vertex set.

        Re-inserting an existing set replaces its meta in place.  Rejects
        sets the validator considers sparse.
        """
        card = len(vertices)
        if self._validator is not None and not self._validator(card, score):
            raise IndexError_(f"refusing to index sparse set {vertices}")
        node = self.root
        for v in vertices:
            child = node.children.get(v)
            if child is None:
                child = _Node(v, node)
                node.children[v] = child
                self._link(child)
                self._node_count += 1
            node = child
        if node.meta is None:
            self._entry_count += 1
            node.meta = SubgraphMeta(score, card, tag, epoch if tag is not None else -1)
        else:
            m = node.meta
            m.score = score
            m.tag = tag
            m.tag_epoch = epoch if tag is not None else -1
        return node

    def extend_lookup(self, node: _Node, y: int) -> Optional[_Node]:
        """Node for (set of ``node``) + y.

        One child probe when y is greater than every vertex in the set;
        otherwise a re-walk from the root over the merged sorted set.
        """
        if node.label is None or y > node.label:
            self.child_probes += 1
            return node.children.get(y)
        merged = sorted(self.vertices_of(node) + (y,))
        return self.find(merged)

    # -- removal ----------------------------------------------------------------

    def _prune_up(self, node: _Node) -> int:
        freed = 0
        while node is not self.root and node.meta is None and not node.children:
            parent = node.parent
            self._unlink(node)
            del parent.children[node.label]
            self._node_count -= 1
            freed += 1
            node = parent
        return freed

    def remove(self, node_or_vertices) -> int:
        """Drop an indexed set; returns the number of tree nodes freed.

        The terminal's meta is cleared, any star chain below it is removed,
        and meta-free childless nodes are pruned toward the root.
        """
        if isinstance(node_or_vertices, _Node):
            node = node_or_vertices
        else:
            node = self.find(node_or_vertices)
        if node is None or node.meta is None:
            raise IndexError_(f"cannot remove absent set {node_or_vertices}")
        freed = 0
        if node.meta.star_depth:
            freed += self.set_star_depth(node, 0)
        node.meta = None
        self._entry_count -= 1
        return freed + self._prune_up(node)

    # -- star chains ----------------------------------------------------------------

    def set_star_depth(self, node: _Node, depth: int) -> int:
        """Grow or shrink the free-extension chain below an entry.

        Returns the number of chain nodes removed (0 when growing).
        """
        meta = node.meta
        if meta is None:
            raise IndexError_("star chains hang below indexed entries only")
        if depth < 0:
            raise IndexError_("star depth out of range")
        current = meta.star_depth
        if depth == current:
            return 0
        if depth > current:
            tail = node
            for _ in range(current):
                tail = tail.children[STAR]
            for _ in range(depth - current):
                star = _Node(STAR, tail)
                tail.children[STAR] = star
                self._link(star)
                self._node_count += 1
                tail = star
            meta.star_depth = depth
            return 0
        # shrink: drop chain nodes from the tail up
        chain = []
        tail = node
        for _ in range(current):
            tail = tail.children[STAR]
            chain.append(tail)
        removed = 0
        for star in reversed(chain[depth:]):
            if star.children:
                raise IndexError_("star chain node unexpectedly has children")
            self._unlink(star)
            del star.parent.children[STAR]
            self._node_count -= 1
            removed += 1
        meta.star_depth = depth
        return removed

    def star_parents(self) -> Iterator[tuple[_Node, int]]:
        """Entries carrying a chain, as (entry node, chain depth), deduplicated."""
        seen = set()
        for star in self.inverted_list(STAR):
            parent = star.parent
            while parent.label is STAR:
                parent = parent.parent
            if id(parent) not in seen:
                seen.add(id(parent))
                yield parent, parent.meta.star_depth

    # -- iteration -----------------------------------------------------------------

    def _subtrees(self, roots: list[tuple[_Node, tuple[int, ...]]],
                  prune_label=None) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """Depth-first walk below each (node, vertices above it) root in
        turn, yielding meta-bearing and star-chain nodes."""
        stack = roots[::-1]
        pop, push = stack.pop, stack.append
        while stack:
            n, below = pop()
            label = n.label
            if label == prune_label:
                continue
            if label is STAR:
                yield below, n
                vs = below
            else:
                vs = below + (label,)
                if n.meta is not None:
                    yield vs, n
            children = n.children
            if children:
                for label in sorted(children, reverse=True):
                    push((children[label], vs))

    def _roots(self, label) -> list[tuple[_Node, tuple[int, ...]]]:
        """(node, vertices above it) for every node carrying ``label``."""
        return [(n, self.vertices_of(n.parent)) for n in self.inverted_list(label)]

    def iterate_containing(self, a: int, b: int) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """Every indexed set containing a or b, each exactly once.

        Yields (vertices, node) for meta-bearing nodes and star-chain nodes
        (a chain node reports its core's vertices).  First the subtrees of
        b's inverted list, then a's (pruning descent at nodes labeled b),
        then star nodes whose core contains neither endpoint.
        """
        if not a < b:
            raise IndexError_("iterate_containing expects a < b")
        yield from self._subtrees(self._roots(b))
        yield from self._subtrees(self._roots(a), prune_label=b)
        cores: dict[int, tuple[int, ...]] = {}  # id(chain parent) -> its set
        for star in self.inverted_list(STAR):
            parent = star.parent
            while parent.label is STAR:
                parent = parent.parent
            core = cores.get(id(parent))
            if core is None:
                core = cores[id(parent)] = self.vertices_of(parent)
            if a not in core and b not in core:
                yield core, star

    def iterate_containing_both(self, a: int, b: int) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """Every indexed set containing both a and b (a < b), in the order
        iterate_containing yields them; star-chain nodes are left out."""
        roots = [(n, above) for n, above in self._roots(b) if a in above]
        for vs, node in self._subtrees(roots):
            if node.label is not STAR:
                yield vs, node

    def items(self) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """(vertices, node) for every indexed set, in sorted set order."""
        stack: list[tuple[_Node, tuple[int, ...]]] = [(self.root, ())]
        pop, push = stack.pop, stack.append
        while stack:
            node, vs = pop()
            if node.meta is not None:
                yield vs, node
            children = node.children
            if children:
                for label in sorted(children, reverse=True):
                    if label is not STAR:
                        push((children[label], vs + (label,)))

    # -- structural audit (test support) ------------------------------------------

    def audit(self) -> None:
        """Assert the structural invariants; raises AssertionError on breach."""
        listed: dict = {}
        for label, head in self._heads.items():
            seen = set()
            node = head
            prev = None
            while node is not None:
                assert node.label == label, "inverted list crosses labels"
                assert node.il_prev is prev, "broken inverted-list back link"
                assert id(node) not in seen, "inverted list cycles"
                seen.add(id(node))
                listed[id(node)] = label
                prev, node = node, node.il_next
        count = 0

        def walk(node: _Node, last_label) -> None:
            nonlocal count
            for label, child in node.children.items():
                count += 1
                assert child.parent is node, "broken parent link"
                if label is STAR:
                    assert not any(l is not STAR for l in child.children), \
                        "star nodes may only chain further stars"
                else:
                    assert last_label is None or label > last_label, \
                        "labels must increase along paths"
                    assert last_label is not STAR, "real vertex below a star"
                assert listed.get(id(child)) == label, "node missing from its inverted list"
                if child.meta is None and label is not STAR:
                    assert child.children, "orphan childless node without meta"
                if child.meta is not None:
                    depth = child.meta.star_depth
                    chain = 0
                    tail = child
                    while STAR in tail.children:
                        tail = tail.children[STAR]
                        chain += 1
                    assert chain == depth, "star chain length disagrees with meta"
                walk(child, label)

        walk(self.root, None)
        assert count == self._node_count, "node count drifted"

"""Prefix tree of dense vertex sets with per-vertex inverted lists.

Sets are stored sorted, one tree node per prefix element, so overlapping
sets share their common-prefix path.  Each node holds its prefix as a
sorted vertex tuple, set when the node is created, so reading a set back
costs no walk.  Each vertex has an inverted list --
an insertion-ordered dict of the tree nodes whose prefix ends in that
vertex, read newest first -- which makes "every indexed set containing v"
an iteration over a few subtrees.

An entry whose score lets it absorb free vertices is a star core: its
``star_depth`` k stands for all supersets built by adding up to k vertices
that contribute no weight.  Those supersets share the entry's score and are
never materialized.  The cores sit in a registry beside the tree, ordered
by when their depth last grew; the tree holds set paths only.

Not safe for concurrent mutation; the engine owns it on one update thread.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional


class IndexError_(ValueError):
    pass


class _Node:
    """One tree node; an indexed set exactly when ``score`` is not None.

    ``vs`` is the sorted vertex tuple of the path to the node; its last
    vertex is the node's label.  ``star_depth`` is how many free vertices
    the entry can absorb; it is nonzero exactly when the node is in its
    index's star registry.  ``certified`` holds the engine's growth
    certificate (see the engine module), or None.
    """

    __slots__ = ("vs", "children", "score", "star_depth", "certified")

    def __init__(self, vs: tuple[int, ...]):
        self.vs = vs
        self.children: dict = {}
        self.score: Optional[float] = None
        self.star_depth = 0
        self.certified: Optional[int] = None

    def __repr__(self):  # debugging aid only
        return f"<node {self.vs}>"


class SubgraphIndex:
    """The dense-set store: prefix tree + inverted lists + star registry."""

    def __init__(self, validator: Optional[Callable[[int, float], bool]] = None):
        self.root = _Node(())
        self._lists: dict = {}        # label -> {node: None}, oldest first
        self._stars: dict = {}        # star cores {node: None}, oldest deepened first
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
        self._lists.setdefault(node.vs[-1], {})[node] = None

    def _unlink(self, node: _Node) -> None:
        nodes = self._lists[node.vs[-1]]
        del nodes[node]
        if not nodes:
            del self._lists[node.vs[-1]]

    # -- path access -------------------------------------------------------------

    def find(self, vertices: Iterable[int]) -> Optional[_Node]:
        """Node for a sorted vertex tuple, or None; it need not hold a set."""
        node = self.root
        for v in vertices:
            node = node.children.get(v)
            if node is None:
                return None
        return node

    def entry(self, vertices: Iterable[int]) -> Optional[_Node]:
        """Like find() but only returns nodes representing an indexed set."""
        node = self.find(vertices)
        return node if node is not None and node.score is not None else None

    def insert(self, vertices: tuple[int, ...], score: float) -> _Node:
        """Insert or refresh the entry for a sorted vertex set.

        Re-inserting an existing set replaces its score in place.  Rejects
        sets the validator considers sparse.
        """
        if self._validator is not None and not self._validator(len(vertices), score):
            raise IndexError_(f"refusing to index sparse set {vertices}")
        node = self.root
        for v in vertices:
            child = node.children.get(v)
            if child is None:
                child = _Node(node.vs + (v,))
                node.children[v] = child
                self._link(child)
                self._node_count += 1
            node = child
        if node.score is None:
            self._entry_count += 1
        node.score = score
        return node

    def extend_lookup(self, node: _Node, y: int) -> Optional[_Node]:
        """Node for (set of ``node``) + y.

        One child probe when y is greater than every vertex in the set;
        otherwise a re-walk from the root over the merged sorted set.
        """
        if not node.vs or y > node.vs[-1]:
            self.child_probes += 1
            return node.children.get(y)
        merged = sorted(node.vs + (y,))
        return self.find(merged)

    # -- removal ----------------------------------------------------------------

    def remove(self, node: Optional[_Node]) -> int:
        """Drop the set a node holds; returns the number of tree nodes freed.

        The terminal's score is cleared, the entry leaves the star registry,
        and childless nodes that hold no set are pruned toward the root.
        """
        if node is None or node.score is None:
            raise IndexError_(
                f"cannot remove absent set {None if node is None else node.vs}")
        if node.star_depth:
            self.set_star_depth(node, 0)
        node.score = None
        self._entry_count -= 1
        path = [self.root]  # the node's ancestors, root first
        for v in node.vs[:-1]:
            path.append(path[-1].children[v])
        freed = 0
        while path and node.score is None and not node.children:
            parent = path.pop()
            self._unlink(node)
            del parent.children[node.vs[-1]]
            self._node_count -= 1
            freed += 1
            node = parent
        return freed

    # -- star cores -----------------------------------------------------------------

    def set_star_depth(self, node: _Node, depth: int) -> None:
        """Set how many free vertices an entry can absorb.

        The entry joins the star registry when the depth leaves 0, leaves it
        when the depth returns to 0, and moves to the registry's newest end
        whenever the depth grows.
        """
        if node.score is None:
            raise IndexError_("star depths belong to indexed entries only")
        if depth < 0:
            raise IndexError_("star depth out of range")
        current = node.star_depth
        node.star_depth = depth
        if depth > current:
            self._stars.pop(node, None)
            self._stars[node] = None
        elif depth == 0 and current:
            del self._stars[node]

    def star_parents(self) -> Iterator[_Node]:
        """Entries with a nonzero star depth, most recently deepened first."""
        return reversed(self._stars)

    # -- iteration -----------------------------------------------------------------

    def _subtrees(self, stack: list[_Node],
                  prune_label=None) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """Depth-first walk below each node of ``stack``, the last one first,
        yielding (vertices, node) for entries.

        Children are visited by ascending label; children labeled
        ``prune_label`` are not entered.
        """
        pop, push = stack.pop, stack.append
        while stack:
            n = pop()
            if n.score is not None:
                yield n.vs, n
            children = n.children
            if children:
                for label in sorted(children, reverse=True):
                    if label != prune_label:
                        push(children[label])

    def iterate_containing(self, a: int, b: int) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """Every indexed set containing a or b, each exactly once.

        Yields (vertices, node): first the subtrees of b's inverted list,
        newest first, then a's (pruning descent at nodes labeled b).
        """
        if not a < b:
            raise IndexError_("iterate_containing expects a < b")
        yield from self._subtrees(list(self._lists.get(b, ())))
        yield from self._subtrees(list(self._lists.get(a, ())), prune_label=b)

    def iterate_containing_both(self, a: int, b: int) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """Every indexed set containing both a and b (a < b), in the order
        iterate_containing yields them."""
        return self._subtrees([n for n in self._lists.get(b, ()) if a in n.vs])

    def items(self) -> Iterator[tuple[tuple[int, ...], _Node]]:
        """(vertices, node) for every indexed set, in sorted set order."""
        return self._subtrees([self.root])

    # -- structural audit (test support) ------------------------------------------

    def audit(self) -> None:
        """Assert the structural invariants; raises AssertionError on breach."""
        listed: dict = {}
        for label, nodes in self._lists.items():
            assert nodes, "empty inverted list kept"
            for node in nodes:
                assert node.vs[-1] == label, "inverted list crosses labels"
                listed[id(node)] = label
        count = 0
        starred = []

        def walk(node: _Node, last_label) -> None:
            nonlocal count
            for label, child in node.children.items():
                count += 1
                assert listed.get(id(child)) == label, "node missing from its inverted list"
                assert child.vs == node.vs + (label,), "vertex tuple is not the node's path"
                assert last_label is None or label > last_label, \
                    "labels must increase along paths"
                if child.score is None:
                    assert child.children, "orphan childless node without a score"
                if child.star_depth:
                    starred.append(child)
                walk(child, label)

        walk(self.root, None)
        assert count == self._node_count, "node count drifted"
        assert len(listed) == count, "inverted lists hold nodes outside the tree"
        assert self._stars.keys() == set(starred), "star registry disagrees with the depths"

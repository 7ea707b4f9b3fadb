import random

import pytest

from densestream import SubgraphIndex
from densestream.index import IndexError_

FIVE_SETS = [
    ((1, 3), 1.9),
    ((1, 3, 4), 2.85),
    ((1, 3, 5), 2.8),
    ((3, 4, 5), 2.9),
    ((4, 5), 1.8),
]


def build_five_set_index() -> SubgraphIndex:
    idx = SubgraphIndex()
    for vs, score in FIVE_SETS:
        idx.insert(vs, score)
    return idx


def test_overlapping_sets_share_their_prefix_path():
    idx = build_five_set_index()
    assert len(idx) == 5
    # 1-3, 1-3-4, 1-3-5 share the 1->3 path: 9 nodes instead of 13 labels
    assert idx.node_count == 9
    assert idx.node_count < sum(len(vs) for vs, _ in FIVE_SETS)
    a = idx.entry((1, 3, 4))
    b = idx.entry((1, 3, 5))
    assert idx.find((1, 3)).children == {4: a, 5: b}
    idx.audit()


def test_reinsert_updates_meta_in_place():
    idx = build_five_set_index()
    node = idx.entry((1, 3))
    idx.insert((1, 3), 2.5)
    assert idx.entry((1, 3)) is node
    assert node.score == 2.5
    assert len(idx) == 5
    assert idx.node_count == 9


def _inverted_list(idx, label) -> list:
    """The nodes carrying ``label``, most recently linked first."""
    return list(reversed(idx._lists.get(label, {})))


def test_inverted_list_holds_exactly_the_max_vertex_nodes():
    idx = build_five_set_index()
    on_five = {n.vs for n in _inverted_list(idx, 5)}
    assert on_five == {(1, 3, 5), (3, 4, 5), (4, 5)}
    on_three = {n.vs for n in _inverted_list(idx, 3)}
    assert on_three == {(1, 3), (3,)}


def test_validator_rejects_sets_below_their_bar():
    idx = SubgraphIndex(validator=lambda card, score: score >= card)
    idx.insert((1, 2), 2.0)
    with pytest.raises(IndexError_):
        idx.insert((1, 2, 3), 1.0)


def test_extend_lookup_with_larger_vertex_is_one_probe():
    idx = build_five_set_index()
    handle = idx.entry((1, 3))
    before = idx.child_probes
    found = idx.extend_lookup(handle, 4)
    assert idx.child_probes == before + 1
    assert found.vs == (1, 3, 4)


def test_extend_lookup_with_smaller_vertex_rewalks():
    idx = build_five_set_index()
    handle = idx.entry((1, 3))
    before = idx.child_probes
    assert idx.extend_lookup(handle, 2) is None  # (1, 2, 3) never indexed
    assert idx.child_probes == before


def test_extend_lookup_absent_extension():
    idx = build_five_set_index()
    assert idx.extend_lookup(idx.entry((4, 5)), 6) is None


def test_remove_keeps_shared_prefix_alive():
    idx = build_five_set_index()
    assert idx.remove(idx.entry((1, 3, 4))) == 1
    assert idx.entry((1, 3)) is not None
    assert idx.entry((1, 3, 4)) is None
    idx.audit()


def test_remove_cascades_once_nothing_depends_on_the_path():
    idx = build_five_set_index()
    idx.remove(idx.entry((1, 3, 4)))
    assert idx.remove(idx.entry((1, 3, 5))) == 1
    assert idx.remove(idx.entry((1, 3))) == 2  # the 3 node and the 1 node both go
    assert idx.find((1,)) is None
    idx.audit()


def test_remove_prunes_meta_free_interior_nodes():
    idx = build_five_set_index()
    # (3,4) and (3,) carry no score, so removing (3,4,5) frees that whole limb
    assert idx.remove(idx.entry((3, 4, 5))) == 3
    assert idx.find((3, 4)) is None
    idx.audit()


def test_remove_absent_set_is_an_error():
    idx = build_five_set_index()
    with pytest.raises(IndexError_):
        idx.remove(idx.entry((1, 4)))
    with pytest.raises(IndexError_, match=r"\(3, 4\)"):
        idx.remove(idx.find((3, 4)))  # an interior node that holds no set
    assert len(idx) == 5
    idx.audit()


def test_iterate_containing_visits_each_set_once():
    idx = build_five_set_index()
    visited = [vs for vs, _node in idx.iterate_containing(1, 5)]
    assert sorted(visited) == sorted(
        [(1, 3), (1, 3, 4), (1, 3, 5), (3, 4, 5), (4, 5)])
    assert len(visited) == len(set(visited))
    for vs, node in idx.iterate_containing(1, 5):
        assert idx.find(vs) is node


def test_iterate_containing_empty_and_single():
    idx = SubgraphIndex()
    assert list(idx.iterate_containing(1, 2)) == []
    idx.insert((1, 2), 1.0)
    assert [vs for vs, _ in idx.iterate_containing(1, 2)] == [(1, 2)]


def test_iterate_requires_ordered_endpoints():
    idx = build_five_set_index()
    with pytest.raises(IndexError_):
        list(idx.iterate_containing(5, 1))


def test_star_chain_mark_and_unmark():
    idx = build_five_set_index()
    node = idx.entry((1, 3))
    children = dict(node.children)
    idx.set_star_depth(node, 1)
    assert node.star_depth == 1
    assert list(idx.star_parents()) == [node]
    assert node.children == children  # a star core adds nothing to the tree
    idx.audit()
    idx.set_star_depth(node, 0)
    assert list(idx.star_parents()) == []
    # sibling extensions never went anywhere
    assert idx.entry((1, 3, 4)) is not None
    idx.audit()


def test_star_chain_grow_and_shrink_depth():
    idx = build_five_set_index()
    node = idx.entry((1, 3))
    nodes = idx.node_count
    idx.set_star_depth(node, 3)
    # one registry entry at any nonzero depth; the depth itself lives on the entry
    assert list(idx.star_parents()) == [node]
    assert node.star_depth == 3
    assert idx.node_count == nodes
    idx.set_star_depth(node, 1)
    assert list(idx.star_parents()) == [node]
    assert node.star_depth == 1
    assert idx.node_count == nodes
    idx.audit()
    idx.set_star_depth(node, 0)
    assert list(idx.star_parents()) == []
    assert idx.node_count == nodes
    idx.audit()


def test_star_parents_deduplicates_chains():
    idx = build_five_set_index()
    idx.set_star_depth(idx.entry((1, 3)), 2)
    idx.set_star_depth(idx.entry((4, 5)), 1)
    parents = {n.vs: n.star_depth for n in idx.star_parents()}
    assert parents == {(1, 3): 2, (4, 5): 1}


def test_removing_an_entry_drops_its_chain():
    idx = build_five_set_index()
    idx.set_star_depth(idx.entry((4, 5)), 2)
    freed = idx.remove(idx.entry((4, 5)))
    assert freed == 2  # the 5 leaf and the 4 node
    assert list(idx.star_parents()) == []
    idx.audit()


def test_star_parents_lists_the_most_recently_deepened_core_first():
    idx = build_five_set_index()
    x, y = idx.entry((1, 3)), idx.entry((4, 5))
    idx.set_star_depth(x, 1)
    idx.set_star_depth(y, 1)
    assert list(idx.star_parents()) == [y, x]
    idx.set_star_depth(x, 2)
    assert [(n, n.star_depth) for n in idx.star_parents()] == [(x, 2), (y, 1)]


def test_audit_rejects_a_registered_core_without_a_depth():
    idx = build_five_set_index()
    node = idx.entry((1, 3))
    idx.set_star_depth(node, 1)
    node.star_depth = 0
    with pytest.raises(AssertionError, match="star registry disagrees"):
        idx.audit()


def test_audit_rejects_a_vertex_tuple_off_its_path():
    idx = build_five_set_index()
    idx.entry((1, 3, 4)).vs = (2, 3, 4)  # its last vertex, the label, is kept
    with pytest.raises(AssertionError, match="not the node's path"):
        idx.audit()


def test_audit_rejects_a_depth_outside_the_registry():
    idx = build_five_set_index()
    idx.entry((1, 3)).star_depth = 1
    with pytest.raises(AssertionError, match="star registry disagrees"):
        idx.audit()


def test_audit_rejects_a_registered_core_outside_the_tree():
    idx = build_five_set_index()
    stray = build_five_set_index().entry((1, 3))
    stray.star_depth = 1
    idx._stars[stray] = None
    with pytest.raises(AssertionError, match="star registry disagrees"):
        idx.audit()


def _random_index(rng: random.Random):
    idx = SubgraphIndex()
    sets = set()
    universe = range(1, rng.randint(5, 10) + 1)
    for _ in range(rng.randint(1, 25)):
        size = rng.randint(2, min(5, len(universe)))
        vs = tuple(sorted(rng.sample(universe, size)))
        sets.add(vs)
        idx.insert(vs, rng.uniform(0.1, 5.0))
    starred = []
    for vs in sets:
        if rng.random() < 0.25:
            node = idx.entry(vs)
            idx.set_star_depth(node, rng.randint(1, 2))
            starred.append(vs)
    return idx, sets, starred


def _paths(idx) -> dict:
    """Each tree node's path, read from the child labels down from the root."""
    paths = {}

    def walk(node, path) -> None:
        paths[id(node)] = path
        for label, child in node.children.items():
            walk(child, path + (label,))

    walk(idx.root, ())
    return paths


def _reference_containing(idx, a, b) -> list:
    """iterate_containing's order, written out: b's inverted list newest
    first, each subtree pre-order by ascending label, then a's list pruned
    at b."""
    out = []
    paths = _paths(idx)

    def walk(node, prune) -> None:
        if node.score is not None:
            out.append((paths[id(node)], node))
        for label in sorted(node.children):
            if label != prune:
                walk(node.children[label], prune)

    for node in _inverted_list(idx, b):
        walk(node, None)
    for node in _inverted_list(idx, a):
        walk(node, b)
    return out


def test_exactly_once_traversal_over_random_states():
    rng = random.Random(321)
    for _ in range(1000):
        idx, sets, starred = _random_index(rng)
        universe = max(max(vs) for vs in sets)
        a, b = sorted(rng.sample(range(1, universe + 2), 2))
        # event order follows these walk orders
        assert list(idx.items()) == [(vs, idx.entry(vs)) for vs in sorted(sets)]
        assert list(idx.iterate_containing(a, b)) == _reference_containing(idx, a, b)
        visited_sets = [vs for vs, _node in idx.iterate_containing(a, b)]
        expected = {vs for vs in sets if a in vs or b in vs}
        assert sorted(visited_sets) == sorted(expected)
        assert len(visited_sets) == len(set(visited_sets))
        idx.audit()


def test_iterate_containing_both_over_random_states():
    rng = random.Random(322)
    for _ in range(500):
        idx, sets, _starred = _random_index(rng)
        universe = max(max(vs) for vs in sets)
        a, b = sorted(rng.sample(range(1, universe + 2), 2))
        expected = [(vs, node) for vs, node in idx.iterate_containing(a, b)
                    if a in vs and b in vs]
        assert list(idx.iterate_containing_both(a, b)) == expected
        assert {vs for vs, _ in expected} == {vs for vs in sets if a in vs and b in vs}


def test_structural_audit_through_random_mutation():
    rng = random.Random(99)
    idx = SubgraphIndex()
    live = []
    for _ in range(600):
        op = rng.random()
        if op < 0.6 or not live:
            vs = tuple(sorted(rng.sample(range(1, 9), rng.randint(2, 4))))
            idx.insert(vs, rng.uniform(0.1, 2.0))
            if vs not in live:
                live.append(vs)
        elif op < 0.8:
            vs = rng.choice(live)
            node = idx.entry(vs)
            idx.set_star_depth(node, rng.randint(0, 2))
        else:
            vs = live.pop(rng.randrange(len(live)))
            idx.remove(idx.entry(vs))
        idx.audit()
    assert len(idx) == len(live)

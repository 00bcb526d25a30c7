"""The preorder-array OrdinalTree against the dict-based tree it replaced."""

import gc
import random
import tracemalloc
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

import dict_tree
from dualtree import codec, duality
from dualtree.errors import ValidationError
from dualtree.minheap import ROOT_LABEL, build_minheap
from dualtree.randgen import random_tree
from dualtree.tree import _NAV_KINDS, OrdinalTree

from conftest import Counted, chain, shapes, star


def assert_same(t, o):
    """Every accessor of ``t`` answers as the DictTree ``o`` does."""
    nodes = list(o.nodes())
    assert t.root == o.root and t.n_nodes == o.n_nodes and list(t.nodes()) == nodes
    assert t.children_map() == o.children_map() and t.parent_map() == o.parent_map()
    assert t == OrdinalTree.from_children(o.root, o.children_map())
    for v in nodes:
        assert t.has_node(v)
        assert t.children(v) == o.children(v) and t.parent(v) == o.parent(v)
        assert (t.dft(v), t.depth(v), t.subtree_size(v)) == (o.dft(v), o.depth(v), o.subtree_size(v))
        assert t.node_at(o.dft(v)) == v
        for kind in _NAV_KINDS:
            assert t.navigate(v, kind) == o.navigate(v, kind)
        if v != o.root:
            assert t.first_right(v) == o.first_right(v)
    rng = random.Random(len(nodes))
    for _ in range(20):
        x, v = rng.choice(nodes), rng.choice(nodes)
        assert t.in_subtree(x, v) == o.in_subtree(x, v)
        if len(nodes) > 1:
            r1, r2 = sorted(rng.randint(2, len(nodes)) for _ in range(2))
            assert t.range_min_depth(nodes[r1 - 1], nodes[r2 - 1]) == o.range_min_depth(nodes[r1 - 1], nodes[r2 - 1])


@settings(max_examples=150, deadline=None)
@given(shape=shapes())
def test_accessors_and_constructions_match_the_dict_oracle(shape):
    t = OrdinalTree.from_children(*shape)
    o = dict_tree.DictTree.from_children(*shape)
    assert_same(t, o)
    for v in random.Random(t.n_nodes).sample(list(o.nodes()), min(4, t.n_nodes)):
        assert_same(t.subtree(v), o.subtree(v))
    for array_form, dict_form in ((duality.dual, dict_tree.dual), (duality.reversed_dual, dict_tree.reversed_dual),
                                  (duality.reverse, dict_tree.reverse)):
        assert_same(array_form(t), dict_form(o))


# faults a child map can hold, and what the message for each one says
FAULTS = {
    "repeated child": "has duplicate children",
    "shared child": "appears twice (cycle or shared child)",
    "cycle to the root": "appears twice (cycle or shared child)",
    "unreachable list": "child lists given for unreachable nodes",
    "seen node before a repeat": "has duplicate children",
}


@st.composite
def malformed_maps(draw):
    """(root, label -> child list map, faults): a tree of ``shapes`` with one
    to three of ``FAULTS`` put in its map, each in a list of its own, so that
    no two add up to a third kind: two children shared into one list would
    repeat a child there."""
    root, kids = draw(shapes())
    fresh = ("x", "y", "z") if isinstance(root, str) else (0, -1, -2)
    kids = {v: list(c) for v, c in kids.items()} or {root: [fresh[2]]}
    given = {v: tuple(c) for v, c in kids.items()}  # the children to share or repeat
    order = list(OrdinalTree.from_children(root, kids).nodes())
    used = set()  # the lists a fault went into
    faults = []
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(sorted(FAULTS)))
        free = [v for v in order if v not in used]
        if fault == "unreachable list":
            kids[fresh[0]] = [fresh[1]]
        elif fault == "cycle to the root":
            if not free:
                continue
            w = draw(st.sampled_from(free))
            into = kids.setdefault(w, [])
            into.insert(draw(st.integers(0, len(into))), root)
            used.add(w)
        elif fault == "shared child":
            inner = [v for v in order if given.get(v) and [u for u in free if u != v]]
            if not inner:
                continue
            v = draw(st.sampled_from(inner))
            w = draw(st.sampled_from([u for u in free if u != v]))
            into = kids.setdefault(w, [])
            into.insert(draw(st.integers(0, len(into))), draw(st.sampled_from(given[v])))
            used.add(w)
        else:  # a repeat of one of v's children, after a node met before v or v itself, or not
            inner = [v for v in free if given.get(v)]
            if not inner:
                continue
            v = draw(st.sampled_from(inner))
            c = draw(st.sampled_from(given[v]))
            k = draw(st.integers(0, len(kids[v])))
            if fault == "repeated child":
                kids[v].insert(k, c)
            else:
                kids[v][k:] = [draw(st.sampled_from(order[:order.index(v) + 1])), *kids[v][k:], c]
            used.add(v)
        faults.append(fault)
    return root, kids, faults


def rejection(build, root, kids):
    """The text of the ValidationError ``build(root, kids)`` raises."""
    try:
        build(root, kids)
    except ValidationError as err:
        return str(err)
    raise AssertionError("a malformed map was accepted")


@settings(max_examples=300, deadline=None)
@given(case=malformed_maps())
def test_from_children_rejects_malformed_maps_as_the_dict_oracle_does(case):
    root, kids, faults = case
    got = rejection(OrdinalTree.from_children, root, kids)
    assert got == rejection(dict_tree.DictTree.from_children, root, kids)
    assert any(FAULTS[fault] in got for fault in faults)


@settings(max_examples=150, deadline=None)
@given(shape=shapes())
def test_decoded_trees_match_the_dict_oracle(shape):
    t = OrdinalTree.from_children(*shape)
    bp, df = codec.bp_encode(t)[0], codec.dfuds_encode(t)[0]
    labels = list(range(1, t.n_nodes + 1))
    assert_same(codec.bp_decode(bp), dict_tree.bp_tree(bp.to_text(), labels))
    assert_same(codec.dfuds_decode(df), dict_tree.dfuds_tree(df.to_text(), 1))
    text = codec.tree_to_text(t)
    words = text.split("\n")[1].split()
    assert_same(codec.tree_from_text(text), dict_tree.bp_tree(bp.to_text(), words))


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(-20, 20), min_size=1, max_size=120))
def test_heap_tree_matches_the_dict_oracle(values):
    h = build_minheap(values)
    assert_same(h.tree, dict_tree.dfuds_tree(h.dfuds.to_text(), ROOT_LABEL))


def _held(x):
    """What tree ``x`` refers to, but its class and an empty slot."""
    return [r for r in gc.get_referents(x) if r is not None and not isinstance(r, type)]


def test_trees_hold_no_dict_until_a_label_is_looked_up():
    # The first lookup by label makes the label -> rank dict; the inputs
    # come from maps, which make none.
    src = random_tree(random.Random(3), 400)
    kids = src.children_map()
    t = OrdinalTree.from_children(src.root, kids)
    named = OrdinalTree.from_children(f"v{t.root}", {f"v{v}": tuple(f"v{c}" for c in cs) for v, cs in kids.items()})
    built = OrdinalTree.build(src.parent_map(), kids)
    made = [t, named, built, duality.dual(t), duality.reversed_dual(t), duality.reverse(t), src.subtree(src.node_at(2)),
            codec.bp_decode(codec.bp_encode(t)[0]), codec.dfuds_decode(codec.dfuds_encode(t)[0]),
            codec.tree_from_text(codec.tree_to_text(named)), build_minheap(list(range(300, 0, -3))).tree]
    for x in made:
        held = _held(x)
        assert not [r for r in held if isinstance(r, dict)]
        assert x._order in held and isinstance(x._order, list)
        for table in (x._parent, x._depth, x._size):
            assert isinstance(table, array) and len(table) == x.n_nodes
        assert len(held) == 5  # root label, preorder, three arrays
        last = x.node_at(x.n_nodes)
        assert x.dft(last) == x.n_nodes
        held = _held(x)
        assert [r for r in held if isinstance(r, dict)] == [x._rank]
        assert x._rank == dict(zip(x.nodes(), range(x.n_nodes))) and len(held) == 6


def _held_per_node(make, n):
    """(what ``make()`` returns, the bytes per node it holds under tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return made, held / n


def test_built_and_decoded_trees_hold_few_bytes_per_node():
    # With the label -> rank dict made by every constructor, the built trees
    # held about 104 B per node here and the decoded ones 136. Without it a
    # tree holds a pointer per node in its preorder and three 4-B arrays, and
    # a decoded one also its int labels.
    n = 100_000
    t = random_tree(random.Random(19), n)
    kids = t.children_map()
    bp, df = codec.bp_encode(t)[0], codec.dfuds_encode(t)[0]
    for make, bound in ((lambda: OrdinalTree.from_children(t.root, kids), 24), (lambda: duality.dual(t), 24),
                        (lambda: duality.reversed_dual(t), 24), (lambda: codec.bp_decode(bp), 60),
                        (lambda: codec.dfuds_decode(df), 60)):
        made, per_node = _held_per_node(make, n)
        assert made.n_nodes == n and made._rank is None
        assert per_node <= bound, per_node


def _reads_of(fn, *trees):
    """Index reads of the trees' parent and size tables while fn runs."""
    for x in trees:
        x._parent, x._size = Counted(x._parent), Counted(x._size)
    Counted.reads = 0
    fn()
    return Counted.reads


def test_rules_dual_and_quasi_subtree_stay_linear_on_stars_and_chains():
    for n in (2000, 8000):
        for make in (lambda: star(n), lambda: chain(*range(n + 1))):
            t = make()
            assert _reads_of(lambda: duality.dual_certified(t), t) <= 20 * n
            a, host = make(), make()
            assert _reads_of(lambda: duality.is_quasi_subtree(a, host), a, host) <= 20 * n


def test_left_siblings_of_all_nodes_take_linear_steps_in_all():
    rng = random.Random(8)
    for t in (star(3000), chain(*range(3000)), random_tree(rng, 3000)):
        nodes = list(t.nodes())
        steps = _reads_of(lambda: [t.navigate(v, "ils") for v in nodes], t)
        assert steps <= 4 * len(nodes)


def test_one_left_sibling_climbs_the_height_of_its_subtree():
    # root 0 has children [1 (the head of a chain 1..m), m + 1]
    m = 2000
    kids = {k: (k + 1,) for k in range(1, m)}
    kids[0] = (1, m + 1)
    t = OrdinalTree.from_children(0, kids)
    steps = _reads_of(lambda: t.navigate(m + 1, "ils"), t)
    assert t.navigate(m + 1, "ils") == 1
    assert m <= steps <= 2 * m + 5  # one climb step per chain node, at most two reads each

import random
from itertools import islice
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_tree
from dualtree import codec, duality
from dualtree.errors import ContractError
from dualtree.randgen import random_tree
from dualtree.tree import OrdinalTree

from conftest import ROOT, chain, relabel, shapes, star, trees


def test_dual_fixture(fix_t, fix_tstar):
    assert duality.dual(fix_t) == fix_tstar


def test_dual_single_node():
    t = OrdinalTree.from_children("r", {"r": ()})
    assert duality.dual(t) == t


def test_dual_chain():
    t = chain("r", "a", "b")
    d = duality.dual(t)
    assert d.children("r") == ("b", "a")
    assert d.children("a") == ()
    assert d.children("b") == ()


def test_dual_parent_examples(fix_t):
    assert duality.dual_parent(fix_t, 2) == 4
    assert duality.dual_parent(fix_t, 8) == ROOT
    assert duality.dual_parent(fix_t, 5) == 6
    with pytest.raises(ContractError):
        duality.dual_parent(fix_t, ROOT)


def test_certificate_rules(fix_t):
    cert = duality.dual_certified(fix_t)
    assert cert.original is fix_t
    assert set(cert.rules) == set(fix_t.nodes()) - {ROOT}
    # rightmost child of the root / rightmost children / left siblings
    assert cert.rules[4] == "1b"
    assert cert.rules[3] == "2"
    assert cert.rules[8] == "2"
    assert cert.rules[1] == "3"
    assert cert.rules[5] == "3"


def test_reverse_examples(fix_tstar, fix_hat):
    assert duality.reverse(fix_tstar) == fix_hat
    c = chain("r", "a", "b")
    assert duality.reverse(c) == c
    rng = random.Random(1)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 60))
        assert duality.reverse(duality.reverse(t)) == t


def test_reverse_permutes_the_arrays_without_a_degree_pass(monkeypatch):
    # the reversal of the dict oracle, array by array, on stars, chains,
    # random trees, a single node and string labels
    rng = random.Random(21)
    made = [star(3000), chain(*range(3001)), chain("only"), relabel(star(40), str),
            *(random_tree(rng, rng.randint(1, 400)) for _ in range(30))]
    cases = [(t, dict_arrays(dict_tree.reverse(dict_tree.DictTree.from_children(t.root, t.children_map()))))
             for t in made]

    def refuse(*args, **kwargs):
        raise AssertionError("reverse permutes the arrays it has")

    monkeypatch.setattr(OrdinalTree, "_degrees", refuse)
    monkeypatch.setattr(OrdinalTree, "_from_depths", refuse)
    for t, want in cases:
        r = duality.reverse(t)
        assert arrays(r) == want
        assert arrays(duality.reverse(r)) == arrays(t)
        assert r._rank is None and t._rank is None


def test_reversed_dual_examples(fix_t, fix_hat):
    assert duality.reversed_dual(fix_t) == fix_hat
    single = OrdinalTree.from_children("r", {"r": ()})
    assert duality.reversed_dual(single) == single
    d = duality.reversed_dual(chain("r", "a", "b"))
    assert d.children("r") == ("a", "b")


def test_dual_of_reversed_examples(fix_t):
    t = OrdinalTree.from_children("r", {"r": ("a", "b")})
    assert duality.dual_of_reversed(t) == chain("r", "a", "b")
    single = OrdinalTree.from_children("r", {"r": ()})
    assert duality.dual_of_reversed(single) == single
    d = duality.dual_of_reversed(fix_t)
    assert d.children(ROOT) == (3, 2, 1)


def test_compositions_differ_in_general():
    t = OrdinalTree.from_children("r", {"r": ("a", "b"), "a": ("c",)})
    lhs = duality.reversed_dual(t)
    rhs = duality.dual_of_reversed(t)
    assert lhs.children("r") == ("b",) and lhs.children("b") == ("a", "c")
    assert rhs.children("r") == ("c", "a") and rhs.children("a") == ("b",)
    assert lhs != rhs


def test_pda_examples(fix_t):
    assert duality.primal_dual_ancestor(fix_t, 2, 5) == 4
    assert duality.primal_dual_ancestor(fix_t, 5, 8) == 7
    for v in (2, 5, 8):
        assert duality.primal_dual_ancestor(fix_t, v, v) == v
    with pytest.raises(ContractError):
        duality.primal_dual_ancestor(fix_t, 5, 2)
    with pytest.raises(ContractError):
        duality.primal_dual_ancestor(fix_t, ROOT, 5)


def test_pda_membership_characterization():
    rng = random.Random(91)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 60))
        d = duality.dual(t)
        for _ in range(15):
            r1 = rng.randint(2, t.n_nodes)
            r2 = rng.randint(r1, t.n_nodes)
            v1, v2 = t.node_at(r1), t.node_at(r2)
            v = duality.primal_dual_ancestor(t, v1, v2)
            assert d.in_subtree(v1, v)
            assert t.in_subtree(v2, v)
            # uniqueness: no other node in range satisfies both memberships
            for r in range(r1, r2 + 1):
                x = t.node_at(r)
                if x != v:
                    assert not (d.in_subtree(v1, x) and t.in_subtree(v2, x))


def test_pda_is_rightmost_min_depth():
    rng = random.Random(92)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 80))
        for _ in range(15):
            r1 = rng.randint(2, t.n_nodes)
            r2 = rng.randint(r1, t.n_nodes)
            v1, v2 = t.node_at(r1), t.node_at(r2)
            _, brute = t.range_min_depth(v1, v2)
            assert duality.primal_dual_ancestor(t, v1, v2) == brute


def test_join_examples():
    t1 = OrdinalTree.from_children("s", {"s": ()})
    t2 = OrdinalTree.from_children("R2", {"R2": ("c",)})
    assert duality.join(t1, t2) == t2

    t1 = OrdinalTree.from_children("s", {"s": ("x", "y")})
    joined = duality.join(t1, t2)
    assert joined.children("R2") == ("c",)
    assert joined.children("c") == ("x", "y")


def test_join_preconditions():
    leafless = OrdinalTree.from_children("R2", {"R2": ()})
    t1 = OrdinalTree.from_children("s", {"s": ("x",)})
    with pytest.raises(ContractError):
        duality.join(t1, leafless)
    deep = OrdinalTree.from_children("R2", {"R2": ("c",), "c": ("d",)})
    with pytest.raises(ContractError):
        duality.join(t1, deep)
    clash = OrdinalTree.from_children("R2", {"R2": ("x",)})
    with pytest.raises(ContractError):
        duality.join(t1, clash)


def test_join_matches_dual_of_two_subtree_root():
    rng = random.Random(6)
    for _ in range(30):
        a1 = random_tree(rng, rng.randint(1, 12))
        a2 = random_tree(rng, rng.randint(1, 12))
        # disjoint relabeling, shared root label 0
        m1 = {v: ("s1", v) for v in a1.nodes()}
        m2 = {v: ("s2", v) for v in a2.nodes()}
        sub1 = OrdinalTree.from_children(m1[a1.root], {m1[v]: tuple(m1[c] for c in a1.children(v)) for v in a1.nodes()})
        sub2 = OrdinalTree.from_children(m2[a2.root], {m2[v]: tuple(m2[c] for c in a2.children(v)) for v in a2.nodes()})
        whole = OrdinalTree.from_children(
            0,
            {0: (sub1.root, sub2.root), **sub1.children_map(), **sub2.children_map()},
        )
        lhs = duality.join(
            duality.dual(duality.root_prepend(0, sub1)),
            duality.dual(duality.root_prepend(0, sub2)),
        )
        assert lhs == duality.dual(whole)


def test_root_prepend():
    single = OrdinalTree.from_children("x", {"x": ()})
    t = duality.root_prepend("r", single)
    assert t.root == "r" and t.children("r") == ("x",)
    with pytest.raises(ContractError):
        duality.root_prepend("x", single)
    rng = random.Random(3)
    for _ in range(20):
        base = random_tree(rng, rng.randint(1, 40))
        d = duality.dual(duality.root_prepend(0, base))
        rmc = d.navigate(d.root, "rmc")
        assert rmc is not None and d.children(rmc) == ()


def join_by_children_map(t1, t2):
    """``join`` as it was built before the array arithmetic: t2's children
    map with t1's non-root child lists added and t1's root children under
    the rightmost child of t2's root, walked again by ``from_children``."""
    attach = t2.navigate(t2.root, "rmc")
    if attach is None:
        raise ContractError("second tree's root has no rightmost child")
    if t2.children(attach):
        raise ContractError(f"rightmost child {attach!r} of the second tree's root is not a leaf")
    moved = [v for v in t1.nodes() if v != t1.root]
    overlap = set(moved) & set(t2.nodes())
    if overlap:
        raise ContractError(f"label collision between joined trees: {sorted(map(repr, overlap))}")
    children = t2.children_map()
    for v in moved:
        children[v] = t1.children(v)
    children[attach] = t1.children(t1.root)
    return OrdinalTree.from_children(t2.root, children)


def root_prepend_by_children_map(label, t):
    """``root_prepend`` as it was built before the array arithmetic."""
    if t.has_node(label):
        raise ContractError(f"label {label!r} already used in the tree")
    children = t.children_map()
    children[label] = (t.root,)
    return OrdinalTree.from_children(label, children)


def outcome(make, *args):
    """The arrays of the tree ``make(*args)`` returns, or the text of the
    ContractError it raises."""
    try:
        return arrays(make(*args))
    except ContractError as err:
        return f"ContractError: {err}"


@st.composite
def join_cases(draw):
    """(t1, t2) for ``join``. t1 is a tree of ``shapes`` (a single node
    among them) with its labels moved apart from t2's, or, when a collision
    is drawn, with one of them renamed to a label of t2. t2's root has no
    child, or a rightmost child that is a leaf or an inner node."""
    r1, k1 = draw(shapes())
    r2, k2 = draw(shapes())
    fresh = ("x", "y") if isinstance(r2, str) else (-1, -2)
    rightmost = draw(st.sampled_from(["leaf", "as drawn", "inner", "none"]))
    if rightmost == "none":
        k2 = {}
    elif rightmost == "leaf":
        k2 = {**k2, r2: (*k2.get(r2, ()), fresh[0])}
    elif rightmost == "inner":
        k2 = {**k2, r2: (*k2.get(r2, ()), fresh[0]), fresh[0]: (fresh[1],)}
    t2 = OrdinalTree.from_children(r2, k2)
    labels1 = [r1, *(c for kids in k1.values() for c in kids)]
    name = {v: v + 1000 if isinstance(v, int) else f"t1{v}" for v in labels1}
    if draw(st.booleans()):
        name[draw(st.sampled_from(labels1))] = draw(st.sampled_from(list(t2.nodes())))
    t1 = OrdinalTree.from_children(name[r1], {name[v]: tuple(map(name.get, kids)) for v, kids in k1.items()})
    return t1, t2


@settings(max_examples=400, deadline=None)
@given(case=join_cases())
def test_join_matches_the_children_map_oracle(case):
    # equal arrays or the same error, and no label map made on either input
    t1, t2 = case
    got = outcome(duality.join, t1, t2)
    assert t1._rank is None and t2._rank is None
    assert got == outcome(join_by_children_map, t1, t2)


@settings(max_examples=200, deadline=None)
@given(shape=shapes(), data=st.data())
def test_root_prepend_matches_the_children_map_oracle(shape, data):
    t = OrdinalTree.from_children(*shape)
    label = data.draw(st.sampled_from([0, "r", *t.nodes()]))  # 0 and "r" are never a node of shapes
    got = outcome(duality.root_prepend, label, t)
    assert t._rank is None
    assert got == outcome(root_prepend_by_children_map, label, t)


def test_quasi_subtree_examples(fix_t):
    for v in fix_t.nodes():
        assert duality.is_quasi_subtree(fix_t.subtree(v), fix_t)
    assert duality.is_quasi_subtree(fix_t, fix_t)
    host = OrdinalTree.from_children("r", {"r": ("x", "y")})
    flipped = OrdinalTree.from_children("r", {"r": ("y", "x")})
    assert not duality.is_quasi_subtree(flipped, host)
    with pytest.raises(ContractError):
        duality.is_quasi_subtree(OrdinalTree.from_children("z", {"z": ()}), host)


def test_quasi_subtree_holds_the_rightmost_child_below_the_root_only():
    host = OrdinalTree.from_children("r", {"r": ("x", "y"), "x": ("p", "q")})
    cut_below = OrdinalTree.from_children("r", {"r": ("x",), "x": ("p",)})
    assert not duality.is_quasi_subtree(cut_below, host)  # x's rightmost child is q in the host
    cut_at_root = OrdinalTree.from_children("r", {"r": ("x",), "x": ("p", "q")})
    assert duality.is_quasi_subtree(cut_at_root, host)  # the root's rightmost child is exempt


def test_dual_edge_violations_names_the_missing_edge():
    t = OrdinalTree.from_children(0, {0: (1, 4), 1: (2, 3), 4: (5, 6)})
    a = OrdinalTree.from_children(0, {0: (1,), 1: (2, 5), 5: (3,)})
    assert duality.dual_edge_violations(a, t) == [(5, 2)]
    assert duality.dual_edge_violations(t, t) == []


def test_join_all_needs_a_tree():
    with pytest.raises(ContractError, match=r"^need at least one tree to join$"):
        duality.join_all([])
    t = OrdinalTree.from_children("s", {"s": ("x",)})
    assert duality.join_all([t]) is t


def test_dual_involution_random():
    rng = random.Random(13)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 120))
        assert duality.dual(duality.dual(t)) == t


def dual_by_degrees(t):
    """The dual as it was built before the arithmetic one: its nodes in the
    dual's preorder with their dual child counts, through the waiting-stack
    pass that filled a tree's arrays from its degrees. The dual children of
    rank k > 0 are the nodes whose subtree ends just before it, k - 1 and its
    ancestors down to depth(k): depth(k - 1) + 1 - depth(k) of them. The
    root's are those whose subtree ends last, the depth(n - 1) non-root
    ancestors of rank n - 1."""
    order = t._order
    depth = t._depth.tolist()
    degree = [depth[-1], *map(sub, map((1).__add__, depth), islice(depth, 1, None))]
    return tree_of_degrees(order[:1] + order[:0:-1], degree[:1] + degree[:0:-1])


def tree_of_degrees(order, degrees):
    """The tree with preorder ``order`` whose nodes have ``degrees``
    children, in that order (its DFUDS, well formed)."""
    n = len(order)
    parent = [-1] * n
    depth = [0] * n
    waiting = [0] * degrees[0]  # a node's rank once per child still to attach
    for v, d in zip(range(1, n), islice(degrees, 1, None)):
        parent[v] = p = waiting.pop()
        depth[v] = depth[p] + 1
        if d:
            waiting += [v] * d
    size = [1] * n
    for v in range(n - 1, 0, -1):
        size[parent[v]] += size[v]
    return OrdinalTree(order, parent, depth, size)


def arrays(t):
    """A tree's preorder and its three rank-indexed arrays, as lists."""
    return list(t._order), list(t._parent), list(t._depth), list(t._size)


def dict_arrays(o):
    """The four arrays of the DictTree ``o``, read through its accessors."""
    order = list(o.nodes())
    parent = [o.dft(o.parent(v)) - 1 if v != o.root else -1 for v in order]
    return order, parent, [o.depth(v) for v in order], [o.subtree_size(v) for v in order]


def check_arithmetic_dual(t, o):
    """``dual(t)`` equals, array by array, the degree-pass dual, both local
    oracles and the dual of the DictTree ``o`` of the same tree, and its own
    dual is ``t``."""
    d = duality.dual(t)
    want = arrays(d)
    assert want == arrays(dual_by_degrees(t))
    assert want == arrays(duality._dual_by_rules(t)[0]) == arrays(duality._dual_by_right_neighbour(t))
    assert want == dict_arrays(dict_tree.dual(o))
    assert arrays(duality.dual(d)) == arrays(t)


@settings(max_examples=200, deadline=None)
@given(t=trees())
def test_one_pass_dual_matches_both_oracles(t):
    check_arithmetic_dual(t, dict_tree.DictTree.from_children(t.root, t.children_map()))
    d = duality.dual(t)
    rd = duality.reversed_dual(t)
    assert rd == duality.reverse(d) and rd.parent_map() == d.parent_map()


def test_dual_builds_without_navigate_or_validation(monkeypatch):
    # the dual of a star is a chain and the dual of a chain is a star
    wide, deep = star(5000), chain(*range(5001))
    cases = [(t, duality._dual_by_right_neighbour(t)) for t in (wide, deep)]

    def refuse(*args, **kwargs):
        raise AssertionError("the one-pass dual must not call this")

    monkeypatch.setattr(OrdinalTree, "navigate", refuse)
    monkeypatch.setattr(OrdinalTree, "from_children", refuse)
    for t, want in cases:
        d = duality.dual(t)
        assert d == want
        assert duality.reversed_dual(t) == duality.reverse(d)
    assert duality.dual(wide).children(2) == (1,)
    assert duality.dual(deep).children(0) == tuple(range(5000, 0, -1))
    assert duality.reversed_dual(deep).children(0) == tuple(range(1, 5001))


def test_dual_runs_no_degree_pass_and_makes_no_label_map(monkeypatch):
    made = (star(5000), chain(*range(5001)), random_tree(random.Random(4), 5000), chain("only"), relabel(star(30), str))
    cases = [(t, arrays(dual_by_degrees(t))) for t in made]

    def refuse(*args, **kwargs):
        raise AssertionError("the arithmetic dual must not call this")

    monkeypatch.setattr(OrdinalTree, "_from_depths", refuse)
    for t, want in cases:
        d = duality.dual(t)
        assert arrays(d) == want
        assert d._rank is None and t._rank is None


@settings(max_examples=200, deadline=None)
@given(shape=shapes())
def test_one_pass_reversed_dual_matches_reverse_of_dual_and_the_dict_oracle(shape):
    t = OrdinalTree.from_children(*shape)
    rd = duality.reversed_dual(t)
    want = duality.reverse(duality.dual(t))
    assert rd == want
    assert (rd._parent, rd._depth, rd._size) == (want._parent, want._depth, want._size)
    o = dict_tree.reversed_dual(dict_tree.DictTree.from_children(*shape))
    assert list(rd.nodes()) == list(o.nodes()) and rd.children_map() == o.children_map()
    for v in o.nodes():
        assert (rd.parent(v), rd.depth(v), rd.subtree_size(v)) == (o.parent(v), o.depth(v), o.subtree_size(v))
    assert codec.bp_encode(rd)[0] == codec.dfuds_encode(t)[0]


def test_reversed_dual_builds_without_dual_or_reverse(monkeypatch):
    wide, deep = star(5000), chain(*range(5001))
    cases = [(t, duality.reverse(duality.dual(t))) for t in (wide, deep)]

    def refuse(*args, **kwargs):
        raise AssertionError("the one-pass reversed dual must not call this")

    monkeypatch.setattr(duality, "dual", refuse)
    monkeypatch.setattr(duality, "reverse", refuse)
    for t, want in cases:
        rd = duality.reversed_dual(t)
        assert rd == want and rd._parent == want._parent and rd._depth == want._depth
    # the reversed dual of a star is a chain ending in leaf 1, of a chain a star
    assert list(duality.reversed_dual(wide).nodes()) == [0, *range(5000, 0, -1)]
    assert duality.reversed_dual(deep).children(0) == tuple(range(1, 5001))


def test_sibling_navigation_matches_list_index():
    rng = random.Random(17)
    wide = [star(3000), relabel(star(500), str)]
    shapes = wide + [relabel(random_tree(rng, rng.randint(1, 200)), lambda v: ("x", v)) for _ in range(30)]
    for t in shapes:
        for v in t.nodes():
            p = t.parent(v)
            if p is None:
                assert t.navigate(v, "ils") is None and t.navigate(v, "irs") is None
                continue
            sibs = list(t.children(p))
            k = sibs.index(v)
            assert t.navigate(v, "ils") == (sibs[k - 1] if k else None)
            assert t.navigate(v, "irs") == (sibs[k + 1] if k + 1 < len(sibs) else None)

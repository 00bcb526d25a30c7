import random

import pytest

from dualtree.errors import ContractError, ValidationError
from dualtree.randgen import random_tree
from dualtree.tree import OrdinalTree

from conftest import FIX_T_CHILDREN, ROOT


def fix_parent_maps():
    parents = {1: ROOT, 2: 1, 3: 2, 4: ROOT, 5: 4, 6: 4, 7: 4, 8: 7}
    orders = {ROOT: [1, 4], 1: [2], 2: [3], 4: [5, 6, 7], 7: [8]}
    return parents, orders


def test_build_fixture_depth_first_order():
    t = OrdinalTree.build(*fix_parent_maps())
    assert list(t.nodes()) == [ROOT, 1, 2, 3, 4, 5, 6, 7, 8]
    assert t == OrdinalTree.from_children(ROOT, FIX_T_CHILDREN)
    assert t == OrdinalTree.from_children(ROOT, {v: iter(k) for v, k in FIX_T_CHILDREN.items()})
    assert t.depth(ROOT) == 0
    assert t.depth(3) == 3
    assert t.dft(4) == 5


def test_build_single_node():
    t = OrdinalTree.build({}, {"x": []})
    assert t.root == "x"
    assert t.n_nodes == 1
    assert t.depth("x") == 0


def test_build_rejects_empty_tree():
    with pytest.raises(ValidationError, match="^a tree needs at least one node$"):
        OrdinalTree.build({}, {})


def test_build_rejects_cycle():
    with pytest.raises(ValidationError):
        OrdinalTree.build({"a": "b", "b": "a"}, {"a": ["b"], "b": ["a"]})


def test_build_rejects_side_cycle():
    with pytest.raises(ValidationError, match="a|b"):
        OrdinalTree.build({"a": "b", "b": "a", "c": None}, {"c": [], "a": ["b"], "b": ["a"]})


def test_build_rejects_multiple_roots():
    with pytest.raises(ValidationError, match="multiple roots"):
        OrdinalTree.build({"b": "a"}, {"a": ["b"], "c": []})


def test_build_rejects_order_parent_mismatch():
    parents, orders = fix_parent_maps()
    orders[1] = [2, 5]  # 5's parent entry says 4
    with pytest.raises(ValidationError, match="5"):
        OrdinalTree.build(parents, orders)


def test_build_rejects_missing_child_entry():
    with pytest.raises(ValidationError, match="b"):
        OrdinalTree.build({"b": "a"}, {"a": []})


def test_build_leaves_repeated_children_and_cycles_to_from_children():
    with pytest.raises(ValidationError, match=r"^node 'a' has duplicate children$"):
        OrdinalTree.build({"b": "a"}, {"a": ["b", "b"]})
    with pytest.raises(ValidationError) as err:
        OrdinalTree.build({"x": "y", "y": "x", "c": None}, {"c": [], "x": ["y"], "y": ["x"]})
    assert str(err.value) == "child lists given for unreachable nodes: ['x', 'y']"
    with pytest.raises(ValidationError) as err:
        OrdinalTree.from_children(0, {0: [], 2: [1], 1: [2]})
    assert str(err.value) == "child lists given for unreachable nodes: [1, 2]"


def test_from_children_rejects_repeated_and_shared_children():
    with pytest.raises(ValidationError, match=r"^node 'r' has duplicate children$"):
        OrdinalTree.from_children("r", {"r": ("a", "a")})
    with pytest.raises(ValidationError, match=r"^node 'b' appears twice \(cycle or shared child\)$"):
        OrdinalTree.from_children("r", {"r": ("a", "b"), "a": ("b",)})
    with pytest.raises(ValidationError, match=r"^node 'r' appears twice \(cycle or shared child\)$"):
        OrdinalTree.from_children("r", {"r": ("a",), "a": ("r",)})


def test_navigate_examples(fix_t):
    assert fix_t.navigate(4, "rmc") == 7
    assert fix_t.navigate(5, "ils") is None
    assert fix_t.navigate(ROOT, "parent") is None
    assert fix_t.navigate(4, "lmc") == 5
    assert fix_t.navigate(5, "irs") == 6
    with pytest.raises(ContractError):
        fix_t.navigate(99, "parent")
    with pytest.raises(ContractError):
        fix_t.navigate(4, "uncle")


def test_first_right_examples(fix_t):
    assert fix_t.first_right(2) == 4
    assert fix_t.first_right(8) is None
    assert fix_t.first_right(5) == 6
    with pytest.raises(ContractError):
        fix_t.first_right(ROOT)


def test_range_min_depth_examples(fix_t):
    assert fix_t.range_min_depth(2, 5) == (1, 4)
    assert fix_t.range_min_depth(5, 8) == (2, 7)
    assert fix_t.range_min_depth(6, 6) == (fix_t.depth(6), 6)
    with pytest.raises(ContractError):
        fix_t.range_min_depth(5, 2)
    with pytest.raises(ContractError):
        fix_t.range_min_depth(ROOT, 5)


def test_sibling_navigation_consistent():
    rng = random.Random(5)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 80))
        for v in t.nodes():
            irs = t.navigate(v, "irs")
            if irs is not None:
                assert t.navigate(irs, "ils") == v


def test_subtree_right_set_relations():
    rng = random.Random(17)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 80))
        nodes = list(t.nodes())
        for _ in range(20):
            v = nodes[rng.randrange(1, len(nodes))]
            u = t.parent(v)
            if u is None or u == t.root:
                continue
            # subtree nesting and right-set nesting for an ancestor pair
            assert t.in_subtree(v, u)
            r_u = {x for x in nodes if t.dft(x) > t.dft(u) and not t.in_subtree(x, u)}
            r_v = {x for x in nodes if t.dft(x) > t.dft(v) and not t.in_subtree(x, v)}
            assert r_u <= r_v
            assert all(t.in_subtree(x, u) or x in r_u for x in r_v)


def test_depth_split_identity():
    rng = random.Random(23)
    for _ in range(30):
        t = random_tree(rng, rng.randint(2, 60))
        nodes = list(t.nodes())[1:]
        for _ in range(15):
            ranks = sorted(rng.randint(2, t.n_nodes) for _ in range(3))
            v1, w, v2 = (t.node_at(r) for r in ranks)
            whole = t.range_min_depth(v1, v2)[0]
            left = t.range_min_depth(v1, w)[0]
            right = t.range_min_depth(w, v2)[0]
            assert whole == min(left, right)


def test_subtree_extraction(fix_t):
    sub = fix_t.subtree(4)
    assert sub.root == 4
    assert list(sub.nodes()) == [4, 5, 6, 7, 8]
    assert sub.children(7) == (8,)
    assert sub.depth(8) == 2


def _fresh(t):
    """A copy of ``t`` built from its maps, which has made no label map yet."""
    copy = OrdinalTree.from_children(t.root, t.children_map())
    assert copy._rank is None
    return copy


def test_has_node_answers_alike_before_and_after_the_label_map_exists():
    for t in (random_tree(random.Random(9), 40), OrdinalTree.from_children("a", {"a": ("b", "c"), "c": ("d",)})):
        labels = list(t.nodes())
        for v in [*labels, "x", 0, 41, None, ("a",)]:
            want = v in labels
            x = _fresh(t)
            assert x.has_node(v) == want and x._rank is not None
            assert x.has_node(v) == want


def test_unknown_labels_raise_the_same_contract_error_before_and_after_the_label_map_exists():
    t = random_tree(random.Random(10), 30)
    calls = (lambda x: x.dft("zz"), lambda x: x.navigate("zz", "parent"), lambda x: x.depth("zz"))
    for call in calls:
        for x in (_fresh(t), t):
            with pytest.raises(ContractError, match=r"^unknown node 'zz'$"):
                call(x)
            assert x._rank is not None

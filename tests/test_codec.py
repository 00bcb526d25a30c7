import random

import pytest

from dualtree import codec, duality
from dualtree.errors import ParseError
from dualtree.parens import ParenSeq
from dualtree.randgen import random_tree
from dualtree.tree import OrdinalTree

from conftest import FIX_BP, FIX_DFUDS, FIX_DFUDS_TSTAR, ROOT


def shape(t):
    relabel = {v: t.dft(v) for v in t.nodes()}
    return {relabel[v]: tuple(relabel[c] for c in t.children(v)) for v in t.nodes()}


def test_bp_encode_fixture(fix_t, fix_hat):
    p, m = codec.bp_encode(fix_t)
    assert p.to_string() == FIX_BP
    assert len(p) == 2 * fix_t.n_nodes
    assert codec.bp_encode(fix_hat)[0].to_string() == FIX_DFUDS
    single = OrdinalTree.from_children("r", {"r": ()})
    assert codec.bp_encode(single)[0].to_string() == "()"


def test_bp_map_nesting(fix_t):
    p, m = codec.bp_encode(fix_t)
    assert m.open_pos[ROOT] == 1 and m.close_pos[ROOT] == 18
    for v in fix_t.nodes():
        for w in fix_t.nodes():
            if w != v and fix_t.in_subtree(w, v):
                assert m.open_pos[v] < m.open_pos[w] < m.close_pos[w] < m.close_pos[v]


def test_dfuds_encode_fixture(fix_t, fix_tstar):
    p, m = codec.dfuds_encode(fix_t)
    assert p.to_string() == FIX_DFUDS
    assert codec.dfuds_encode(fix_tstar)[0].to_string() == FIX_DFUDS_TSTAR
    single = OrdinalTree.from_children("r", {"r": ()})
    assert codec.dfuds_encode(single)[0].to_string() == "()"


def test_dfuds_close_anchor_correspondence(fix_t):
    p, m = codec.dfuds_encode(fix_t)
    for v in fix_t.nodes():
        i = fix_t.dft(v) - 1
        if i == 0:
            assert m.anchor(v) == 1
        else:
            assert m.close_pos[v] == p.select(i, 0)
            assert m.anchor(v) == m.close_pos[v]


def test_decode_roundtrips(fix_t):
    bp, _ = codec.bp_encode(fix_t)
    assert shape(codec.bp_decode(bp)) == shape(fix_t)
    df, _ = codec.dfuds_encode(fix_t)
    assert shape(codec.dfuds_decode(df)) == shape(fix_t)
    assert shape(codec.bp_decode(FIX_BP)) == shape(fix_t)
    assert shape(codec.dfuds_decode(FIX_DFUDS)) == shape(fix_t)


def test_decode_parse_errors():
    with pytest.raises(ParseError):
        codec.bp_decode("())(")
    with pytest.raises(ParseError):
        codec.bp_decode("()()")  # forest, not a tree
    with pytest.raises(ParseError):
        codec.bp_decode("")
    err = None
    try:
        codec.bp_decode("())(")
    except ParseError as exc:
        err = exc
    assert err.position == 3
    with pytest.raises(ParseError):
        codec.dfuds_decode("()()")  # block after all children attached
    with pytest.raises(ParseError):
        codec.dfuds_decode(")(")


def test_mirror_examples():
    assert codec.mirror_string("(()") == "())"
    assert codec.mirror_string(")()") == "()("
    p = ParenSeq(FIX_DFUDS_TSTAR)
    assert codec.mirror(p).to_string() == FIX_BP
    rng = random.Random(2)
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 50))
        b, _ = codec.bp_encode(t)
        assert codec.mirror(codec.mirror(b)) == b


def test_mirror_string_digits_and_bad_characters():
    assert codec.mirror_string("1100") == "1100"
    assert codec.mirror_string("110") == "100"
    assert codec.mirror_string("") == ""
    for text, at in (("((x)", 3), (" ()", 1), ("()2", 3)):
        with pytest.raises(ParseError) as err:
            codec.mirror_string(text)
        assert err.value.position == at


def test_main_identity_random():
    rng = random.Random(0xD1A1)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 100))
        bp, _ = codec.bp_encode(t)
        dfuds_dual, _ = codec.dfuds_encode(duality.dual(t))
        assert codec.mirror(dfuds_dual) == bp


def test_bp_mirror_and_hat_identities_random():
    rng = random.Random(0xD1A2)
    for _ in range(60):
        t = random_tree(rng, rng.randint(1, 100))
        bp, _ = codec.bp_encode(t)
        assert codec.bp_encode(duality.reverse(t))[0] == codec.mirror(bp)
        assert codec.bp_encode(duality.reversed_dual(t))[0] == codec.dfuds_encode(t)[0]


def test_dfuds_mirror_claim_fails_on_small_tree():
    t = OrdinalTree.from_children("r", {"r": ("a", "b"), "a": ("c",)})
    lhs = codec.dfuds_encode(duality.reverse(t))[0]
    rhs = codec.mirror(codec.dfuds_encode(t)[0])
    assert lhs != rhs  # the DFUDS analogue of the mirror identity is false


def test_roundtrip_random():
    rng = random.Random(0xD1A3)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 120))
        assert shape(codec.bp_decode(codec.bp_encode(t)[0])) == shape(t)
        assert shape(codec.dfuds_decode(codec.dfuds_encode(t)[0])) == shape(t)


def test_tree_text_roundtrip(fix_t):
    text = codec.tree_to_text(fix_t)
    assert text.splitlines()[0] == codec.bp_encode(fix_t)[0].to_string()
    back = codec.tree_from_text(text)
    assert back.root == str(ROOT)
    assert shape(back) == shape(fix_t)
    named = OrdinalTree.from_children("r", {"r": ("left", "right"), "left": ()})
    assert codec.tree_from_text(codec.tree_to_text(named)) == named
    bare = codec.tree_from_text("(())\n")
    assert list(bare.nodes()) == [1, 2]
    with pytest.raises(ParseError):
        codec.tree_from_text("")
    with pytest.raises(ParseError):
        codec.tree_from_text("(())\nx\n")
    with pytest.raises(ParseError):
        codec.tree_from_text("(())\nx x\n")

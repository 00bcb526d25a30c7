import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import codec, duality
from dualtree.bitseq import BitSeq
from dualtree.errors import ParseError, ValidationError
from dualtree.parens import ParenSeq
from dualtree.randgen import random_tree
from dualtree.tree import OrdinalTree

from conftest import FIX_BP, FIX_DFUDS, FIX_DFUDS_TSTAR, ROOT, relabel, traced, trees


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


def test_bp_and_dfuds_decoders_accept_the_same_strings_and_read_t_hat():
    # The paper's characterization of T-hat on the decode side: a 0/1 string
    # is a BP exactly when it is a DFUDS, and read as a BP it is the tree
    # whose reversed dual it is read as a DFUDS. 2^17 - 1 strings of length
    # up to 16; the valid ones are the trees of 1 to 8 nodes, the Catalan
    # numbers C_0 + ... + C_7.
    def decoded(decode, text):
        try:
            return decode(text)
        except ParseError:
            return None

    valid = 0
    for length in range(17):
        for k in range(1 << length):
            text = format(k, "b").zfill(length) if length else ""
            bp, df = decoded(codec.bp_decode, text), decoded(codec.dfuds_decode, text)
            assert (bp is None) == (df is None), text
            if bp is not None:
                valid += 1
                assert shape(bp) == shape(duality.reversed_dual(df)), text
    assert valid == 1 + 1 + 2 + 5 + 14 + 42 + 132 + 429


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


def test_repeated_text_labels_are_refused_and_distinct_ones_make_no_label_map():
    for text in ("(()())\na b a\n", "((()))\nx y y\n", "(()(()))\nr s t s\n"):
        with pytest.raises(ParseError, match=r"^labels are not unique$"):
            codec.tree_from_text(text)
    t = codec.tree_from_text("(()())\na b c\n")
    assert t._rank is None
    assert t.children("a") == ("b", "c") and t.dft("c") == 3


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


def test_tree_to_text_refuses_labels_that_do_not_read_back():
    blank = "label {!r} cannot be written as text: {!r} is empty or holds whitespace"
    twice = "label {!r} cannot be written as text: an earlier label is also written {!r}"
    cases = [({"r": ("a b", "c")}, blank.format("a b", "a b")),
             ({"r": ("c", ""), "c": ("d e",)}, blank.format("d e", "d e")),
             ({"r": ("c", "")}, blank.format("", "")),
             ({"r": (1, "x", "1")}, twice.format("1", "1")),
             ({"r": ("x\ty",)}, blank.format("x\ty", "x\ty")),
             ({"r": ("1", 2), 2: (1,)}, twice.format(1, "1"))]
    for children, message in cases:
        t = OrdinalTree.from_children("r", children)
        with pytest.raises(ValidationError) as caught:
            codec.tree_to_text(t)
        assert str(caught.value) == message
    assert codec.tree_to_text(OrdinalTree.from_children("r", {"r": ("é", 2, "2x")})) == "(()()())\nr é 2 2x\n"


def test_decoders_reject_bits_other_than_zero_and_one():
    for decode, bits, at in ((codec.bp_decode, [1, 2, 0, 0], 2), (codec.dfuds_decode, [1, 7, 0, 0], 2),
                             (codec.bp_decode, [1, 0, -1], 3), (codec.dfuds_decode, [1, 0.5, 0], 2),
                             (codec.bp_decode, [1, "1", 0, 0], 2)):
        with pytest.raises(ParseError) as err:
            decode(bits)
        assert err.value.position == at
        assert str(err.value) == f"unexpected bit {bits[at - 1]!r} (position {at})"
    assert shape(codec.bp_decode([True, 1, 0, False])) == {1: (2,), 2: ()}
    assert shape(codec.dfuds_decode([1, 1.0, 0, 0])) == {1: (2,), 2: ()}


# -- the per-node stack codecs the bulk ones replaced, kept as the oracle ----------


def oracle_bp_encode(t):
    """(ParenSeq, dft, open_pos, close_pos) by a stack walk of the tree."""
    bits, dft, open_pos, close_pos = [], {}, {}, {}
    stack = [(t.root, False)]
    while stack:
        v, leaving = stack.pop()
        if leaving:
            bits.append(0)
            close_pos[v] = len(bits)
            continue
        bits.append(1)
        open_pos[v] = len(bits)
        dft[v] = len(dft) + 1
        stack.append((v, True))
        for c in reversed(t.children(v)):
            stack.append((c, False))
    return ParenSeq(bits), dft, open_pos, close_pos


def oracle_dfuds_encode(t):
    """(ParenSeq, dft, None, close_pos) by a stack walk of the tree."""
    bits, dft, close_pos = [1], {}, {}
    stack = [t.root]
    while stack:
        v = stack.pop()
        dft[v] = len(dft) + 1
        if dft[v] > 1:
            close_pos[v] = len(bits)
        bits.extend([1] * len(t.children(v)))
        bits.append(0)
        for c in reversed(t.children(v)):
            stack.append(c)
    return ParenSeq(bits), dft, None, close_pos


def oracle_bits(p):
    if isinstance(p, BitSeq):
        return list(p.iter_bits())
    if isinstance(p, str):
        out = []
        for x, c in enumerate(p, start=1):
            if c in "(1":
                out.append(1)
            elif c in ")0":
                out.append(0)
            else:
                raise ParseError(f"unexpected character {c!r}", x)
        return out
    return list(p)


def oracle_bp_decode(p):
    bits = oracle_bits(p)
    children = {}
    stack = []
    count = 0
    for x, b in enumerate(bits, start=1):
        if b:
            count += 1
            children[count] = []
            if stack:
                children[stack[-1]].append(count)
            elif count > 1:
                raise ParseError("second tree starts after the first closed", x)
            stack.append(count)
        else:
            if not stack:
                raise ParseError("closing parenthesis without a match", x)
            stack.pop()
    if stack:
        raise ParseError(f"{len(stack)} opening parentheses left unmatched", len(bits))
    if count == 0:
        raise ParseError("empty sequence", 1)
    return OrdinalTree.from_children(1, {v: tuple(k) for v, k in children.items()})


def oracle_dfuds_decode(p):
    bits = oracle_bits(p)
    if not bits:
        raise ParseError("empty sequence", 1)
    if bits[0] != 1:
        raise ParseError("must start with the balancing opening parenthesis", 1)
    children = {}
    pending = []  # (node, remaining children), top has remaining > 0
    x = 1
    node = 0
    total = len(bits)
    while x < total:
        node += 1
        if node > 1:
            if not pending:
                raise ParseError("block starts after all children were attached", x + 1)
            parent = pending[-1][0]
            children[parent].append(node)
            pending[-1][1] -= 1
            if pending[-1][1] == 0:
                pending.pop()
        degree = 0
        while x < total and bits[x] == 1:
            degree += 1
            x += 1
        if x == total:
            raise ParseError("degree block not terminated by a closing parenthesis", x)
        x += 1
        children[node] = []
        if degree:
            pending.append([node, degree])
    if pending:
        raise ParseError("children promised but sequence ended", total)
    if node == 0:
        raise ParseError("no nodes encoded", 1)
    return OrdinalTree.from_children(1, {v: tuple(k) for v, k in children.items()})


def oracle_tree_to_text(t):
    return oracle_bp_encode(t)[0].to_string() + "\n" + " ".join(str(v) for v in t.nodes()) + "\n"


def oracle_tree_from_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("no parenthesis line", 1)
    if len(lines) > 2:
        raise ParseError("text after the label line")
    t = oracle_bp_decode(lines[0].strip())
    if len(lines) == 1:
        return t
    labels = lines[1].split()
    if len(labels) != t.n_nodes:
        raise ParseError(f"label line has {len(labels)} entries for {t.n_nodes} nodes")
    relabel = dict(zip(t.nodes(), labels))
    if len(set(labels)) != len(labels):
        raise ParseError("labels are not unique")
    children = {relabel[v]: tuple(relabel[c] for c in t.children(v)) for v in t.nodes()}
    return OrdinalTree.from_children(relabel[t.root], children)


def dfuds_outcome(arg):
    """What the DFUDS oracle gives for ``arg``, its error named as the BP
    oracle names it: a DFUDS is the BP of a tree, so the decoder checks it as
    one, and both oracles fail at the same position."""
    got = outcome(oracle_dfuds_decode, arg)
    if got[0] == "tree":
        return got
    return "error", outcome(oracle_bp_decode, arg)[1], got[2]


def outcome(fn, arg):
    """What ``fn(arg)`` gives: the tree's root, maps and preorder, or the
    ParseError's message and position."""
    try:
        t = fn(arg)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "tree", t.root, t.children_map(), t.parent_map(), list(t.nodes())


@settings(max_examples=200, deadline=None)
@given(t=trees())
def test_bulk_codecs_match_the_stack_oracle(t):
    for encode, oracle, kind in ((codec.bp_encode, oracle_bp_encode, codec.BP),
                                 (codec.dfuds_encode, oracle_dfuds_encode, codec.DFUDS)):
        p, m = encode(t)
        want, dft, open_pos, close_pos = oracle(t)
        assert p == want
        assert (m.kind, m.dft, m.open_pos, m.close_pos) == (kind, dft, open_pos, close_pos)
        for v in t.nodes():
            assert m.anchor(v) == (open_pos[v] if kind == codec.BP else close_pos.get(v, 1))
    bp, df = oracle_bp_encode(t)[0], oracle_dfuds_encode(t)[0]
    for form in (bp, bp.to_string(), bp.to_text(), list(bp.iter_bits()), BitSeq(bp.to_text())):
        assert outcome(codec.bp_decode, form) == outcome(oracle_bp_decode, form)
    for form in (df, df.to_string(), list(df.iter_bits()), BitSeq(df.to_text())):
        assert outcome(codec.dfuds_decode, form) == outcome(oracle_dfuds_decode, form)
    text = codec.tree_to_text(t)
    assert text == oracle_tree_to_text(t)
    assert outcome(codec.tree_from_text, text) == outcome(oracle_tree_from_text, text)
    assert outcome(codec.tree_from_text, text.splitlines()[0]) == outcome(oracle_tree_from_text, text.splitlines()[0])
    if all(isinstance(v, str) for v in t.nodes()):
        back = codec.tree_from_text(text)
        assert back == t and back.parent_map() == t.parent_map()


def long_runs():
    """Trees of 3000 nodes whose runs are long: a star (one run of 2999
    openers in its DFUDS, of 3000 closers at the end of its BP), a chain, a
    broom (a chain of 1500 nodes ending in a star of 1500 leaves) and a
    random tree."""
    n = 3000
    half = n // 2
    broom = {v: (v + 1,) for v in range(1, half)}
    broom[half] = tuple(range(half + 1, n + 1))
    return [OrdinalTree.from_children(1, {1: tuple(range(2, n + 1))}),
            OrdinalTree.from_children(1, {v: (v + 1,) for v in range(1, n)}),
            OrdinalTree.from_children(1, broom),
            random_tree(random.Random(3000), n)]


@pytest.mark.parametrize("t", long_runs(), ids=["star", "chain", "broom", "random"])
def test_bulk_writers_match_the_stack_oracle_on_long_runs(t):
    assert codec.bp_encode(t)[0] == oracle_bp_encode(t)[0]
    assert codec.dfuds_encode(t)[0] == oracle_dfuds_encode(t)[0]
    assert codec.tree_to_text(t) == oracle_tree_to_text(t)


def test_bp_writer_holds_no_list_of_its_own():
    # the text's 2 B per node, and the one join's pointer per node
    n = 10**5
    t = OrdinalTree.from_children(1, {v: (v + 1,) for v in range(1, n)})
    text, _, peak = traced(lambda: codec._bp_of_depths(t._depth))
    assert text == "1" * n + "0" * n
    assert peak <= 16 * n


@st.composite
def damaged(draw, text):
    """``text`` truncated, with one character flipped, dropped or inserted,
    or with two neighbours swapped."""
    k = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["truncate", "flip", "drop", "insert", "swap"]))
    if how == "truncate":
        return text[:k]
    if how == "insert":
        return text[:k] + draw(st.sampled_from("()01x ")) + text[k:]
    if k == len(text):
        return text
    if how == "flip":
        return text[:k] + codec.mirror_string(text[k]) + text[k + 1:]
    if how == "drop":
        return text[:k] + text[k + 1:]
    return text[:k] + text[k + 1:k + 2] + text[k] + text[k + 2:]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=trees())
def test_damaged_encodings_give_the_oracle_parse_error(data, t):
    for text in (codec.bp_encode(t)[0].to_string(), codec.dfuds_encode(t)[0].to_string()):
        bad = data.draw(damaged(text))
        for new, old in ((codec.bp_decode, partial(outcome, oracle_bp_decode)), (codec.dfuds_decode, dfuds_outcome)):
            assert outcome(new, bad) == old(bad)
            if "x" not in bad and " " not in bad:
                bits = [int(c in "(1") for c in bad]
                assert outcome(new, bits) == old(bits)


@settings(max_examples=300, deadline=None)
@given(text=st.text("()01", max_size=12))
def test_short_sequences_give_the_oracle_outcome(text):
    assert outcome(codec.bp_decode, text) == outcome(oracle_bp_decode, text)
    assert outcome(codec.dfuds_decode, text) == dfuds_outcome(text)
    assert outcome(codec.tree_from_text, text) == outcome(oracle_tree_from_text, text)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=trees())
def test_damaged_tree_text_gives_the_oracle_parse_error(data, t):
    bp_line, label_line = codec.tree_to_text(t).splitlines()
    labels = label_line.split()
    how = data.draw(st.sampled_from(["bp", "drop", "extra", "repeat", "blank", "trailing"]))
    k = data.draw(st.integers(0, len(labels) - 1))
    tail = ""
    if how == "bp":
        bp_line = data.draw(damaged(bp_line))
    elif how == "drop":
        del labels[k]
    elif how == "extra":
        labels.insert(k, "new")
    elif how == "repeat":
        labels[k] = labels[data.draw(st.integers(0, len(labels) - 1))]
    elif how == "blank":
        labels = []
    else:
        tail = data.draw(st.sampled_from(["GARBAGE", "x y", label_line, bp_line])) + "\n"
    text = bp_line + "\n" + " ".join(labels) + "\n" + tail
    assert outcome(codec.tree_from_text, text) == outcome(oracle_tree_from_text, text)
    if how == "trailing":
        with pytest.raises(ParseError, match="^text after the label line$"):
            codec.tree_from_text(text)


def test_codecs_build_no_paren_seq_or_checked_tree_they_do_not_return(monkeypatch):
    t = random_tree(random.Random(5), 3000)
    named = relabel(t, lambda v: f"v{v}")
    bp, df, text = codec.bp_encode(t)[0], codec.dfuds_encode(t)[0], codec.tree_to_text(named)

    def refuse(*args, **kwargs):
        raise AssertionError("the bulk codecs must not call this")

    monkeypatch.setattr(OrdinalTree, "from_children", refuse)
    assert shape(codec.bp_decode(bp)) == shape(t)
    assert shape(codec.dfuds_decode(df)) == shape(t)
    back = codec.tree_from_text(text)
    assert back == named and back.parent_map() == named.parent_map()
    assert shape(codec.tree_from_text(text.splitlines()[0])) == shape(t)
    monkeypatch.setattr(ParenSeq, "__init__", refuse)
    assert codec.tree_to_text(named) == text


def test_encoders_build_each_node_map_on_first_read(fix_t):
    for encode in (codec.bp_encode, codec.dfuds_encode):
        _, m = encode(fix_t)
        assert (m._dft, m._open, m._close) == (None, None, None)
        assert m.dft[ROOT] == 1
        assert m._dft is not None and (m._open, m._close) == (None, None)
        m.close_pos
        assert m._close is not None
    _, m = codec.bp_encode(fix_t)
    m.open_pos
    assert m._open is not None and (m._dft, m._close) == (None, None)
    _, m = codec.dfuds_encode(fix_t)
    assert m.open_pos is None and m._open is None
    assert m == codec.dfuds_encode(fix_t)[1] != codec.bp_encode(fix_t)[1]

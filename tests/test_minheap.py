import gc
import random
import tracemalloc
from array import array
from decimal import Decimal, InvalidOperation
from itertools import islice
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import codec, duality, index_io, mliq, rmq
from dualtree.errors import ContractError
from dualtree.minheap import ROOT_LABEL, build_minheap, heap_dfuds, reversal_dual_check
from dualtree.parens import ParenSeq
from dualtree.randgen import random_array, random_distinct_array
from dualtree.tree import OrdinalTree

from conftest import FIX_A, FIX_DFUDS, FIX_T_CHILDREN, traced


def test_fixture_array(fix_t):
    h = build_minheap(FIX_A)
    assert h.tree == fix_t
    assert h.dfuds.to_string() == FIX_DFUDS
    assert h.n == 8
    assert h.value(4) == 1


def test_increasing_gives_chain():
    h = build_minheap([1, 2, 3])
    assert h.tree == OrdinalTree.from_children(ROOT_LABEL, {ROOT_LABEL: (1,), 1: (2,), 2: (3,)})


def test_decreasing_gives_fan():
    h = build_minheap([3, 2, 1])
    assert h.tree == OrdinalTree.from_children(ROOT_LABEL, {ROOT_LABEL: (1, 2, 3)})


def test_ties_attach_rightward():
    h = build_minheap([5, 5, 5])
    assert h.tree.children(1) == (2,)
    assert h.tree.children(2) == (3,)


def test_empty_rejected():
    with pytest.raises(ContractError):
        build_minheap([])


NAN = float("nan")


@pytest.mark.parametrize("values, position", [
    ([1.0, NAN, 0.5], 2),  # the engines answered 2 for (1, 2) and the scan 1
    ([NAN, 1.0, 0.5], 1),
    ([0.5, 1.0, NAN], 3),
    ([NAN, NAN, NAN], 1),
    ((2, 1, NAN, NAN), 3),
    (array("d", [3.0, 1.0, 2.0, NAN]), 4),
])
def test_a_value_not_equal_to_itself_is_rejected_by_position(values, position):
    with pytest.raises(ContractError, match=rf"^value at position {position} is not equal to itself: nan$"):
        build_minheap(values)


@pytest.mark.parametrize("values, message, cause", [
    ([1, "a"], "values do not order: TypeError: '>=' not supported between instances of 'str' and 'int'", TypeError),
    ([object(), object()], "values do not order: TypeError: '>=' not supported between instances of 'object' and "
                           "'object'", TypeError),
    ([Decimal(1), Decimal("NaN"), Decimal(0)], "value at position 2 is not equal to itself: Decimal('NaN')",
     InvalidOperation),
])
def test_a_comparison_that_raises_is_a_contract_error(values, message, cause):
    with pytest.raises(ContractError) as info:
        build_minheap(values)
    assert str(info.value) == message
    assert type(info.value.__cause__) is cause


def test_infinities_and_signed_zeros_are_ordered_values():
    inf = float("inf")
    h = build_minheap([inf, 0.0, -0.0, -inf, inf])
    assert rmq.rmq_direct(h, 1, 5) == rmq.rmq_scan(h, 1, 5) == 4
    assert rmq.rmq_direct(h, 1, 3) == rmq.rmq_scan(h, 1, 3) == 2


def test_depth_first_is_array_order():
    rng = random.Random(0x2D)
    for _ in range(50):
        n = rng.randint(1, 200)
        h = build_minheap(random_array(rng, n))
        assert list(h.tree.nodes()) == [ROOT_LABEL] + list(range(1, n + 1))


def test_heap_property():
    rng = random.Random(0x2E)
    for _ in range(50):
        n = rng.randint(1, 200)
        h = build_minheap(random_array(rng, n))
        for v in h.tree.nodes():
            p = h.tree.parent(v)
            if p not in (None, ROOT_LABEL):
                assert h.value(p) <= h.value(v)


def test_reversal_dual_fixture_and_small():
    assert reversal_dual_check(FIX_A)
    assert reversal_dual_check([1])


def test_reversal_dual_random():
    rng = random.Random(0x2F)
    for _ in range(60):
        assert reversal_dual_check(random_distinct_array(rng, rng.randint(1, 150)))


def test_reversal_dual_check_builds_no_third_tree(monkeypatch):
    rng = random.Random(0x30)
    arrays = [FIX_A, [1], [2, 1], *(random_distinct_array(rng, rng.randint(1, 300)) for _ in range(40))]

    def refuse(*args, **kwargs):
        raise AssertionError("the check compares the preorder arrays it has")

    monkeypatch.setattr(OrdinalTree, "from_children", refuse)
    for values in arrays:
        assert reversal_dual_check(values)
    with pytest.raises(ContractError):
        reversal_dual_check([3, 1, 3])
    # with the dual swapped for another tree, the check answers no
    monkeypatch.setattr(duality, "dual", duality.reversed_dual)
    assert not reversal_dual_check(FIX_A)
    monkeypatch.setattr(duality, "dual", lambda t: t)
    assert not reversal_dual_check([1, 2])


def test_reversal_dual_rejects_duplicates():
    with pytest.raises(ContractError):
        reversal_dual_check([3, 1, 3])


def test_generic_value_types():
    by_float = build_minheap([2.5, 0.5, 1.25])
    assert by_float.tree.children(ROOT_LABEL) == (1, 2)
    by_str = build_minheap(["pear", "apple", "melon"])
    assert by_str.tree.parent(3) == 2
    rng = random.Random(9)
    ints = random_array(rng, 40)
    floats = [float(v) for v in ints]
    assert build_minheap(ints).tree == build_minheap(floats).tree


def test_node_index_maps():
    h = build_minheap(FIX_A)
    assert h.node_of(3) == 3
    assert h.index_of(3) == 3
    with pytest.raises(ContractError):
        h.node_of(0)
    with pytest.raises(ContractError):
        h.node_of(9)
    with pytest.raises(ContractError):
        h.index_of(ROOT_LABEL)


def test_value_takes_positions_1_to_n_and_needs_the_values():
    h = build_minheap([5, 3, 8])
    assert [h.value(i) for i in (1, 2, 3)] == [5, 3, 8]
    for i in (0, -1, 4):
        with pytest.raises(ContractError, match=rf"^position {i} outside 1\.\.3$"):
            h.value(i)
    without = mliq.build_intervals([(0, 4), (2, 5)]).heap
    assert without.values is None and without.n == 2
    with pytest.raises(ContractError, match=r"^the heap holds no values$"):
        without.value(1)


def heap_by_children(values):
    """The heap built the original way: an explicit children dict from the
    spine pass, then OrdinalTree.from_children. The oracle for the fast build."""
    children = {ROOT_LABEL: []}
    spine = []
    for pos, val in enumerate(values, start=1):
        while spine and spine[-1][1] > val:
            spine.pop()
        parent = spine[-1][0] if spine else ROOT_LABEL
        children.setdefault(parent, []).append(pos)
        children.setdefault(pos, [])
        spine.append((pos, val))
    return OrdinalTree.from_children(ROOT_LABEL, {v: tuple(k) for v, k in children.items()})


def oracle_arrays():
    rng = random.Random(0x0DF5)
    yield [1, 2, 3, 4, 5, 6, 7]
    yield [7, 6, 5, 4, 3, 2, 1]
    yield [4] * 9
    yield [1]
    yield FIX_A
    for _ in range(40):
        yield random_array(rng, rng.randint(1, 300), span=rng.choice([2, 5, 50]))
    yield [rng.uniform(-1, 1) for _ in range(200)]
    yield [rng.choice(["fig", "kiwi", "lime", "pear", "plum"]) for _ in range(150)]


def test_fast_dfuds_matches_the_encoded_tree():
    for values in oracle_arrays():
        h = build_minheap(values)
        oracle = heap_by_children(values)
        assert h.dfuds == codec.dfuds_encode(oracle)[0]
        assert h.dfuds == codec.dfuds_encode(h.tree)[0]
        assert h.tree == oracle
        assert h.tree.parent_map() == oracle.parent_map()
        assert list(h.tree.nodes()) == list(oracle.nodes())


def test_tree_is_decoded_once_on_demand():
    h = build_minheap(FIX_A)
    assert h._tree is None
    t = h.tree
    assert h.tree is t
    assert [h.tree.depth(v) for v in t.nodes()] == [heap_by_children(FIX_A).depth(v) for v in t.nodes()]


def test_heap_answers_tree_rank_questions():
    h = build_minheap(FIX_A)
    t = heap_by_children(FIX_A)
    assert h.root == t.root
    for v in t.nodes():
        assert h.dft(v) == t.dft(v)
        assert h.node_at(t.dft(v)) == v


def degrees_left_to_right(values):
    """Preorder degrees of the heap by the left-to-right spine pass the build
    used before: each position is counted as a child of the last spine
    position whose value is <= its own. The oracle for the right-to-left pass."""
    degree = [0] * (len(values) + 1)
    spine_pos = []  # rightmost path, values non-decreasing
    spine_val = []
    for pos, val in enumerate(values, start=1):
        while spine_val and spine_val[-1] > val:
            spine_val.pop()
            spine_pos.pop()
        degree[spine_pos[-1] if spine_pos else ROOT_LABEL] += 1
        spine_pos.append(pos)
        spine_val.append(val)
    return degree


def value_arrays():
    """Random ints with many ties, monotone and all-equal arrays, floats and strings."""
    size = st.integers(1, 300)
    return st.one_of(
        st.lists(st.integers(-4, 4), min_size=1, max_size=300),
        st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=300),
        size.map(lambda n: list(range(n))),
        size.map(lambda n: list(range(n, 0, -1))),
        st.tuples(size, st.integers(-3, 3)).map(lambda p: [p[1]] * p[0]),
        st.lists(st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 1)), min_size=1, max_size=300),
        st.lists(st.sampled_from(["fig", "kiwi", "lime", "pear", "plum"]), min_size=1, max_size=300),
    )


@settings(max_examples=300, deadline=None)
@given(values=value_arrays())
def test_right_to_left_pass_gives_the_dfuds_of_the_left_to_right_pass(values):
    want = "1" + "".join("1" * d + "0" for d in degrees_left_to_right(values))
    assert build_minheap(values).dfuds.to_text() == want


TEXT_CHUNK = 1 << 10


class Pieces(dict):
    """The DFUDS piece of a degree d, its run of d ones and a zero, made on
    first use."""

    def __missing__(self, d):
        self[d] = piece = "1" * d + "0"
        return piece


def degrees_from_the_right(values):
    """The heap's degrees in reverse preorder, the root's last, by the
    right-to-left pass over the values that ``values`` yields last to first:
    the number each value pops is its position's degree. The pass the build
    ran before it wrote the DFUDS itself; with ``dfuds_of_reversed_degrees``
    the oracle for ``heap_dfuds``."""
    pending = []
    for val in values:
        d = 0
        while pending and pending[-1] >= val:
            pending.pop()
            d += 1
        yield d
        pending.append(val)
    yield len(pending)


def dfuds_of_reversed_degrees(degrees):
    """DFUDS text of the tree whose degrees in reverse preorder ``degrees``
    yields, the pieces of ``TEXT_CHUNK`` nodes joined at a time."""
    pieces = Pieces()
    degrees = iter(degrees)
    chunks = []
    while chunk := list(islice(degrees, TEXT_CHUNK)):
        chunk.reverse()
        chunks.append("".join(map(pieces.__getitem__, chunk)))
    chunks.append("1")
    chunks.reverse()
    return "".join(chunks)


def oracle_dfuds(values_from_the_right):
    return ParenSeq(dfuds_of_reversed_degrees(degrees_from_the_right(values_from_the_right)))


def feeds(values):
    """The ways the callers hand ``heap_dfuds`` its values, last to first:
    a list's and an array's reversed iterators, a generator, and a ``map``
    (the interval index's lengths)."""
    yield reversed(values)
    try:
        yield reversed(array("q", values))
    except (TypeError, OverflowError):
        pass
    yield (v for v in values[::-1])
    if all(type(v) is int for v in values):
        yield map(sub, reversed(values), [0] * len(values))


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(
    st.lists(st.integers(0, 3), max_size=2500),  # many ties, across chunks
    st.integers(0, 2500).map(lambda n: list(range(n))),
    st.integers(0, 2500).map(lambda n: list(range(n, 0, -1))),
    st.integers(0, 2500).map(lambda n: [7] * n),
    st.lists(st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 1)), max_size=300),
    st.lists(st.sampled_from(["fig", "kiwi", "lime", "pear", "plum"]), max_size=300),
))
def test_heap_dfuds_writes_what_the_degree_pass_and_chunked_writer_wrote(values):
    want = oracle_dfuds(reversed(values)).to_text()
    for given_as in feeds(values):
        assert heap_dfuds(given_as).to_text() == want


def test_no_values_give_the_root_alone():
    for empty in ([], iter(()), array("q"), map(sub, [], [])):
        assert heap_dfuds(empty).to_text() == "10"


@pytest.mark.parametrize("held_as", ["list", "array"])
@pytest.mark.parametrize("shape", ["random", "increasing", "decreasing"])
def test_heap_dfuds_peaks_no_higher_than_the_degree_pass_did(shape, held_as):
    # Tracemalloc at 10^5 values, in bytes per value. Written by the degree
    # pass and the chunked writer, the DFUDS peaked at 6.92 (random and
    # increasing), 9.29 (a decreasing list, whose pending stack grows to n)
    # and 41.18 (a decreasing array, whose pending values are each a new
    # int); written by the pass into one bytearray, 6.88, 9.07 and 40.99.
    # Either way 2.8 are held, the bits and their tables. A bytearray freed
    # only after the ParenSeq is built, or a stack alive while it is decoded,
    # would peak above the old writer.
    n = 100_000
    values = {
        "random": random_array(random.Random(0xDF), n),
        "increasing": list(range(n)),
        "decreasing": list(range(n, 0, -1)),
    }[shape]
    if held_as == "array":
        values = array("q", values)
    _, _, old_peak = traced(lambda: oracle_dfuds(reversed(values)))
    _, held, peak = traced(lambda: heap_dfuds(reversed(values)))
    assert peak <= old_peak, (peak / n, old_peak / n)
    assert held <= 3 * n, held / n


I64_MAX = (1 << 63) - 1


def test_signed_64_bit_ints_are_held_in_a_typed_copy():
    extremes = [I64_MAX, -I64_MAX - 1]
    for values, want in ((FIX_A, FIX_A), (array("q", FIX_A), FIX_A), (iter(FIX_A), FIX_A),
                         (tuple(FIX_A), FIX_A), (extremes, extremes)):
        h = build_minheap(values)
        assert type(h.values) is array and h.values.typecode == "q"
        assert h.values.tolist() == want
    caller = array("q", FIX_A)
    h = build_minheap(caller)
    caller[3] = 99
    assert h.values is not caller and h.value(4) == 1


def test_bools_are_held_as_ints():
    h = build_minheap([True, False, True])
    assert h.values.typecode == "q"
    assert h.value(1) == 1 and type(h.value(1)) is int
    assert h.value(2) == 0 and type(h.value(2)) is int
    assert rmq.rmq_direct(h, 1, 3) == 2


def test_values_a_typed_table_cannot_hold_keep_a_list():
    rng = random.Random(0x71A)
    families = [
        [rng.uniform(-5, 5) for _ in range(300)],
        [rng.choice(["fig", "kiwi", "lime", "pear"]) for _ in range(300)],
        [rng.randint(-3, 3) * (1 << 63) + rng.randint(-2, 2) for _ in range(300)],  # past signed 64 bits
        [rng.randint(-3, 3) for _ in range(299)] + [1.5],  # one float among ints
    ]
    for values in families:
        h = build_minheap(values)
        assert type(h.values) is list and h.values == values and h.values is not values
        for _ in range(200):
            i = rng.randint(1, h.n)
            j = rng.randint(i, h.n)
            want = rmq.rmq_scan(h, i, j)
            assert rmq.rmq_direct(h, i, j) == rmq.rmq_checked(h, i, j) == rmq.rmq_ancestor(h, i, j) == want


@pytest.mark.parametrize("shape", ["random", "increasing", "decreasing"])
@pytest.mark.parametrize("made_by", ["build", "load"])
def test_index_holds_fixed_bytes_per_value_at_any_depth(tmp_path, made_by, shape):
    # The values (array('q'), 8 B), the excess (a bytearray of its values
    # relative to each 64-bit block's start, 2 entries of 1 B each), the
    # bits with their rank tables and the block tables hold about 15-16.5 B
    # per value whatever the heap's depth.
    # With the excess an array('I') they held 21-22 B; with list-held values
    # and excess a build held 32 B on random and increasing input and 95 B on
    # a decreasing one, whose excess entries are each an int object; a load
    # made every value an int object too.
    n = 100_000
    values = {
        "random": random_array(random.Random(0x5EED), n),
        "increasing": list(range(n)),
        "decreasing": list(range(n, 0, -1)),
    }[shape]
    path = str(tmp_path / "a.idx")
    if made_by == "load":
        index_io.save_array_index(path, build_minheap(values))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = build_minheap(values) if made_by == "build" else index_io.load_array_index(path)
        h.dfuds.block_tables()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.n == n
    assert held <= 18 * n, held / n

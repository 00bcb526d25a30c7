import gc
import math
import random
import struct
import tracemalloc
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import codec, index_io, parens
from dualtree.errors import ContractError, RangeError, ValidationError
from dualtree.minheap import build_minheap
from dualtree.parens import CLOSE_WEIGHTS, OPEN_WEIGHTS, ParenSeq, WeightedBits
from dualtree.randgen import random_array, random_tree

from conftest import FIX_BP, FIX_DFUDS, Counted, chain, star


def random_balanced(rng, pairs):
    """Random balanced sequence of `pairs` opening and closing parentheses."""
    out = []
    opens = pairs
    closes = pairs
    depth = 0
    while opens or closes:
        if opens and (depth == 0 or rng.random() < opens / (opens + closes)):
            out.append(1)
            opens -= 1
            depth += 1
        else:
            out.append(0)
            closes -= 1
            depth -= 1
    return out


def match_oracle(bits):
    """Stack matching: position -> partner position, 1-based."""
    partner = {}
    stack = []
    for x, b in enumerate(bits, start=1):
        if b:
            stack.append(x)
        else:
            y = stack.pop()
            partner[x] = y
            partner[y] = x
    return partner


def rmq_oracle(exc, l, r):
    """Leftmost position of the minimum excess in [l, r]."""
    return min(range(l, r + 1), key=exc.__getitem__)


def weight_tables(weights):
    """The (positions, cumulative weights) tables of a position -> weight mapping."""
    positions = sorted(weights)
    return array("q", positions), array("q", accumulate(map(weights.get, positions)))


def weighted(bits, open_weights=None, close_weights=None):
    """A WeightedBits over ``bits`` whose sides are given as mappings."""
    sides = [None if w is None else weight_tables(w) for w in (open_weights, close_weights)]
    return WeightedBits(len(bits), *sides)


balanced_strategy = st.integers(1, 40).map(lambda k: random_balanced(random.Random(k * 7919), k))


def test_rejects_unbalanced():
    with pytest.raises(ValidationError):
        ParenSeq("(()")
    with pytest.raises(ValidationError):
        ParenSeq("())(")


def test_excess_examples():
    p = ParenSeq(FIX_BP)
    assert p.excess(1) == 1
    assert p.excess(18) == 0
    assert p.excess(7) == 1
    with pytest.raises(RangeError):
        p.excess(19)


def test_match_examples():
    p = ParenSeq(FIX_BP)
    assert p.open(5) == 4
    assert p.close(1) == 18
    assert ParenSeq(FIX_DFUDS).open(4) == 3


def test_match_wrong_symbol_is_contract_error():
    p = ParenSeq(FIX_BP)
    with pytest.raises(ContractError):
        p.open(1)
    with pytest.raises(ContractError):
        p.close(5)


def test_match_against_stack_oracle_large():
    rng = random.Random(0x9A7E)
    bits = random_balanced(rng, 10_000)
    p = ParenSeq(bits)
    partner = match_oracle(bits)
    for x, b in enumerate(bits, start=1):
        if b:
            assert p.close(x) == partner[x]
        else:
            assert p.open(x) == partner[x]


def test_open_close_inverse():
    rng = random.Random(3)
    bits = random_balanced(rng, 500)
    p = ParenSeq(bits)
    for x, b in enumerate(bits, start=1):
        if not b:
            assert p.close(p.open(x)) == x


def test_rmq_excess_examples():
    p = ParenSeq(FIX_DFUDS)
    assert p.rmq_excess(4, 6) == 4
    assert p.rmq_excess(9, 9) == 9
    with pytest.raises(RangeError):
        p.rmq_excess(6, 4)


def test_rmq_excess_against_oracle():
    rng = random.Random(0x52A1)
    bits = random_balanced(rng, 3_000)
    p = ParenSeq(bits)
    exc = [0]
    for b in bits:
        exc.append(exc[-1] + (1 if b else -1))
    n = len(bits)
    for _ in range(10_000):
        l = rng.randint(1, n)
        r = rng.randint(l, n)
        assert p.rmq_excess(l, r) == rmq_oracle(exc, l, r)


def test_bpselect_prefix_examples():
    p = weighted("(()(()))", open_weights={2: 2, 4: 3})
    assert p.bpselect(OPEN_WEIGHTS, 2) == 3  # largest position before the weight-3 open
    assert p.bpselect(OPEN_WEIGHTS, 5) == 8  # total weight affordable -> n
    assert p.bpselect(OPEN_WEIGHTS, 0) == 1  # first weighted position is 2
    assert p.bpselect_with_count(OPEN_WEIGHTS, 4) == (3, 1)
    assert p.bpselect_with_count(OPEN_WEIGHTS, 5) == (8, 2)
    assert [p.weight_prefix(OPEN_WEIGHTS, x) for x in range(9)] == [0, 0, 2, 2, 5, 5, 5, 5, 5]
    p2 = weighted("()", close_weights={2: 1})
    assert p2.bpselect(CLOSE_WEIGHTS, 0) == 1
    assert p2.bpselect_with_count(CLOSE_WEIGHTS, 1) == (2, 1)


def test_bpselect_requires_weights_and_budget():
    p = WeightedBits(2)
    with pytest.raises(ContractError, match="no open-weights attached"):
        p.bpselect(OPEN_WEIGHTS, 1)
    p = weighted("()", open_weights={1: 1})
    with pytest.raises(ContractError, match="budget must be non-negative, got -1"):
        p.bpselect(OPEN_WEIGHTS, -1)
    with pytest.raises(ContractError, match="unknown weight side 'sideways'"):
        p.bpselect("sideways", 0)
    with pytest.raises(ContractError, match="no close-weights attached"):
        p.bpselect_with_count(CLOSE_WEIGHTS, 0)
    with pytest.raises(RangeError, match=r"position 3 outside 0\.\.2"):
        p.weight_prefix(OPEN_WEIGHTS, 3)


def test_tables_answer_as_the_mapping_they_hold():
    rng = random.Random(0x7AB)
    bits = random_balanced(rng, 150)
    n = len(bits)
    for side, symbol, keyword in ((OPEN_WEIGHTS, 1, "open_weights"), (CLOSE_WEIGHTS, 0, "close_weights")):
        weights = {x: rng.randint(0, 4) for x, b in enumerate(bits, start=1) if b == symbol}
        positions, cum = weight_tables(weights)
        p = WeightedBits(n, **{keyword: (positions, cum)})
        got = p._weight_tables(side)
        assert got[0] is positions and got[1] is cum  # kept, not copied
        prefix = list(accumulate(weights.get(x, 0) for x in range(n + 1)))
        assert [p.weight_prefix(side, x) for x in range(n + 1)] == prefix
        for budget in range(cum[-1] + 2):
            q = max(x for x in range(n + 1) if prefix[x] <= budget)
            assert p.bpselect_with_count(side, budget) == (q, sum(x <= q for x in weights))
    with pytest.raises(ValidationError, match="^2 weighted positions but 1 cumulative weights$"):
        WeightedBits(4, open_weights=(array("q", [1, 3]), array("q", [1])))


def test_bpselect_against_scan_and_monotone():
    rng = random.Random(0xBEEF)
    bits = random_balanced(rng, 200)
    n = len(bits)
    for side, symbol, keyword in ((OPEN_WEIGHTS, 1, "open_weights"), (CLOSE_WEIGHTS, 0, "close_weights")):
        weights = {x: rng.randint(0, 4) for x, b in enumerate(bits, start=1) if b == symbol}
        p = weighted(bits, **{keyword: weights})
        prefix = [0] * (n + 1)
        for x in range(1, n + 1):
            prefix[x] = prefix[x - 1] + weights.get(x, 0)
        assert [p.weight_prefix(side, x) for x in range(n + 1)] == prefix
        total = prefix[n]
        last = 0
        for budget in range(total + 2):
            expect = max(q for q in range(n + 1) if prefix[q] <= budget)
            got = p.bpselect(side, budget)
            assert got == expect
            assert got >= last
            last = got


@given(balanced_strategy)
def test_excess_profile_steps_by_one(bits):
    p = ParenSeq(bits)
    prev = 0
    for x in range(1, len(bits) + 1):
        cur = p.excess(x)
        assert cur - prev in (-1, 1)
        assert cur >= 0
        prev = cur
    assert p.excess(len(bits)) == 0


def test_unbalanced_messages_name_the_fault():
    with pytest.raises(ValidationError, match=r"excess drops below zero at position 3"):
        ParenSeq("())(")
    with pytest.raises(ValidationError, match=r"excess drops below zero at position 1"):
        ParenSeq(")(")
    with pytest.raises(ValidationError, match=r"2 unmatched opening parentheses"):
        ParenSeq("((()")


def block_oracle(bits):
    """(excess, block minima, sparse table) by direct scans;
    table[j][k] is (min, leftmost block) over blocks [k, k + 2^j)."""
    exc = [0]
    for b in bits:
        exc.append(exc[-1] + (1 if b else -1))
    blocks = [exc[lo : lo + 64] for lo in range(1, len(bits) + 1, 64)]
    bmin = [min(c) for c in blocks]
    table = []
    span = 1
    while span <= len(bmin):
        row = []
        for k in range(len(bmin) - span + 1):
            low = min(bmin[k : k + span])
            row.append((low, bmin.index(low, k)))
        table.append(row)
        span *= 2
    return exc, bmin, table


def unpacked(bmin, table):
    """The packed sparse table as (min, leftmost block) pairs."""
    shift = len(bmin).bit_length()
    return [[(e >> shift, e & ((1 << shift) - 1)) for e in row] for row in table]


def test_block_tables_match_a_direct_scan():
    rng = random.Random(0xB10C)
    for pairs in (1, 31, 32, 33, 500, 2000):
        bits = random_balanced(rng, pairs)
        p = ParenSeq(bits)
        exc, bmin, table = block_oracle(bits)
        assert p._exc.typecode == "I" and p._exc.tolist() == exc
        got_bmin, got_table = p.block_tables()
        assert got_bmin == bmin
        assert unpacked(bmin, got_table) == table
        assert p.to_string() == "".join("(" if b else ")" for b in bits)


def test_encoders_hold_no_block_tables_until_a_search():
    rng = random.Random(0x1A2)
    for n in (1, 2, 40, 300):
        t = random_tree(rng, n)
        seqs = [codec.bp_encode(t)[0], codec.dfuds_encode(t)[0]]
        seqs.append(codec.mirror(seqs[1]))
        for p in seqs:
            assert (p._bmin, p._table) == (None, None)
            assert p == ParenSeq(p.base) and p.excess(p.n) == 0


@pytest.mark.parametrize("search", ["rmq_excess", "open", "close"])
def test_first_search_builds_the_tables_of_the_direct_scan(search):
    rng = random.Random(0x5EA)
    for pairs in (1, 31, 32, 33, 500, 2000):
        bits = random_balanced(rng, pairs)
        p = ParenSeq(bits)
        assert p._table is None
        if search == "rmq_excess":
            p.rmq_excess(1, len(bits))
        elif search == "open":
            p.open(bits.index(0) + 1)
        else:
            p.close(1)
        _, bmin, table = block_oracle(bits)
        assert p._bmin == bmin
        assert unpacked(bmin, p._table) == table


def test_index_io_builds_the_tables_it_reads():
    rng = random.Random(0x10)
    bits = random_balanced(rng, 700)
    _, bmin, table = block_oracle(bits)
    p = ParenSeq(bits)
    assert index_io._emin_section(p) == struct.pack(f"<Q{len(bmin)}q", 64, *bmin)
    p = ParenSeq(bits)
    stats = index_io.stats_for(p)
    assert stats["excess_block_bits"] == 64 * len(bmin)
    assert stats["sparse_table_bits"] == 64 * sum(map(len, table))


def test_block_tables_wake_no_collection_and_peak_near_what_they_hold():
    # No container per entry or per block: a tuple table, or every 64-entry
    # slice held at once, set off collections and a peak of nearly 3x.
    p = build_minheap(random_array(random.Random(0x6C), 100_000, span=400_000)).dfuds
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    tracemalloc.start()
    gc.callbacks.append(count)
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p.block_tables()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        gc.callbacks.remove(count)
        tracemalloc.stop()
    assert starts == []
    assert peak - before <= 1.25 * (held - before), (peak - before, held - before)


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_unbalanced_sequences_raise_at_construction(bits):
    exc = [0]
    for b in bits:
        exc.append(exc[-1] + (1 if b else -1))
    if min(exc) < 0:
        with pytest.raises(ValidationError, match=rf"excess drops below zero at position {exc.index(-1)}$"):
            ParenSeq(bits)
    elif exc[-1]:
        with pytest.raises(ValidationError, match=rf"^unbalanced sequence: {exc[-1]} unmatched opening parentheses$"):
            ParenSeq(bits)
    else:
        assert ParenSeq(bits)._table is None


def test_excess_is_summed_exactly_across_chunk_seams():
    # The excess is summed _CHUNK steps at a time: a first negative excess, a
    # deep excess and an unmatched count each land on both sides of a seam.
    c = parens._CHUNK
    texts = ["1" * k + "0" * k for k in (c // 2, c - 1, c, c + 1, 2 * c)]
    texts += ["10" * ((m - 1) // 2) + "0" + "1" * 3 for m in (c - 1, c + 1, 2 * c - 1, 2 * c + 1)]
    texts += ["10" * c + "0", "1" * (c + 5), "10" * c + "1" * 7]
    for text in texts:
        exc = list(accumulate((1 if ch == "1" else -1 for ch in text), initial=0))
        if min(exc) < 0:
            with pytest.raises(ValidationError, match=rf"excess drops below zero at position {exc.index(-1)}$"):
                ParenSeq(text)
        elif exc[-1]:
            with pytest.raises(ValidationError, match=rf"^unbalanced sequence: {exc[-1]} unmatched opening parentheses$"):
                ParenSeq(text)
        else:
            p = ParenSeq(text)
            assert p._exc.typecode == "I" and p._exc.tolist() == exc


def test_excess_typecode_holds_every_excess_of_its_length():
    # a balanced sequence of n bits has its excess in 0..n
    assert parens.excess_typecode(0) == parens.excess_typecode((1 << 32) - 1) == "I"
    assert array("I", [(1 << 32) - 1])[0] == (1 << 32) - 1
    assert parens.excess_typecode(1 << 32) == parens.excess_typecode(1 << 40) == "Q"


# -- the searches against the block-by-block walk they replaced ------------------


def walk_fwd(exc, start, target):
    """Smallest y >= start with exc[y] == target, walking the 64-wide blocks
    one by one and scanning a block only if its minimum reaches target."""
    n = len(exc) - 1
    kb = (start - 1) // 64
    for y in range(start, min((kb + 1) * 64, n) + 1):
        if exc[y] == target:
            return y
    for lo in range((kb + 1) * 64 + 1, n + 1, 64):
        block = exc[lo : lo + 64]
        if min(block) <= target:
            for y in range(lo, lo + len(block)):
                if exc[y] == target:
                    return y
    raise AssertionError(f"no excess {target} forward of {start}")


def walk_bwd(exc, start, target):
    """Largest y <= start (possibly 0) with exc[y] == target, walking back one
    block at a time and scanning a block only if its range holds target."""
    kb = (start - 1) // 64
    for y in range(start, kb * 64, -1):
        if exc[y] == target:
            return y
    for lo in range((kb - 1) * 64 + 1, 0, -64):
        block = exc[lo : lo + 64]
        if min(block) <= target <= max(block):
            for y in range(lo + 63, lo - 1, -1):
                if exc[y] == target:
                    return y
    assert target == 0
    return 0


def far_and_random_positions(bits, rng, count=150):
    """The positions whose matches lie farthest away, then random ones."""
    partner = match_oracle(bits)
    far = sorted(partner, key=lambda x: -abs(partner[x] - x))[:count]
    return far + rng.sample(range(1, len(bits) + 1), min(count, len(bits)))


def assert_matches_walk(p, positions):
    exc = [0] + [p.excess(x) for x in range(1, p.n + 1)]
    for x in positions:
        if p.bit(x):
            assert p.close(x) == walk_fwd(exc, x + 1, exc[x] - 1), x
        else:
            assert p.open(x) == walk_bwd(exc, x - 1, exc[x]) + 1, x


@settings(max_examples=100, deadline=None)
@given(pairs=st.integers(1, 5000), seed=st.integers(0, 2**32))
def test_open_close_match_the_block_walk_on_random_sequences(pairs, seed):
    rng = random.Random(seed)
    bits = random_balanced(rng, pairs)
    assert_matches_walk(ParenSeq(bits), far_and_random_positions(bits, rng))


def dfuds_shapes(n):
    """DFUDS of a star, a chain and the heaps of decreasing, increasing and
    all-equal arrays, each with about n nodes."""
    return {
        "star": codec.dfuds_encode(star(n))[0],
        "chain": codec.dfuds_encode(chain(*range(n)))[0],
        "decreasing": build_minheap(list(range(n, 0, -1))).dfuds,
        "increasing": build_minheap(list(range(n))).dfuds,
        "equal": build_minheap([5] * n).dfuds,
    }


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_open_close_match_the_block_walk_on_dfuds_shapes(n, seed):
    rng = random.Random(seed)
    for p in dfuds_shapes(n).values():
        bits = list(p.base.iter_bits())
        assert_matches_walk(p, far_and_random_positions(bits, rng, 60))


def test_matches_many_blocks_away_in_both_directions():
    p = dfuds_shapes(20_000)["star"]
    n = p.n
    assert p.close(1) == n and p.open(n) == 1  # the sentinel spans the whole sequence
    leaves = n // 2 - 1  # "(" + "(" * leaves + ")" + ")" * leaves
    for k in (1, 2, 64, 65, 1000, leaves - 1, leaves):  # the k-th leaf's close lies 2k + 1 after its open
        x = leaves + 2 + k
        assert p.open(x) == leaves + 1 - k and p.close(leaves + 1 - k) == x
    p = dfuds_shapes(20_000)["chain"]
    assert p.close(1) == p.n and p.open(p.n) == 1


def rmq_ranges(n, rng, count):
    """Ranges inside one block, across two blocks and across many."""
    out = []
    for _ in range(count):
        l = rng.randint(1, n)
        kind = rng.randrange(3)
        if kind == 0:
            r = rng.randint(l, min(n, (l - 1) // 64 * 64 + 64))
        elif kind == 1:
            r = rng.randint(l, min(n, (l - 1) // 64 * 64 + 128))
        else:
            r = rng.randint(l, n)
        out.append((l, r))
    return out


@settings(max_examples=100, deadline=None)
@given(pairs=st.integers(1, 3000), seed=st.integers(0, 2**32),
       shape=st.sampled_from(["random", "flat", "nested-flat"]))
def test_rmq_excess_matches_a_direct_scan_with_ties(pairs, seed, shape):
    rng = random.Random(seed)
    if shape == "random":
        bits = random_balanced(rng, pairs)
    elif shape == "flat":  # every block has minimum 0: ties between blocks everywhere
        bits = [1, 0] * pairs
    else:  # short random pieces under one root: many ties at excess 1
        bits = [1] + [b for _ in range(pairs) for b in random_balanced(rng, rng.randint(1, 3))] + [0]
    p = ParenSeq(bits)
    exc = [0] + [p.excess(x) for x in range(1, p.n + 1)]
    for l, r in rmq_ranges(p.n, rng, 300):
        assert p.rmq_excess(l, r) == rmq_oracle(exc, l, r), (l, r)


def counted_tables(p):
    """Swap p's block minima and table rows for read-counting lists; returns
    the read bound 2 * ceil(log2 blocks) + 4."""
    bmin, table = p.block_tables()
    # the block minima are counted too: a walk over the blocks reads one per block
    p._bmin = Counted(bmin)
    p._table = [Counted(row) for row in table]
    return 2 * math.ceil(math.log2(len(bmin))) + 4


def test_open_and_close_read_logarithmically_many_table_entries():
    rng = random.Random(0x7AB1E)
    shapes = dfuds_shapes(100_000)
    for name in ("star", "chain", "decreasing"):
        p = shapes[name]
        bound = counted_tables(p)
        bits = p.base.to_text()
        positions = [1, p.n] + far_and_random_positions(list(map(int, bits)), rng, 200)
        worst = 0
        for x in positions:
            Counted.reads = 0
            p.close(x) if bits[x - 1] == "1" else p.open(x)
            worst = max(worst, Counted.reads)
        assert worst <= bound, (name, worst, bound)


def test_rmq_excess_reads_logarithmically_many_table_entries():
    rng = random.Random(0x3A9)
    shapes = dfuds_shapes(100_000)
    for name in ("star", "chain", "decreasing"):
        p = shapes[name]
        bound = counted_tables(p)
        ranges = [(1, p.n), (2, p.n - 1)] + rmq_ranges(p.n, rng, 300)
        worst = 0
        for l, r in ranges:
            Counted.reads = 0
            p.rmq_excess(l, r)
            worst = max(worst, Counted.reads)
        assert worst <= bound, (name, worst, bound)

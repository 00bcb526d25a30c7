import gc
import math
import random
import struct
import sys
import tracemalloc
from array import array
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import bitseq, codec, index_io, parens
from dualtree.bitseq import BitSeq
from dualtree.errors import ContractError, RangeError, ValidationError
from dualtree.minheap import build_minheap
from dualtree.parens import ParenSeq, WeightedBits
from dualtree.randgen import random_array, random_tree

from conftest import FIX_BP, FIX_DFUDS, Counted, chain, star, weight_prefix


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


def excess_oracle(bits):
    """The excess whole, as the sequence held it before it held one byte per
    position: an ``array('I')`` with one entry per position 0..n."""
    return array("I", accumulate((1 if b else -1 for b in bits), initial=0))


def block_bytes(exc):
    """The bytes a ParenSeq holds: the excess at position x less the excess
    at the start of its 64-bit block, (x - 1) // 64, plus 64; 64 at 0."""
    return bytes([64]) + bytes(e - exc[(x - 1) // 64 * 64] + 64 for x, e in enumerate(exc[1:], 1))


def rmq_oracle(exc, l, r):
    """Leftmost position of the minimum excess in [l, r]."""
    return min(range(l, r + 1), key=exc.__getitem__)


def weight_tables(weights):
    """The (positions, cumulative weights) tables of a position -> weight mapping."""
    positions = sorted(weights)
    return array("q", positions), array("q", accumulate(map(weights.get, positions)))


def weighted(bits, weights):
    """A WeightedBits over ``bits`` whose one weighted side is given as a mapping."""
    return WeightedBits(len(bits), *weight_tables(weights))


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
    p = weighted("(()(()))", {2: 2, 4: 3})  # on openers
    assert p.bpselect(2) == 3  # largest position before the weight-3 open
    assert p.bpselect(5) == 8  # total weight affordable -> n
    assert p.bpselect(0) == 1  # first weighted position is 2
    assert p.bpselect(4) == 3
    assert [weight_prefix(p, x) for x in range(9)] == [0, 0, 2, 2, 5, 5, 5, 5, 5]
    p2 = weighted("()", {2: 1})  # on the closer
    assert p2.bpselect(0) == 1
    assert p2.bpselect(1) == 2


def test_bpselect_requires_weights_and_budget():
    p = weighted("()", {1: 1})
    with pytest.raises(ContractError, match="budget must be non-negative, got -1"):
        p.bpselect(-1)


def test_tables_answer_as_the_mapping_they_hold():
    rng = random.Random(0x7AB)
    bits = random_balanced(rng, 150)
    n = len(bits)
    for symbol in (1, 0):  # weights on the openers, then on the closers
        weights = {x: rng.randint(0, 4) for x, b in enumerate(bits, start=1) if b == symbol}
        positions, cum = weight_tables(weights)
        p = WeightedBits(n, positions, cum)
        assert p.positions is positions and p.cum is cum  # kept, not copied
        prefix = list(accumulate(weights.get(x, 0) for x in range(n + 1)))
        assert [weight_prefix(p, x) for x in range(n + 1)] == prefix
        for budget in range(cum[-1] + 2):
            q = max(x for x in range(n + 1) if prefix[x] <= budget)
            assert p.bpselect(budget) == q
    with pytest.raises(ValidationError, match="^2 weighted positions but 1 cumulative weights$"):
        WeightedBits(4, array("q", [1, 3]), array("q", [1]))


def test_bpselect_against_scan_and_monotone():
    rng = random.Random(0xBEEF)
    bits = random_balanced(rng, 200)
    n = len(bits)
    for symbol in (1, 0):  # weights on the openers, then on the closers
        weights = {x: rng.randint(0, 4) for x, b in enumerate(bits, start=1) if b == symbol}
        p = weighted(bits, weights)
        prefix = [0] * (n + 1)
        for x in range(1, n + 1):
            prefix[x] = prefix[x - 1] + weights.get(x, 0)
        assert [weight_prefix(p, x) for x in range(n + 1)] == prefix
        total = prefix[n]
        last = 0
        for budget in range(total + 2):
            expect = max(q for q in range(n + 1) if prefix[q] <= budget)
            got = p.bpselect(budget)
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
        assert type(p._exc) is bytearray and p._exc == block_bytes(exc) == block_bytes(excess_oracle(bits))
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
            assert p == ParenSeq(p) and p.excess(p.n) == 0
            # a ParenSeq is a BitSeq, yet never equal to the plain one of its bits
            assert isinstance(p, BitSeq) and p != BitSeq(p) and BitSeq(p) != p and hash(p) == hash(BitSeq(p))


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
    for pairs in (0, 1, 32, 33, 64, 65, 700, 2048):  # 0, 1, 2, 3 and 64 blocks among them
        bits = random_balanced(rng, pairs)
        _, bmin, table = block_oracle(bits)
        p = ParenSeq(bits)
        assert b"".join(index_io._emin_section(p)) == struct.pack(f"<Q{len(bmin)}q", 64, *bmin)
        assert p._bmin == bmin and p._table is None  # EMIN stores the minima alone
        p = ParenSeq(bits)
        stats = index_io.stats_for(p)
        assert (p._bmin, p._table) == (None, None)  # the stats are counted from the length
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
            assert type(p._exc) is bytearray and p._exc == block_bytes(exc)


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
        bits = list(p.iter_bits())
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


def closers_oracle(p, i, j):
    """The kernel as four calls: rank_0 of the range-min between two closers."""
    return p.rank(p.rmq_excess(p.select(i, 0), p.select(j, 0)), 0)


def closer_pairs(p, rng, count):
    """Closer ranks i <= j whose closers lie in one block, in adjacent blocks
    and anywhere after, each kind where the sequence has one."""
    block = [(x - 1) // 64 for x, b in enumerate(p.iter_bits(), start=1) if b == 0]
    total = len(block)
    out = [(1, 1), (1, total), (total, total)]
    for _ in range(count):
        i = rng.randint(1, total)
        same = [j for j in range(i, total + 1) if block[j - 1] == block[i - 1]]
        next_ = [j for j in range(i, min(total, i + 130) + 1) if block[j - 1] == block[i - 1] + 1]
        out += [(i, rng.choice(same)), (i, rng.randint(i, total))]
        if next_:
            out.append((i, rng.choice(next_)))
    return out


@settings(max_examples=100, deadline=None)
@given(pairs=st.integers(1, 2000), seed=st.integers(0, 2**32))
def test_rmq_closers_is_the_rank_of_the_range_min_between_two_selects(pairs, seed):
    rng = random.Random(seed)
    p = ParenSeq(random_balanced(rng, pairs))
    for i, j in closer_pairs(p, rng, 60):
        assert p.rmq_closers(i, j) == closers_oracle(p, i, j), (i, j)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_rmq_closers_on_dfuds_shapes(n, seed):
    rng = random.Random(seed)
    for shape, p in dfuds_shapes(n).items():
        for i, j in closer_pairs(p, rng, 30):
            assert p.rmq_closers(i, j) == closers_oracle(p, i, j), (shape, i, j)


def test_rmq_closers_rejects_a_range_outside_the_closers():
    p = ParenSeq("(()(()))")  # four closers
    assert [p.rmq_closers(i, 4) for i in range(1, 5)] == [closers_oracle(p, i, 4) for i in range(1, 5)]
    for i, j in ((0, 2), (-1, 1), (3, 2), (1, 5), (5, 5)):
        with pytest.raises(RangeError, match=rf"^closers \[{i}, {j}\] invalid for 4 closing parentheses$"):
            p.rmq_closers(i, j)


@pytest.mark.parametrize("n", [1, 2, 65, 3000])
def test_rmq_closers_of_one_closer_is_its_rank_and_builds_no_table(n):
    for shape, p in dfuds_shapes(n).items():
        assert [p.rmq_closers(i, i) for i in range(1, p.count(0) + 1)] == list(range(1, p.count(0) + 1)), shape
        assert (p._sel0, p._off0, p._bmin, p._table) == (None,) * 4, shape


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
        bits = p.to_text()
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


def test_rmq_closers_reads_logarithmically_many_table_entries():
    rng = random.Random(0xC105E)
    shapes = dfuds_shapes(100_000)
    for name in ("star", "chain", "decreasing"):
        p = shapes[name]
        pairs = closer_pairs(p, rng, 40)
        want = [closers_oracle(p, i, j) for i, j in pairs]
        bound = counted_tables(p)
        worst = 0
        for (i, j), answer in zip(pairs, want):
            Counted.reads = 0
            assert p.rmq_closers(i, j) == answer, (name, i, j)
            worst = max(worst, Counted.reads)
        assert worst <= bound, (name, worst, bound)


# -- the excess held relative to its block's start, however deep -------------------


def wrapping_sequences(rng):
    """Sequences whose excess crosses multiples of 256 inside 64-bit blocks
    at many offsets: random walks above a climb to near 256 or 512, and a
    sawtooth across 256 shifted along the blocks."""
    out = [[1] * a + random_balanced(rng, 400) + [0] * a for a in (250, 255, 256, 257, 500, 511)]
    out += [[1, 0] * shift + [1] * 250 + ([1] * 9 + [0] * 9) * 30 + [0] * 250 for shift in range(0, 64, 7)]
    return out


def blocks_crossing_256(exc):
    """How many 64-bit blocks hold excess values on both sides of a multiple of 256."""
    return sum(len({e >> 8 for e in exc[lo : lo + 64]}) > 1 for lo in range(1, len(exc), 64))


def test_deep_excess_answers_every_query_as_the_oracle():
    # The excess is held relative to its block's start and read back with the
    # start's excess from the rank table; the array('I') oracle holds it
    # whole. Every query must agree with it, and the matches with the block
    # walk, however deep the excess and wherever it crosses a multiple of 256.
    rng = random.Random(0x256)
    shapes = dfuds_shapes(3000)
    cases = [(bits, True) for bits in wrapping_sequences(rng)]
    cases += [(list(shapes[name].iter_bits()), name != "chain") for name in ("star", "chain", "decreasing")]
    for bits, deep in cases:
        p = ParenSeq(bits)
        exc = excess_oracle(bits)
        assert type(p._exc) is bytearray and p._exc == block_bytes(exc)
        if deep:
            assert max(exc) >= 256 and blocks_crossing_256(exc) > 0
        assert [p.excess(x) for x in range(1, p.n + 1)] == exc[1:].tolist()
        partner = match_oracle(bits)
        for x in far_and_random_positions(bits, rng):
            if bits[x - 1]:
                assert p.close(x) == partner[x] == walk_fwd(exc, x + 1, exc[x] - 1), x
            else:
                assert p.open(x) == partner[x] == walk_bwd(exc, x - 1, exc[x]) + 1, x
        for l, r in rmq_ranges(p.n, rng, 300):
            assert p.rmq_excess(l, r) == rmq_oracle(exc, l, r), (l, r)


def test_excess_bytes_lie_in_0_to_128_however_deep():
    # Within a 64-bit block the excess lies within 64 of its value at the
    # block's start, so no byte wraps: each lies in 0..128, 64 at position 0.
    rng = random.Random(0x128)
    shapes = dfuds_shapes(3000)
    cases = wrapping_sequences(rng) + [list(shapes[name].iter_bits()) for name in ("star", "decreasing")]
    cases.append([1] * 70_001 + [0] * 70_001)
    for bits in cases:
        p = ParenSeq(bits)
        assert p._exc[0] == 64 and 0 <= min(p._exc) and max(p._exc) <= 128


# -- the lane kernels that build the excess, the block minima and the table ----------


@pytest.fixture(params=["host order", "forced big-endian"])
def byte_order(request, monkeypatch):
    """Each kernel test runs twice: on the host's byte order, then as a
    big-endian host would run it, every table read and written through
    ``le_bytes``/``from_le`` byteswapped."""
    if request.param == "forced big-endian":
        monkeypatch.setattr(bitseq, "_BIG_ENDIAN", True)


def min_table(bmin):
    """The sparse table as packed-entry lists, each level built by the
    ``map(min, row, row shifted by 2^j)`` that the lane minima replace."""
    shift = len(bmin).bit_length()
    table = [[(m << shift) | k for k, m in enumerate(bmin)]]
    span = 1
    while 2 * span <= len(bmin):
        prev = table[-1]
        table.append(list(map(min, prev, islice(prev, span, None))))
        span *= 2
    return table


def assert_kernels_match(bits):
    """The excess bytes, block minima and table rows of ``ParenSeq(bits)``
    equal the oracles'; the rows are compared as their little-endian bytes,
    which a forced byte order keeps."""
    p = ParenSeq(bits)
    exc = excess_oracle(bits)
    assert type(p._exc) is bytearray and p._exc == block_bytes(exc)
    bmin = [min(exc[lo : lo + 64]) for lo in range(1, len(bits) + 1, 64)]
    assert p.block_minima() == bmin and p._table is None
    _, table = p.block_tables()
    assert all(type(row) is array and row.typecode == "q" for row in table)
    assert [bitseq.le_bytes(row) for row in table] == [struct.pack(f"<{len(row)}q", *row) for row in min_table(bmin)]


WORDS_PER_PASS = parens._CHUNK // 64


def test_lane_kernels_match_the_oracles_at_every_word_end(byte_order):
    # n mod 64 in {0, 1, 7, 8, 9, 63} (and the even 2, 6, 62), over one word,
    # several, and more than one lane pass. A balanced sequence has even n, so
    # an odd one is given an unmatched opener or a closer too many and must
    # be refused with the count or the position.
    rng = random.Random(0x1A4E)
    for words in (1, 2, 5, WORDS_PER_PASS, WORDS_PER_PASS + 3):
        for r in (0, 1, 2, 6, 7, 8, 9, 62, 63):
            n = 64 * words if r == 0 else 64 * (words - 1) + r
            if n % 2 == 0:
                for bits in (random_balanced(rng, n // 2), [1] * (n // 2) + [0] * (n // 2), [1, 0] * (n // 2)):
                    assert_kernels_match(bits)
                continue
            bits = random_balanced(rng, n // 2)
            with pytest.raises(ValidationError, match="^unbalanced sequence: 1 unmatched opening parentheses$"):
                ParenSeq(bits + [1])
            with pytest.raises(ValidationError, match=rf"^unbalanced sequence: excess drops below zero at position {n}$"):
                ParenSeq(bits + [0])


def test_lane_kernels_match_the_oracles_past_255_and_64k_deep(byte_order):
    # The bytes are exact past 255 and the word minima however deep:
    # the exact minima past 2^16 come from the rank table, not from a lane.
    rng = random.Random(0xDEE9)
    for depth in (255, 256, 300, 65_535, 65_536, 70_001):
        assert_kernels_match([1] * depth + [0] * depth)
    climb = 70_000
    assert_kernels_match([1] * climb + random_balanced(rng, 3000) + [0] * climb)
    assert_kernels_match([1] * 300 + [1, 0] * 500 + [0] * 300 + random_balanced(rng, 700))


def test_first_negative_excess_is_found_at_every_offset_of_a_word(byte_order):
    # The first -1 can only sit at an odd position, an even offset of its
    # word. It is looked for there, before the text ends inside a byte, at
    # the end of one, or with more bits after it, and past a deep excess.
    rng = random.Random(0xF1E5)
    for words_before in (0, 1, 3, WORDS_PER_PASS):
        for offset in range(0, 64, 2):
            before = 64 * words_before + offset
            for prefix in (random_balanced(rng, before // 2), [1] * (before // 2) + [0] * (before // 2)):
                for tail in ([], [1] * 5, [0], random_balanced(rng, 40)):
                    with pytest.raises(ValidationError, match=rf"excess drops below zero at position {before + 1}$"):
                        ParenSeq(prefix + [0] + tail)
    with pytest.raises(ValidationError, match=r"excess drops below zero at position 140001$"):
        ParenSeq([1] * 70_000 + [0] * 70_000 + [0, 1])


def test_open_after_a_block_of_64_closers_matches_the_oracle(byte_order, monkeypatch):
    # A closer that starts a block right after a block of 64 closers seeks
    # its target in that block first, where the target's byte is -1: a miss,
    # after which the table finds the block of its partner. The bytes must
    # be the oracle's in either byte order, 0 at the end of each such block;
    # the searches run on a build in the host's order, as a forced order
    # leaves the words and tables byteswapped for the host to read.
    sizes = (256, 320, 576)
    for m in sizes:
        bits = [1] * m + [0] * m
        seams = list(range(m + 65, 2 * m + 1, 64))
        assert seams and all(x % 64 == 1 for x in seams)
        p = ParenSeq(bits)
        assert p._exc == block_bytes(excess_oracle(bits)) and {p._exc[x - 1] for x in seams} == {0}
    monkeypatch.setattr(bitseq, "_BIG_ENDIAN", sys.byteorder == "big")
    for m in sizes:
        bits = [1] * m + [0] * m
        p = ParenSeq(bits)
        partner = match_oracle(bits)
        assert [p.open(x) for x in range(m + 1, 2 * m + 1)] == [partner[x] for x in range(m + 1, 2 * m + 1)]
        assert [p.close(x) for x in range(1, m + 1)] == [partner[x] for x in range(1, m + 1)]


def test_construction_holds_and_peaks_near_the_excess_bytes():
    # Tracemalloc at 10^5 random values, in bytes per value, the text given.
    # The excess bytes (one per bit, about two bits per value) are written
    # into the bytearray that is kept: the peak is 3.3 above the text and
    # 2.8 is held. Copying that bytearray into bytes set the peak at 4.9,
    # and packing the whole text reversed at 5.35.
    n = 100_000
    text = build_minheap(random_array(random.Random(0x5A7E), n)).dfuds.to_text()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        p = ParenSeq(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.n == len(text) and p._bmin is None
    assert held - before <= 3.0 * n, (held - before) / n
    assert peak - before <= 4.0 * n, (peak - before) / n

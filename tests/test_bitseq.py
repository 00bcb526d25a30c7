import gc
import math
import random
import struct
import sys
import tracemalloc
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import bitseq, codec
from dualtree.bitseq import BitSeq, from_le, le_bytes
from dualtree.errors import NotFoundError, ParseError, RangeError

from conftest import FIX_DFUDS, Counted, chain, star


def rank_oracle(bits, x, s):
    return sum(1 for b in bits[:x] if b == s)


def select_oracle(bits, i, s):
    seen = 0
    for pos, b in enumerate(bits, start=1):
        if b == s:
            seen += 1
            if seen == i:
                return pos
    return None


def test_rank_examples():
    b = BitSeq("101100")
    assert b.rank(4, 1) == 3
    assert b.rank(6, 0) == 3


def test_rank_partitions_positions():
    b = BitSeq("101100")
    assert b.rank(6, 0) + b.rank(6, 1) == 6


def test_select_examples():
    b = BitSeq("101100")
    assert b.select(2, 0) == 5
    assert b.select(1, 1) == 1
    assert BitSeq(FIX_DFUDS).select(1, 0) == 4


def test_rank_out_of_range():
    b = BitSeq("101100")
    with pytest.raises(RangeError):
        b.rank(0, 1)
    with pytest.raises(RangeError):
        b.rank(7, 1)


def test_select_beyond_count_is_not_found():
    b = BitSeq("101100")
    with pytest.raises(NotFoundError, match=r"^sequence holds only 3 occurrences of 1, asked for 4$"):
        b.select(4, 1)
    with pytest.raises(RangeError, match=r"^occurrence index 0 must be >= 1$"):
        b.select(0, 1)
    with pytest.raises(NotFoundError, match=r"^sequence holds only 0 occurrences of 0, asked for 1$"):
        BitSeq("111").select(1, 0)
    assert not issubclass(NotFoundError, RangeError)


def test_parenthesis_and_list_inputs_agree():
    assert BitSeq("(())()") == BitSeq([1, 1, 0, 0, 1, 0])


def test_rejects_non_bits():
    with pytest.raises(ParseError):
        BitSeq([0, 2, 1])
    with pytest.raises(ParseError):
        BitSeq("01x")


def test_large_random_against_oracle():
    rng = random.Random(0xB175)
    bits = [rng.randint(0, 1) for _ in range(100_000)]
    b = BitSeq(bits)
    counts = {0: 0, 1: 0}
    for x, bit in enumerate(bits, start=1):
        counts[bit] += 1
        assert b.rank(x, 1) == counts[1]
        assert b.rank(x, 0) == counts[0]
        assert b.select(counts[bit], bit) == x
    assert b.count(1) == counts[1]
    assert b.count(0) == counts[0]


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300), st.data())
def test_rank_select_match_oracle(bits, data):
    b = BitSeq(bits)
    x = data.draw(st.integers(1, len(bits)))
    s = data.draw(st.integers(0, 1))
    assert b.rank(x, s) == rank_oracle(bits, x, s)
    total = rank_oracle(bits, len(bits), s)
    if total:
        i = data.draw(st.integers(1, total))
        assert b.select(i, s) == select_oracle(bits, i, s)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_select_of_rank_lands_at_or_before(bits):
    b = BitSeq(bits)
    for x, bit in enumerate(bits, start=1):
        r = b.rank(x, bit)
        assert b.select(r, bit) <= x
        if bits[x - 1] == bit:
            assert b.select(r, bit) == x


def test_select_strictly_increasing():
    rng = random.Random(7)
    bits = [rng.randint(0, 1) for _ in range(2_000)]
    b = BitSeq(bits)
    for s in (0, 1):
        positions = [b.select(i, s) for i in range(1, b.count(s) + 1)]
        assert positions == sorted(set(positions))


def test_rebuild_reproduces_answers():
    rng = random.Random(11)
    bits = [rng.randint(0, 1) for _ in range(5_000)]
    b1 = BitSeq(bits)
    b2 = BitSeq(list(b1.iter_bits()))
    assert b1 == b2
    for x in range(1, 5_001, 97):
        assert b1.rank(x, 1) == b2.rank(x, 1)


def test_every_input_form_gives_the_same_sequence():
    want = BitSeq([1, 0, 1, 1, 0, 0, 1])
    assert BitSeq("1011001") == want
    assert BitSeq("()(())(") == want
    assert BitSeq(bytearray([1, 0, 1, 1, 0, 0, 1])) == want
    assert BitSeq(bytes([1, 0, 1, 1, 0, 0, 1])) == want
    assert BitSeq((b for b in [1, 0, 1, 1, 0, 0, 1])) == want
    assert BitSeq([True, False, True, True, False, False, True]) == want
    assert BitSeq([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]) == want
    assert BitSeq(want) == want
    assert want.to_text() == "1011001"
    assert list(want.iter_bits()) == [1, 0, 1, 1, 0, 0, 1]


def test_empty_and_word_boundaries():
    assert len(BitSeq("")) == 0 and BitSeq([]).count(1) == 0 and BitSeq("").to_text() == ""
    for n in (63, 64, 65, 128, 129):
        bits = [(k * 7) % 3 == 0 for k in range(n)]
        b = BitSeq([int(x) for x in bits])
        assert b.count(1) == sum(bits) and b.count(0) == n - sum(bits)
        assert b.to_text() == "".join("1" if x else "0" for x in bits)


def test_rejection_names_the_first_bad_position():
    for bits, message, at in (([0, 1, 2, 5], "unexpected bit 2", 3), ([1, -1, 0], "unexpected bit -1", 2),
                              (["1", 0], "unexpected bit '1'", 1), ("01x0y", "unexpected character 'x'", 3),
                              (bytes([1, 0, 0, 9]), "unexpected bit 9", 4), ([1, 0.5], "unexpected bit 0.5", 2)):
        with pytest.raises(ParseError) as err:
            BitSeq(bits)
        assert str(err.value) == f"{message} (position {at})" and err.value.position == at


def test_digit_text_is_taken_as_given_and_parentheses_translated():
    digits = "1101001110" * 50
    assert bitseq.text_of(digits) is digits
    assert bitseq.text_of("") == ""
    assert bitseq.text_of(digits.translate(str.maketrans("10", "()"))) == digits
    assert bitseq.text_of("(0)1") == "1001"
    for bad, at in (("01\n", 3), ("0٠1", 2), ("10 ", 3)):
        with pytest.raises(ParseError, match=rf"^unexpected character .* \(position {at}\)$") as err:
            bitseq.text_of(bad)
        assert err.value.position == at


FULL = (1 << 64) - 1


def select_bit_by_bit(b, i, s):
    """An in-word select by a bit loop: clear the lowest bits of the
    word one at a time until the i-th occurrence is the lowest."""
    cum = b._cum1 if s else b._cum0
    w = bisect_left(cum, i) - 1
    need = i - cum[w]
    word = b._words[w] if s else ~b._words[w] & FULL
    while True:
        low = word & -word
        need -= 1
        if need == 0:
            return w * 64 + low.bit_length()
        word ^= low


words = st.one_of(
    st.just(0), st.just(FULL), st.integers(0, FULL),
    st.integers(0, 63).map(lambda k: 1 << k), st.integers(0, 63).map(lambda k: FULL ^ (1 << k)),
)


@settings(max_examples=300, deadline=None)
@given(ws=st.lists(words, min_size=1, max_size=6), tail=st.integers(1, 64))
def test_select_matches_the_positions_and_the_bit_by_bit_scan(ws, tail):
    bits = [(w >> k) & 1 for w in ws for k in range(64)][: 64 * (len(ws) - 1) + tail]  # last word may be partial
    b = BitSeq(bits)
    for s in (0, 1):
        positions = [x for x, bit in enumerate(bits, start=1) if bit == s]
        assert [b.select(i, s) for i in range(1, len(positions) + 1)] == positions
        assert [select_bit_by_bit(b, i, s) for i in range(1, len(positions) + 1)] == positions
        with pytest.raises(NotFoundError, match=f"holds only {len(positions)} occurrences of {s}"):
            b.select(len(positions) + 1, s)


def test_select_in_full_and_empty_words():
    for n in (64, 100, 128, 130):
        for fill in (0, 1):
            b = BitSeq([fill] * n)
            assert [b.select(i, fill) for i in range(1, n + 1)] == list(range(1, n + 1))
            with pytest.raises(NotFoundError):
                b.select(1, 1 - fill)
    b = BitSeq([1] * 64 + [0] * 64 + [1] * 5)  # a full word, an empty word, a partial last word
    assert [b.select(i, 1) for i in (1, 64, 65, 69)] == [1, 64, 129, 133]
    assert [b.select(i, 0) for i in (1, 64)] == [65, 128]


def test_tables_are_typed_and_round_trip_through_little_endian_bytes():
    rng = random.Random(0x7AB1E)
    for n in (0, 1, 63, 64, 65, 1000):
        b = BitSeq([rng.randint(0, 1) for _ in range(n)])
        assert (b._words.typecode, b._cum1.typecode, b._cum0.typecode) == ("Q", "q", "q")
        assert le_bytes(b._words) == struct.pack(f"<{len(b._words)}Q", *b._words)
        assert from_le(le_bytes(b._words), "Q") == b._words
        assert from_le(memoryview(le_bytes(b._cum1))) == b._cum1
        assert BitSeq(b.to_text()) == b and hash(BitSeq(b.to_text())) == hash(b)


@pytest.mark.parametrize("typecode", ["i", "q"])
def test_byte_order_helpers_round_trip_tables_of_4_and_8_bytes(byte_order, tmp_path, typecode):
    # le_buffer/le_bytes write a table's little-endian bytes (on a forced
    # big-endian run, the host's bytes reversed item by item), from_le reads
    # them back, and read_le then le_table read them from a file past a
    # prefix already read, straight into an array of the typecode on the
    # host's order and through a byteswapped copy otherwise
    size = array(typecode).itemsize
    least, greatest = -(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1
    table = array(typecode, [0, 1, -1, least, greatest, least + 1, greatest - 1, 0x1234567])
    little = struct.pack(f"<{len(table)}{typecode}", *table)
    forced = bitseq._BIG_ENDIAN != (sys.byteorder == "big")
    want = b"".join(little[k : k + size][::-1] for k in range(0, len(little), size)) if forced else little
    assert bitseq.le_bytes(table) == bytes(bitseq.le_buffer(table)) == want
    assert bitseq.from_le(want, typecode) == table
    path = tmp_path / "table.bin"
    prefix = struct.pack("<QQ", size, len(table))
    path.write_bytes(prefix + want)
    for head in (b"", prefix[:8]):
        with open(path, "rb") as fh:
            fh.read(len(head))
            view = bitseq.read_le(fh, len(prefix) + len(want), typecode, head)
        assert view[: len(head)] == head and type(view.obj) is (bytes if bitseq._BIG_ENDIAN else array)
        read = bitseq.le_table(view, len(prefix), typecode)
        assert read == table and read.typecode == typecode
    # a length that is no multiple of the item size is read as bytes
    with open(path, "rb") as fh:
        assert type(bitseq.read_le(fh, len(prefix) + len(want) - 1, typecode).obj) is bytes


# -- the select directory ----------------------------------------------------------


def test_offset_tables_against_a_bit_loop():
    tables = bitseq._OFFSETS
    assert len(tables) == 8
    for k, table in enumerate(tables):
        assert len(table) == 256
        for v in range(256):
            offsets = []
            rest = v
            while rest:  # clear the lowest set bit, one at a time
                low = rest & -rest
                offsets.append(8 * k + low.bit_length() - 1)
                rest ^= low
            assert type(table[v]) is bytes and list(table[v]) == offsets, (k, v)


def long_runs():
    """Sequences with long runs of one symbol: the DFUDS of a 10^4-leaf star
    and of a 10^4-node chain, and all ones then all zeros."""
    return {
        "star": codec.dfuds_encode(star(10_000))[0],
        "chain": codec.dfuds_encode(chain(*range(10_000)))[0],
        "ones-then-zeros": BitSeq([1] * 20_000 + [0] * 20_000),
    }


def sampled_ranks(total):
    """1, every k·256 and k·256 + 1, and the last occurrence."""
    ranks = {1, total}
    for k in range(1, total // 256 + 1):
        ranks.update((256 * k, 256 * k + 1))
    return sorted(i for i in ranks if 1 <= i <= total)


def test_select_at_the_directory_samples_matches_a_naive_scan():
    rng = random.Random(0x5E1)
    seqs = list(long_runs().values())
    for n, density in ((1, 0.5), (255, 0.5), (256, 1.0), (257, 0.5), (5_000, 0.5), (20_000, 0.02), (20_000, 0.98)):
        seqs.append(BitSeq([int(rng.random() < density) for _ in range(n)]))
    for b in seqs:
        bits = list(b.iter_bits())
        for s in (0, 1):
            positions = [x for x, bit in enumerate(bits, start=1) if bit == s]
            assert (b._sel1, b._sel0)[1 - s] is None  # built by the first select of its symbol
            for i in sampled_ranks(len(positions)):
                assert b.select(i, s) == positions[i - 1] == select_oracle(bits, i, s), (i, s)
            if positions:
                sel = b._sel1 if s else b._sel0
                assert sel.typecode == "q" and len(sel) == (len(positions) - 1) // 256 + 2
            with pytest.raises(NotFoundError, match=rf"^sequence holds only {len(positions)} occurrences of {s}, asked for {len(positions) + 1}$"):
                b.select(len(positions) + 1, s)
            with pytest.raises(RangeError, match=r"^occurrence index 0 must be >= 1$"):
                b.select(0, s)


def offsets_of(b, s):
    """Symbol s's in-word offsets after a first select, or None where s does not occur."""
    if b.count(s):
        b.select(1, s)
    return b._off1 if s else b._off0


def assert_offsets_are_in_word_positions(b):
    bits = list(b.iter_bits())
    for s in (0, 1):
        positions = [x for x, bit in enumerate(bits, start=1) if bit == s]
        off = offsets_of(b, s)
        if not positions:
            assert off is None  # no occurrence: no select gets to build a table
            continue
        # one byte per occurrence, the padding of a partial last word adding none
        assert type(off) is bytes and len(off) == len(positions) == b.count(s)
        assert list(off) == [(x - 1) % 64 for x in positions]


@settings(max_examples=200, deadline=None)
@given(ws=st.lists(words, min_size=1, max_size=6), tail=st.integers(1, 64))
def test_offsets_are_the_in_word_positions_of_every_occurrence(ws, tail):
    bits = [(w >> k) & 1 for w in ws for k in range(64)][: 64 * (len(ws) - 1) + tail]
    assert_offsets_are_in_word_positions(BitSeq(bits))


def test_offsets_on_aligned_partial_uniform_and_long_run_sequences():
    rng = random.Random(0x0FF5)
    seqs = list(long_runs().values())
    for n in (1, 63, 64, 65, 100, 128, 130, 640, 5_000, 4_096 * 8 + 3):  # word-aligned and partial last words
        seqs.append(BitSeq([rng.randint(0, 1) for _ in range(n)]))
        seqs.append(BitSeq([1] * n))
        seqs.append(BitSeq([0] * n))
    for b in seqs:
        assert_offsets_are_in_word_positions(b)


def test_each_symbols_offsets_are_built_by_its_own_first_select():
    rng = random.Random(0xB17)
    b = BitSeq([rng.randint(0, 1) for _ in range(1000)])
    assert (b._sel1, b._off1, b._sel0, b._off0) == (None,) * 4
    b.rank(500, 1)
    b.rank(500, 0)
    assert (b._off1, b._off0) == (None, None)  # rank builds no select table
    b.select(1, 1)
    off1 = b._off1
    assert type(off1) is bytes and (b._sel0, b._off0) == (None, None)
    b.select(b.count(1), 1)
    assert b._off1 is off1 and b._off0 is None  # built once
    b.select(7, 0)
    assert b._off1 is off1 and type(b._off0) is bytes
    ones = BitSeq([1] * 100)
    with pytest.raises(NotFoundError):
        ones.select(1, 0)
    assert ones._off0 is None and ones._sel0 is None  # a failed select builds nothing


def test_first_select_holds_one_byte_per_occurrence_and_peaks_near_it():
    # The offsets are joined a chunk of word bytes at a time: one join over
    # every piece holds a buffer of about 88 bytes per piece of 8 bits, about
    # 21 bytes per occurrence here, and fails the peak bound.
    rng = random.Random(0x9EA)
    b = BitSeq([rng.randint(0, 1) for _ in range(400_000)])
    for s in (0, 1):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            b.select(1, s)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        occurrences = b.count(s)
        sel, off = (b._sel1, b._off1) if s else (b._sel0, b._off0)
        directory = sel.buffer_info()[1] * sel.itemsize
        assert len(off) == occurrences
        assert held - before <= occurrences + directory + 1024, (s, held - before)
        assert peak - before <= 3 * occurrences, (s, (peak - before) / occurrences)


def counted_select_reads(b, s, ranks):
    """The most reads of the cumulative counts and the directory that one
    select of ``s`` makes over ``ranks``."""
    b.select(1, s)  # builds the directory
    cum, sel = (Counted(b._cum1), Counted(b._sel1)) if s else (Counted(b._cum0), Counted(b._sel0))
    if s:
        b._cum1, b._sel1 = cum, sel
    else:
        b._cum0, b._sel0 = cum, sel
    worst = 0
    for i in ranks:
        Counted.reads = 0
        b.select(i, s)
        worst = max(worst, Counted.reads)
    return worst, len(cum)


def test_select_reads_few_counts_and_logarithmically_many_on_long_runs():
    # Three reads besides the bisect: the total and two directory entries;
    # the offset inside the word is one byte of the offsets, not a count.
    # Where every directory window spans few words the bisect takes at most
    # four probes; where one symbol is sparse, a window spans many words, and
    # the bisect is still logarithmic.
    rng = random.Random(0x9E0B)
    seqs = long_runs()
    seqs["random"] = BitSeq([rng.randint(0, 1) for _ in range(100_000)])
    for name, b in seqs.items():
        for s in (0, 1):
            worst, words = counted_select_reads(b, s, sampled_ranks(b.count(s)))
            assert worst <= 7, (name, s, worst)
    sparse = BitSeq([0 if x % 3000 == 0 else 1 for x in range(100_000)])
    worst, words = counted_select_reads(sparse, 0, range(1, sparse.count(0) + 1))
    assert worst <= math.ceil(math.log2(words)) + 3, worst


def test_packing_is_exact_across_pack_seams():
    # The text is packed _PACK digits at a time: each word, and the last
    # partial one, must hold the bits that one big integer over the whole
    # text gives, with a piece ending on either side of the text's end.
    c = bitseq._PACK
    rng = random.Random(0x9AC)
    for n in (1, 63, 64, 65, c - 1, c, c + 1, c + 63, c + 64, 2 * c, 3 * c + 17):
        text = "".join(rng.choice("01") for _ in range(n))
        words = struct.unpack(f"<{(n + 63) // 64}Q", int(text[::-1], 2).to_bytes(8 * ((n + 63) // 64), "little"))
        b = BitSeq(text)
        assert b._words.tolist() == list(words) and b.to_text() == text, n
        assert b._cum1[-1] == text.count("1") and b._cum0[-1] == text.count("0")

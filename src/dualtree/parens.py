"""Balanced-parenthesis sequences.

A ParenSeq is a balanced BitSeq (1 = opening, 0 = closing): it inherits the
packed words and the rank/select tables, and adds the excess profile,
matching (open/close) and leftmost range-minimum queries over the excess
array. ``rmq_closers(i, j)`` is the range-min between the i-th and j-th
closing parentheses read back as a rank_0, in one call. One closer (i == j)
is its own answer, i, with no select and no table built. Otherwise one
range check covers both selects, which run select's own arithmetic on the
closers' directory and in-word offsets (``bitseq._select_at``), then one
range-min that also yields the minimum's excess, and rank_0(x) = (x -
excess(x)) / 2 with no rank table read. The engines that run this kernel
still tally 2 select + 1 rmq + 1 rank per query: the tally is the query's
budget, not a count of calls made. A WeightedBits answers weighted
prefix select (``bpselect``) over the weights on one side, opening or
closing, of a sequence of n bits; it holds only the weight tables, not the
bits.

The excess RMQ uses fixed-size block minima plus a sparse table over blocks.
Each table entry is ``(block minimum << shift) | block`` with ``shift =
blocks.bit_length()``, so the smaller of two entries is the smaller minimum
together with its leftmost block. Each level is an ``array('q')``: level 0
packs the block minima, and each next level is the lane-wise minimum of the
level below and that level shifted by 2^j entries.
Inside a block every step is one C-level operation on the excess bytes:
``min`` of a slice and ``index`` of its value. The range minimum
is one body, ``_range_min``, shared by ``rmq_excess`` and ``rmq_closers``:
it takes the minimum of the whole blocks from the table and scans an end
block only when its block minimum could beat or tie that. Adjacent excess
values differ by exactly one, so the matching searches (open/close) look for
the nearest block, forward or backward, whose minimum is <= the target excess: they
descend the same sparse table from its top level, skipping each window of
2^j blocks whose entries are above ``((target + 1) << shift) - 1``, which
reads at most log2(blocks) + 1 table entries, and finish with one ``index``
inside that block.
The excess is held relative to its block's start, one byte per bit,
however deep the sequence nests, as the range min-max tree of Navarro and
Sadakane ("Fully functional static and dynamic succinct trees", ACM TALG
2014) holds it. A block is one 64-bit word, so the excess at block k's
start is ``2 * _cum1[k] - 64k``, from the rank table, and inside the block
the excess lies within 64 of it: position x of block k holds ``excess(x)``
less that, plus 64, a byte in 0..128 (position 0 holds 64). ``excess(x)``
adds x's byte less 64 to its block's start; the in-block searches of
open/close and the placement of ``rmq_excess``'s answer are
``bytes.index``/``rindex`` (memchr) of the target's byte; and a range
minimum is ``min`` and ``index`` of a slice, whose bytes order as its excess
does.

The excess, the block minima and the table are built by broadword
arithmetic ("SIMD within a register", as in Vigna, "Broadword
implementation of rank/select queries", WEA 2008) on Python ints,
``_CHUNK`` bits at a time: an int holds one 8-bit lane per byte of the
packed words, or one 64-bit lane per table entry, and a lane-wise sum or
minimum is a few operations on the whole int that carry nothing from one
lane into the next. Byte tables of 256 entries, applied by
``bytes.translate``, give each byte's steps, and the rank table each
word's start. The constructor reads the excess off the words this way and
checks the balance from the exact word minima and the final excess,
keeping neither. The block minima are built when ``block_minima`` is
first asked for them, as a save or a load does for the
blob's EMIN section, and the sparse table on the first search (a range
minimum, open or close) or ``block_tables``, so a sequence that is only
compared, decoded or stored as bits never pays for either, and one that is
only saved or loaded never pays for the table.
"""

import struct
from array import array
from bisect import bisect_right
from itertools import islice, repeat
from operator import add, lshift, sub

from .bitseq import WORD, BitSeq, _select_at, from_le, le_bytes, text_of
from .errors import ContractError, RangeError, ValidationError

OPEN = 1
CLOSE = 0

_BLOCK = WORD  # one block per word, so _cum1[k] is the rank at block k's start
_CHUNK = 1 << 15  # bits in one lane integer: few, so a lane pass holds few bytes at a time
_RAW = _CHUNK // 8  # bytes of words, one 8-bit lane each, in a lane pass
_LANES = _CHUNK // 64  # table entries, one 64-bit lane each, in a lane pass

_DIGIT_TO_PAREN = str.maketrans("10", "()")


def _byte_tables():
    """Three maps of a byte to bytes, its bits read lowest first as steps of
    +1 (a one) and -1 (a zero), each value plus 8 so that none is negative:
    for each bit b, the excess after bits 0..b; the byte's total step; and
    its lowest excess after a bit."""
    after = [bytearray(256) for _ in range(8)]
    total = bytearray(256)
    lowest = bytearray(256)
    for v in range(256):
        e = 0
        low = 8
        for b in range(8):
            e += 1 if v >> b & 1 else -1
            after[b][v] = e + 8
            low = min(low, e)
        total[v] = e + 8
        lowest[v] = low + 8
    return [bytes(t) for t in after], bytes(total), bytes(lowest)


_AFTER_BIT, _BYTE_STEP, _BYTE_LOW = _byte_tables()


def _repeated(pattern):
    """The int whose little-endian bytes repeat ``pattern`` over one lane pass."""
    return int.from_bytes(pattern * (_RAW // len(pattern)), "little")


# Lane constants over a whole pass. A mask needs no cutting to fewer bytes,
# as ``&`` keeps no more bytes than its operand; a pattern of whole words is
# shifted down to them.
_H8 = _repeated(b"\x80")  # each 8-bit lane's top bit
_FROM = [_repeated(bytes(s) + b"\xff" * (8 - s)) for s in (1, 2, 4)]  # each word's lanes j >= s
_REL0 = _repeated(bytes(range(56, -1, -8)))  # 56 - 8j in each word's lane j
_H64 = _repeated(bytes(7) + b"\x80")  # each 64-bit lane's top bit
_ONES64 = (1 << 64) - 1


class ParenSeq(BitSeq):
    """Immutable balanced parenthesis sequence with query support."""

    __slots__ = ("_exc", "_bmin", "_table", "_shift")

    def __init__(self, bits):
        self._fill(text_of(bits))
        self._exc = self._excess()
        self._bmin = self._table = self._shift = None  # built by the first search

    # -- construction helpers -------------------------------------------------

    def _passes(self):
        """(first word, bytes) of each lane pass: the little-endian bytes of
        ``_CHUNK`` bits of words at a time. The last word's padding is set to
        ones, so the excess past n rises and every word's lowest excess is
        its lowest at positions up to n."""
        words = self._words
        step = _RAW // 8
        r = self.n % WORD  # bits of the last word, if it is not full
        for k0 in range(0, len(words), step):
            raw = le_bytes(words[k0 : k0 + step])
            if r and k0 + step >= len(words):
                raw = raw[:-8] + (int.from_bytes(raw[-8:], "little") | (_ONES64 >> r << r)).to_bytes(8, "little")
            yield k0, raw

    def _excess(self):
        """The excess at each position 0..n less the excess at its 64-bit
        block's start, plus 64, one byte per position, checked for balance.

        Block k holds positions 64k + 1..64k + 64; position 0 holds 64. Each
        lane pass (``_passes``, ``_word_lanes``) gives, in one 8-bit lane per
        byte of the words, the excess before that byte less the excess at
        its word's start, plus 56; adding the bytes translated by bit b's
        table gives the excess after bit b of every byte less its word's
        start, plus 64, positions 8 apart, which one extended slice writes.
        Every lane lies in 0..128, so none carries into the next. The pass's
        exact word minima then check that the excess never drops below
        zero: the first word k whose minimum is negative starts at an excess
        ``2 * _cum1[k] - 64k`` below 64, and its first -1 is its first byte
        63 less that."""
        n = self.n
        out = bytearray(n + 1 + -n % WORD)  # positions 0..64 * words
        out[0] = 64
        cum1 = self._cum1
        for k0, raw in self._passes():
            nb = len(raw)
            rel, minima = _word_lanes(raw)
            lo = WORD * k0 + 1
            for b, after in enumerate(_AFTER_BIT):
                lanes = rel + int.from_bytes(raw.translate(after), "little")
                out[lo + b : lo + 8 * nb : 8] = lanes.to_bytes(nb, "little")
            if min(_exact_minima(cum1, k0, minima)) < 0:
                k = k0 + next(i for i, v in enumerate(_exact_minima(cum1, k0, minima)) if v < 0)
                first = out.index(63 - 2 * cum1[k] + WORD * k, WORD * k + 1)
                raise ValidationError(f"unbalanced sequence: excess drops below zero at position {first}")
        depth = 2 * cum1[-1] - n
        if depth:
            raise ValidationError(f"unbalanced sequence: {depth} unmatched opening parentheses")
        del out[n + 1 :]
        return out

    def block_minima(self):
        """The excess minimum of each 64-bit block, a list built on first use
        from the words' lanes (``_word_lanes``); the sparse table over them
        is not built."""
        if self._bmin is None:
            bmin = []
            for k0, raw in self._passes():
                bmin += _exact_minima(self._cum1, k0, _word_lanes(raw)[1])
            self._bmin = bmin
        return self._bmin

    def _build_table(self):
        """The sparse table of packed entries over the block minima, one
        ``array('q')`` per level.

        Level 0 packs the block minima; level j + 1 is the lane-wise minimum
        (``_lane_min``) of level j and level j shifted by 2^j entries, over
        ``_LANES`` entries at a time. Every row, level 0 too, is written and
        read as its little-endian bytes (``from_le``, ``le_bytes``), as the
        words are. An entry is below 2^63, as a lane must be, while n is
        below 2^34: the minima are at most n / 2."""
        bmin = self.block_minima()
        nblocks = len(bmin)
        # table[j][k] = (min << shift) | leftmost block, over blocks [k, k + 2^j)
        self._shift = shift = nblocks.bit_length()
        entries = map(add, map(lshift, bmin, repeat(shift)), range(nblocks))
        row = _row(nblocks)
        for lo in range(0, nblocks, _LANES):
            part = tuple(islice(entries, _LANES))
            row[lo : lo + len(part)] = from_le(struct.pack(f"<{len(part)}q", *part))
        table = [row]
        span = 1
        while 2 * span <= nblocks:
            prev = row
            row = _row(len(prev) - span)
            for lo in range(0, len(row), _LANES):
                hi = min(lo + _LANES, len(row))
                mins = _lane_min(
                    int.from_bytes(le_bytes(prev[lo:hi]), "little"),
                    int.from_bytes(le_bytes(prev[lo + span : hi + span]), "little"),
                    _H64 >> 64 * (_LANES - (hi - lo)),
                    64,
                )
                row[lo:hi] = from_le(mins.to_bytes(8 * (hi - lo), "little"))
            table.append(row)
            span *= 2
        self._table = table

    def block_tables(self):
        """(block minima, sparse table), built on first use. A table entry is
        ``(min << shift) | leftmost block`` with ``shift = len(bmin).bit_length()``."""
        if self._table is None:
            self._build_table()
        return self._bmin, self._table

    # -- basic queries ---------------------------------------------------------

    def to_string(self) -> str:
        return self.to_text().translate(_DIGIT_TO_PAREN)

    def excess(self, x: int) -> int:
        """rank_1(x) - rank_0(x); the depth profile of the sequence."""
        self._check_pos(x)
        return self._depth(x)

    def _depth(self, x):
        """excess(x) for 1 <= x <= n: the excess at the start of x's block
        plus x's byte less 64."""
        k = (x - 1) // _BLOCK
        return 2 * self._cum1[k] - k * _BLOCK + self._exc[x] - 64

    # -- matching --------------------------------------------------------------

    def close(self, x: int) -> int:
        """Position of the closing parenthesis matching the opening one at x."""
        if self.bit(x) != OPEN:
            raise ContractError(f"position {x} is not an opening parenthesis")
        if self._table is None:
            self._build_table()
        return self._fwd_to(x + 1, self._depth(x) - 1)

    def open(self, x: int) -> int:
        """Position of the opening parenthesis matching the closing one at x."""
        if self.bit(x) != CLOSE:
            raise ContractError(f"position {x} is not a closing parenthesis")
        if self._table is None:
            self._build_table()
        return self._bwd_to(x - 1, self._depth(x)) + 1

    def _fwd_to(self, start: int, target: int) -> int:
        """Smallest y >= start with excess(y) == target; target < excess(start-1).

        Each searched range lies in one block k, whose bytes are the excess
        less ``2 * _cum1[k] - 64k``, plus 64, so the first byte equal to
        target's is the match."""
        exc = self._exc
        cum1 = self._cum1
        kb = (start - 1) // _BLOCK
        try:
            return exc.index(target - 2 * cum1[kb] + kb * _BLOCK + 64, start, (kb + 1) * _BLOCK + 1)
        except ValueError:
            pass
        # The excess stays above target up to the end of block kb and moves
        # by one, so the first later block whose minimum is <= target holds
        # the match. Descend the table from the top: skip each window of 2^j
        # blocks whose minimum is above target.
        table = self._table
        above = ((target + 1) << self._shift) - 1  # entries above it have min > target
        nb = len(table[0])
        k = kb + 1
        for j in reversed(range((nb - k).bit_length())):
            if k + (1 << j) <= nb and table[j][k] > above:
                k += 1 << j
        if k == nb:
            raise ContractError(f"no matching excess {target} forward of position {start}")
        return exc.index(target - 2 * cum1[k] + k * _BLOCK + 64, k * _BLOCK + 1, (k + 1) * _BLOCK + 1)

    def _bwd_to(self, start: int, target: int) -> int:
        """Largest y <= start (possibly 0) with excess(y) == target; target <
        excess(start) and start >= 1, as position 1 of a balanced sequence
        opens. Block kb's byte of target is below 0 when the block does not
        reach down to it: -1 for open(x) at the closer after a block of 64
        closers. rindex raises ValueError for it, as for a miss."""
        exc = self._exc
        cum1 = self._cum1
        kb = (start - 1) // _BLOCK
        try:
            return exc.rindex(target - 2 * cum1[kb] + kb * _BLOCK + 64, kb * _BLOCK + 1, start + 1)
        except ValueError:
            pass
        # Mirror of _fwd_to: the last earlier block whose minimum is <= target
        # holds the match, at its rightmost position with that excess.
        table = self._table
        above = ((target + 1) << self._shift) - 1
        k = kb  # blocks [0, k) are left to search
        for j in reversed(range(k.bit_length())):
            if k >= 1 << j and table[j][k - (1 << j)] > above:
                k -= 1 << j
        if k == 0:
            if target == 0:
                return 0
            raise ContractError(f"no matching excess {target} backward of position {start}")
        return exc.rindex(target - 2 * cum1[k - 1] + (k - 1) * _BLOCK + 64, (k - 1) * _BLOCK + 1, k * _BLOCK + 1)

    # -- range minimum over the excess array ------------------------------------

    def rmq_excess(self, l: int, r: int) -> int:
        """Leftmost position in [l, r] with minimal excess."""
        if not 1 <= l <= r <= self.n:
            raise RangeError(f"range [{l}, {r}] invalid for length {self.n}")
        return self._range_min(l, r)[1]

    def rmq_closers(self, i: int, j: int) -> int:
        """rank_0 of the leftmost position of minimal excess between the i-th
        and the j-th closing parentheses: the kernel of every engine's 2
        select + 1 rmq + 1 rank, in one call. One closer is its own answer.
        Otherwise both closers are found from the closers' select directory
        and in-word offsets, the range check having covered select's, and
        since excess = rank_1 - rank_0 and x = rank_1 + rank_0, rank_0(x) is
        (x - excess(x)) / 2."""
        cum = self._cum0
        if not 1 <= i <= j <= cum[-1]:
            raise RangeError(f"closers [{i}, {j}] invalid for {cum[-1]} closing parentheses")
        if i == j:
            return i
        sel, off = self._sel0, self._off0
        if sel is None:
            sel, off = self._select_tables(CLOSE)
        v, x = self._range_min(_select_at(cum, sel, off, i), _select_at(cum, sel, off, j))
        return (x - v) >> 1

    def _range_min(self, l, r):
        """(minimal excess over [l, r], its leftmost position), 1 <= l <= r <= n.

        An end block is scanned by min and index on its bytes, which order
        as its excess does. The whole blocks between the ends
        take their minimum from two entries of one table row; an end block is
        then scanned only if its block minimum could win against it, and the
        winning whole block only to place it."""
        table = self._table
        if table is None:
            self._build_table()
            table = self._table
        exc = self._exc
        cum1 = self._cum1
        kl = (l - 1) // _BLOCK
        kr = (r - 1) // _BLOCK
        lo = kl * _BLOCK
        if kl == kr:
            seg = exc[l : r + 1]
            m = min(seg)
            return 2 * cum1[kl] - lo + m - 64, l + seg.index(m)
        bmin = self._bmin
        best_v = best_p = None  # best_p stays None while best_v is a whole block's
        if kr - kl > 1:
            j = (kr - kl - 1).bit_length() - 1
            row = table[j]
            best = row[kl + 1]
            other = row[kr - (1 << j)]
            if other < best:
                best = other
            shift = self._shift
            best_v = best >> shift
            mk = best - (best_v << shift)
        if best_v is None or bmin[kl] <= best_v:
            seg = exc[l : lo + _BLOCK + 1]
            m = min(seg)
            v = 2 * cum1[kl] - lo + m - 64
            if best_v is None or v <= best_v:
                best_v, best_p = v, l + seg.index(m)
        if bmin[kr] < best_v:
            hi = kr * _BLOCK
            seg = exc[hi + 1 : r + 1]
            m = min(seg)
            v = 2 * cum1[kr] - hi + m - 64
            if v < best_v:
                return v, hi + 1 + seg.index(m)
        if best_p is None:
            # block mk holds its minimum, so the first match past its start is in it
            lo = mk * _BLOCK
            return best_v, exc.index(best_v - 2 * cum1[mk] + lo + 64, lo + 1)
        return best_v, best_p

    def __repr__(self):
        s = self.to_string()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"ParenSeq({s})"


def _lane_min(x, y, high, bits):
    """Lane-wise minimum of two ints of lanes of ``bits`` bits, each lane
    below 2^(bits - 1); ``high`` holds each lane's top bit, over as many
    lanes as ``x``. A lane of ``(x | high) - y`` borrows nothing, and its
    top bit is set where x >= y."""
    ge = (((x | high) - y) & high) >> (bits - 1)
    return x ^ ((x ^ y) & (ge * ((1 << bits) - 1)))


def _word_lanes(raw):
    """The lanes of whole words, given as their little-endian bytes ``raw``:
    (rel, minima). Lane 8k + j of ``rel`` (8-bit lanes, in the bytes' order)
    is the excess before byte j of word k less the excess at the word's
    start, plus 56. ``minima`` holds each word's lowest excess less the
    excess at its start, plus 64: one byte per word.

    ``rel`` is an exclusive prefix sum, inside each word, of the bytes'
    total steps plus 8, in three doubling steps, then less 8j. No lane
    carries into the next: every sum lies in 0..112. A lane's lowest
    excess is ``rel`` plus its byte's lowest plus 8, at most 121, and three
    lane minima with the lanes 4, 2 and 1 higher bring each word's lowest
    into its first lane."""
    nb = len(raw)
    top = 8 * (_RAW - nb)  # bits that cut a pattern of whole words to nb bytes
    rel = (int.from_bytes(raw.translate(_BYTE_STEP), "little") << 8) & _FROM[0]
    for s, mask in zip((8, 16, 32), _FROM):
        rel += (rel << s) & mask
    rel += _REL0 >> top
    low = rel + int.from_bytes(raw.translate(_BYTE_LOW), "little")
    high = _H8 >> top
    for s in (32, 16, 8):
        low = _lane_min(low, low >> s, high, 8)
    return rel, low.to_bytes(nb, "little")[::8]


def _exact_minima(cum1, k0, minima):
    """The lowest excess of words k0, k0 + 1, ... from their ``minima``
    bytes (``_word_lanes``): the excess at each word's start, ``2 * _cum1[k]
    - 64k``, plus its byte less 64."""
    k1 = k0 + len(minima)
    cum = cum1[k0:k1]
    return map(add, map(sub, map(add, cum, cum), range(WORD * k0 + 64, WORD * k1 + 64, WORD)), minima)


def _row(m):
    """A table row of m entries, allocated at its exact size."""
    return array("q", bytes(8)) * m


class WeightedBits:
    """Weighted prefix select over a parenthesis sequence of n bits, held as
    the weight tables of one side alone.

    The weights sit on one kind of parenthesis, opening or closing; which
    kind is the caller's to know. The tables are two typed arrays of equal
    length: the weighted positions in increasing order, an ``array('q')``,
    and the cumulative weight up to and including each, an array of
    integers (``'i'`` or ``'q'``, as ``mliq`` holds the left endpoints, or
    ``'Q'`` where the total may reach 2^63). They are
    kept as given (not copied): their order and their symbols are the
    caller's to vouch for, as ``mliq`` does for the tables it reads off the
    length heap.
    """

    __slots__ = ("n", "positions", "cum")

    def __init__(self, n, positions, cum):
        if len(positions) != len(cum):
            raise ValidationError(f"{len(positions)} weighted positions but {len(cum)} cumulative weights")
        self.n = n
        self.positions = positions
        self.cum = cum

    def bpselect(self, budget: int) -> int:
        """Largest position whose weight prefix sum stays within budget."""
        if budget < 0:
            raise ContractError(f"budget must be non-negative, got {budget}")
        k = bisect_right(self.cum, budget)
        if k == len(self.positions):
            return self.n
        return self.positions[k] - 1

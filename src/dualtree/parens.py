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
Each table entry is one Python int, ``(block minimum << shift) | block`` with
``shift = blocks.bit_length()``, so ``min`` of two entries is the smaller
minimum together with its leftmost block. Level 0 packs the block minima and
each next level is ``map(min, row, row shifted by 2^j)``, which returns one of
its arguments: building the table allocates no tuple per entry and no list
per block (the block minima come from one slice at a time), so the first
search neither holds every slice at once nor wakes the garbage collector.
Inside a block every step is one C-level operation on the excess bytes:
``min`` of a translated slice and ``index`` of its value. The range minimum
is one body, ``_range_min``, shared by ``rmq_excess`` and ``rmq_closers``:
it takes the minimum of the whole blocks from the table and scans an end
block only when its block minimum could beat or tie that. Adjacent excess
values differ by exactly one, so the matching searches (open/close) look for
the nearest block, forward or backward, whose minimum is <= the target excess: they
descend the same sparse table from its top level, skipping each window of
2^j blocks whose entries are above ``((target + 1) << shift) - 1``, which
reads at most log2(blocks) + 1 table entries, and finish with one ``index``
inside that block.
The excess is held as ``bytes`` of its values mod 256, one byte per bit,
however deep the sequence nests. A block is one 64-bit word, so the excess
at block k's start is ``2 * _cum1[k] - 64k``, from the rank table, and
inside the block the excess lies within 64 of it: 129 values, whose residues
are distinct. ``excess(x)`` adds x's offset from its block's start, read
from the two residues; the in-block searches of open/close and the placement
of ``rmq_excess``'s answer are ``bytes.index``/``rindex`` (memchr) of the
target's residue; and a range minimum translates the slice by one of 256
order-preserving tables, ``(v - start + 128) & 255``, before ``min`` and
``index``. The constructor sums the excess from the text it was given, a
chunk at a time, and checks the balance. The block minima are built when
``block_minima`` is first asked for them, as a save or a load does for the
blob's EMIN section, and the sparse table on the first search (a range
minimum, open or close) or ``block_tables``, so a sequence that is only
compared, decoded or stored as bits never pays for either, and one that is
only saved or loaded never pays for the table.
"""

import sys
from array import array
from bisect import bisect_right
from itertools import accumulate, islice, repeat
from operator import add, lshift, sub

from .bitseq import WORD, BitSeq, _select_at, text_of
from .errors import ContractError, RangeError, ValidationError

OPEN = 1
CLOSE = 0

_BLOCK = WORD  # one block per word, so _cum1[k] is the rank at block k's start
_CHUNK = 1 << 11  # excess steps summed into one list at a time; few, so a deep excess holds few ints

_STEPS = bytes.maketrans(b"01", b"\xff\x01")  # '0' -> -1, '1' -> +1 as signed bytes
_DIGIT_TO_PAREN = str.maketrans("10", "()")
_LOW_BYTES = slice(7 if sys.byteorder == "big" else 0, None, 8)  # of an array('Q')'s bytes

# _ORDER[b] maps a residue v to (v - b + 128) & 255. Inside a block the excess
# lies within 64 of its value at the block's start, whose residue is b, so
# this map preserves the order of the block's excess values.
_ORDER = [bytes((v - b + 128) & 255 for v in range(256)) for b in range(256)]


class ParenSeq(BitSeq):
    """Immutable balanced parenthesis sequence with query support."""

    __slots__ = ("_exc", "_bmin", "_table", "_shift")

    def __init__(self, bits):
        text = text_of(bits)
        self._fill(text)
        self._exc = _excess(text)
        self._bmin = self._table = self._shift = None  # built by the first search

    # -- construction helpers -------------------------------------------------

    def block_minima(self):
        """The excess minimum of each 64-bit block, a list built on first use;
        the sparse table over them is not built."""
        if self._bmin is None:
            exc = self._exc
            n = self.n
            nblocks = (n + _BLOCK - 1) // _BLOCK
            # block k's minimum is its start's excess, 2 * _cum1[k] - 64k, plus
            # the minimum of its translated residues less 128
            cum1 = self._cum1
            starts = map(sub, map(add, cum1, cum1), range(128, 128 + _BLOCK * nblocks, _BLOCK))
            blocks = (exc[lo : lo + _BLOCK] for lo in range(1, n + 1, _BLOCK))
            orders = map(_ORDER.__getitem__, exc[0:n:_BLOCK])
            self._bmin = list(map(add, starts, map(min, map(bytes.translate, blocks, orders))))
        return self._bmin

    def _build_table(self):
        """The sparse table of packed entries over the block minima."""
        bmin = self.block_minima()
        nblocks = len(bmin)
        # table[j][k] = (min << shift) | leftmost block, over blocks [k, k + 2^j)
        self._shift = shift = nblocks.bit_length()
        table = [list(map(add, map(lshift, bmin, repeat(shift)), range(nblocks)))]
        span = 1
        while 2 * span <= nblocks:
            prev = table[-1]
            table.append(list(map(min, prev, islice(prev, span, None))))
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
        plus x's offset from it, read from the two residues."""
        k = (x - 1) // _BLOCK
        lo = k * _BLOCK
        exc = self._exc
        return 2 * self._cum1[k] - lo + ((exc[x] - exc[lo] + 128) & 255) - 128

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

        Each searched range lies in one block, where the excess takes at
        most 129 values around target's, so their residues are distinct and
        the first byte equal to target's residue is the match."""
        exc = self._exc
        low = target & 255
        kb = (start - 1) // _BLOCK
        try:
            return exc.index(low, start, (kb + 1) * _BLOCK + 1)
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
        return exc.index(low, k * _BLOCK + 1, (k + 1) * _BLOCK + 1)

    def _bwd_to(self, start: int, target: int) -> int:
        """Largest y <= start (possibly 0) with excess(y) == target; target <
        excess(start) and start >= 1, as position 1 of a balanced sequence
        opens."""
        exc = self._exc
        low = target & 255
        kb = (start - 1) // _BLOCK
        try:
            return exc.rindex(low, kb * _BLOCK + 1, start + 1)
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
        return exc.rindex(low, (k - 1) * _BLOCK + 1, k * _BLOCK + 1)

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

        An end block is scanned by min and index on its residues, translated
        by the order of the block's start. The whole blocks between the ends
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
            seg = exc[l : r + 1].translate(_ORDER[exc[lo]])
            m = min(seg)
            return 2 * cum1[kl] - lo + m - 128, l + seg.index(m)
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
            seg = exc[l : lo + _BLOCK + 1].translate(_ORDER[exc[lo]])
            m = min(seg)
            v = 2 * cum1[kl] - lo + m - 128
            if best_v is None or v <= best_v:
                best_v, best_p = v, l + seg.index(m)
        if bmin[kr] < best_v:
            hi = kr * _BLOCK
            seg = exc[hi + 1 : r + 1].translate(_ORDER[exc[hi]])
            m = min(seg)
            v = 2 * cum1[kr] - hi + m - 128
            if v < best_v:
                return v, hi + 1 + seg.index(m)
        if best_p is None:
            lo = mk * _BLOCK + 1
            return best_v, exc.index(best_v & 255, lo, lo + _BLOCK)
        return best_v, best_p

    def __repr__(self):
        s = self.to_string()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"ParenSeq({s})"


def _excess(text):
    """The excess of a 0/1 text mod 256, one byte per position 0..n,
    checked for balance.

    It is summed ``_CHUNK`` steps at a time into a list, which joins an
    ``array('Q')`` in one ``fromlist``, whose low bytes are the chunk's
    residues: an array filled from ``accumulate`` directly converts one int
    at a time, several times slower, and unsigned entries convert about four
    times faster than signed ones. A negative excess cannot join them, so the
    OverflowError is the check that the excess never drops below zero. Only
    one chunk's ints and entries are alive at a time."""
    steps = memoryview(text.encode("ascii").translate(_STEPS)).cast("b")
    pieces = [b"\0"]  # excess(0) = 0
    depth = 0
    for lo in range(0, len(steps), _CHUNK):
        part = list(accumulate(steps[lo : lo + _CHUNK], initial=depth))
        del part[0]  # depth, already in
        chunk = array("Q")
        try:
            chunk.fromlist(part)
        except OverflowError:
            # steps are +-1, so the first negative excess is the first -1
            raise ValidationError(
                f"unbalanced sequence: excess drops below zero at position {lo + 1 + part.index(-1)}"
            ) from None
        depth = part[-1]
        pieces.append(chunk.tobytes()[_LOW_BYTES])
        del part, chunk
    if depth != 0:
        raise ValidationError(f"unbalanced sequence: {depth} unmatched opening parentheses")
    del steps
    return b"".join(pieces)


class WeightedBits:
    """Weighted prefix select over a parenthesis sequence of n bits, held as
    the weight tables of one side alone.

    The weights sit on one kind of parenthesis, opening or closing; which
    kind is the caller's to know. The tables are two typed arrays of equal
    length: the weighted positions in increasing order, an ``array('q')``,
    and the cumulative weight up to and including each, an array of 64-bit
    integers (``'q'``, or ``'Q'`` where the total may reach 2^63). They are
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

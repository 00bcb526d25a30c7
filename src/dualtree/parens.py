"""Balanced-parenthesis sequences.

A ParenSeq wraps a balanced BitSeq (1 = opening, 0 = closing) and adds the
excess profile, matching (open/close) and leftmost range-minimum queries
over the excess array. A WeightedBits answers weighted prefix select
(``bpselect``) over per-side parenthesis weights of a sequence of n bits;
it holds only the weight tables, not the bits.

The excess RMQ uses fixed-size block minima plus a sparse table over blocks.
Each table entry is one Python int, ``(block minimum << shift) | block`` with
``shift = blocks.bit_length()``, so ``min`` of two entries is the smaller
minimum together with its leftmost block. Level 0 packs the block minima and
each next level is ``map(min, row, row shifted by 2^j)``, which returns one of
its arguments: building the table allocates no tuple per entry and no list
per block (the block minima come from one slice at a time), so the first
search neither holds every slice at once nor wakes the garbage collector.
Inside a block every step is one C-level slice operation on the excess array:
``min`` of the slice and ``index`` of its value; ``rmq_excess`` takes the
minimum of the whole blocks from the table and scans an end block only when
its block minimum could beat or tie that. Adjacent excess values differ by
exactly one, so the matching searches (open/close) look for the nearest
block, forward or backward, whose minimum is <= the target excess: they
descend the same sparse table from its top level, skipping each window of
2^j blocks whose entries are above ``((target + 1) << shift) - 1``, which
reads at most log2(blocks) + 1 table entries, and finish with one ``index``
inside that block.
The excess array is typed, ``array('I')`` (``'Q'`` from 2^32 bits on), so it
takes four bytes per bit however deep the sequence nests; the constructor
sums it from the text it was given, in chunks, and checks the balance. The
block minima and sparse table are built on the first search (rmq_excess,
open or close) or when ``block_tables`` is asked for them, so a sequence
that is only compared, decoded or stored as bits never pays for them.
"""

from array import array
from bisect import bisect_right
from itertools import accumulate, islice, repeat
from operator import add, lshift

from .bitseq import BitSeq, text_of
from .errors import ContractError, RangeError, ValidationError

OPEN = 1
CLOSE = 0

OPEN_WEIGHTS = "open-weights"
CLOSE_WEIGHTS = "close-weights"

_BLOCK = 64
_CHUNK = 1 << 12  # excess steps summed into one list at a time; few, so a deep excess holds few ints

_STEPS = bytes.maketrans(b"01", b"\xff\x01")  # '0' -> -1, '1' -> +1 as signed bytes
_DIGIT_TO_PAREN = str.maketrans("10", "()")


class ParenSeq:
    """Immutable balanced parenthesis sequence with query support."""

    __slots__ = ("base", "n", "_exc", "_bmin", "_table", "_shift")

    def __init__(self, bits):
        text = text_of(bits)
        self.base = bits if isinstance(bits, BitSeq) else BitSeq.of_text(text)
        self.n = self.base.n
        self._exc = _excess(text)
        self._bmin = self._table = self._shift = None  # built by the first search

    # -- construction helpers -------------------------------------------------

    def _build_blocks(self):
        """Block minima and the sparse table of packed entries over them."""
        exc = self._exc
        nblocks = (self.n + _BLOCK - 1) // _BLOCK
        self._bmin = bmin = list(map(min, (exc[lo : lo + _BLOCK] for lo in range(1, self.n + 1, _BLOCK))))
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
            self._build_blocks()
        return self._bmin, self._table

    # -- basic queries ---------------------------------------------------------

    def __len__(self):
        return self.n

    def bit(self, x: int) -> int:
        return self.base.bit(x)

    def rank(self, x: int, s: int) -> int:
        return self.base.rank(x, s)

    def select(self, i: int, s: int) -> int:
        return self.base.select(i, s)

    def to_string(self) -> str:
        return self.base.to_text().translate(_DIGIT_TO_PAREN)

    def excess(self, x: int) -> int:
        """rank_1(x) - rank_0(x); the depth profile of the sequence."""
        if not 1 <= x <= self.n:
            raise RangeError(f"position {x} outside 1..{self.n}")
        return self._exc[x]

    # -- matching --------------------------------------------------------------

    def close(self, x: int) -> int:
        """Position of the closing parenthesis matching the opening one at x."""
        if self.base.bit(x) != OPEN:
            raise ContractError(f"position {x} is not an opening parenthesis")
        if self._table is None:
            self._build_blocks()
        return self._fwd_to(x + 1, self._exc[x] - 1)

    def open(self, x: int) -> int:
        """Position of the opening parenthesis matching the closing one at x."""
        if self.base.bit(x) != CLOSE:
            raise ContractError(f"position {x} is not a closing parenthesis")
        if self._table is None:
            self._build_blocks()
        return self._bwd_to(x - 1, self._exc[x]) + 1

    def _fwd_to(self, start: int, target: int) -> int:
        """Smallest y >= start with excess(y) == target; target < excess(start-1)."""
        exc = self._exc
        kb = (start - 1) // _BLOCK
        try:
            return exc.index(target, start, (kb + 1) * _BLOCK + 1)
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
        return exc.index(target, k * _BLOCK + 1, (k + 1) * _BLOCK + 1)

    def _bwd_to(self, start: int, target: int) -> int:
        """Largest y <= start (possibly 0) with excess(y) == target; target < excess(start)."""
        exc = self._exc
        if start <= 0:
            if target == 0:
                return 0
            raise ContractError("no matching excess before the sequence start")
        kb = (start - 1) // _BLOCK
        try:
            return _rindex(exc, target, kb * _BLOCK + 1, start)
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
        return _rindex(exc, target, (k - 1) * _BLOCK + 1, k * _BLOCK)

    # -- range minimum over the excess array ------------------------------------

    def rmq_excess(self, l: int, r: int) -> int:
        """Leftmost position in [l, r] with minimal excess."""
        if not 1 <= l <= r <= self.n:
            raise RangeError(f"range [{l}, {r}] invalid for length {self.n}")
        if self._table is None:
            self._build_blocks()
        kb_l = (l - 1) // _BLOCK
        kb_r = (r - 1) // _BLOCK
        if kb_l == kb_r:
            return self._scan_value(l, r)[1]
        bmin = self._bmin
        if kb_r == kb_l + 1:
            best_v, best_p = self._scan_value(l, (kb_l + 1) * _BLOCK)
        else:
            # The table gives the minimum of the whole blocks between the two
            # ends. An end block is scanned only if its block minimum could
            # win against it, and the winning whole block only to place it.
            best_v, mk = self._block_min(kb_l + 1, kb_r - 1)
            best_p = None
            if bmin[kb_l] <= best_v:
                v, p = self._scan_value(l, (kb_l + 1) * _BLOCK)
                if v <= best_v:
                    best_v, best_p = v, p
        if bmin[kb_r] < best_v:
            v, p = self._scan_value(kb_r * _BLOCK + 1, r)
            if v < best_v:
                return p
        if best_p is None:
            lo = mk * _BLOCK + 1
            return self._exc.index(best_v, lo, lo + _BLOCK)
        return best_p

    def _scan_value(self, l, r):
        """(minimum excess over [l, r], its leftmost position)."""
        seg = self._exc[l : r + 1]
        m = min(seg)
        return m, l + seg.index(m)

    def _block_min(self, kl, kr):
        """(min value, leftmost block attaining it) over blocks [kl, kr]."""
        span = kr - kl + 1
        j = span.bit_length() - 1
        row = self._table[j]
        best = row[kl]
        other = row[kr - (1 << j) + 1]
        if other < best:
            best = other
        shift = self._shift
        v = best >> shift
        return v, best - (v << shift)

    def __eq__(self, other):
        return isinstance(other, ParenSeq) and self.base == other.base

    def __hash__(self):
        return hash(self.base)

    def __repr__(self):
        s = self.to_string()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"ParenSeq({s})"


def excess_typecode(n):
    """Typecode of the excess array of a sequence of n bits. A balanced
    sequence's excess lies in 0..n, so it takes unsigned 32-bit entries below
    2^32 bits and 64-bit ones from there on."""
    return "I" if n < 1 << 8 * array("I").itemsize else "Q"


def _excess(text):
    """The excess array of a 0/1 text, checked for balance.

    It is summed ``_CHUNK`` steps at a time into a list, which joins the
    array in one ``fromlist``: an array filled from ``accumulate`` directly
    converts one int at a time, several times slower, and unsigned entries
    convert about four times faster than signed ones. A negative excess
    cannot join them, so the OverflowError is the check that the excess
    never drops below zero."""
    steps = memoryview(text.encode("ascii").translate(_STEPS)).cast("b")
    exc = array(excess_typecode(len(text)), [0])
    for lo in range(0, len(steps), _CHUNK):
        part = list(accumulate(steps[lo : lo + _CHUNK], initial=exc[-1]))
        del part[0]  # exc[-1], already in
        try:
            exc.fromlist(part)
        except OverflowError:
            # steps are +-1, so the first negative excess is the first -1
            raise ValidationError(
                f"unbalanced sequence: excess drops below zero at position {lo + 1 + part.index(-1)}"
            ) from None
    if exc[-1] != 0:
        raise ValidationError(f"unbalanced sequence: {exc[-1]} unmatched opening parentheses")
    return exc


def _rindex(seq, v, lo, hi):
    """Largest y in [lo, hi] with seq[y] == v (lo >= 1); ValueError if none."""
    return hi - seq[hi : lo - 1 : -1].index(v)


class WeightedBits:
    """Weighted prefix select over a parenthesis sequence of n bits, held as
    its weight tables alone.

    Weights on the ``OPEN_WEIGHTS`` side sit on opening parentheses, those on
    the ``CLOSE_WEIGHTS`` side on closing ones. A side is two typed tables of
    equal length, ``(positions, cumulative weights)``: its weighted positions
    in increasing order, an ``array('q')``, and the cumulative weight up to
    and including each, an array of 64-bit integers (``'q'``, or ``'Q'``
    where the total may reach 2^63). The tables are kept as given (not
    copied): their order and their symbols are the caller's to vouch for, as
    ``mliq`` does for the tables it reads off the length heap.
    """

    __slots__ = ("n", "_open", "_close")

    def __init__(self, n, open_weights=None, close_weights=None):
        self.n = n
        self._open = _weight_table(open_weights)
        self._close = _weight_table(close_weights)

    def weight_prefix(self, side: str, x: int) -> int:
        """Sum of side-weights at positions <= x (x may be 0..n)."""
        if not 0 <= x <= self.n:
            raise RangeError(f"position {x} outside 0..{self.n}")
        positions, cum = self._weight_tables(side)
        k = bisect_right(positions, x)
        return cum[k - 1] if k else 0

    def bpselect(self, side: str, budget: int) -> int:
        """Largest position whose side-weight prefix sum stays within budget."""
        return self.bpselect_with_count(side, budget)[0]

    def bpselect_with_count(self, side: str, budget: int):
        """As ``bpselect`` but also reports how many weighted positions fit.

        The count comes out of the same binary search, so callers that need
        the ordinal of the boundary weight pay for a single query.
        """
        if budget < 0:
            raise ContractError(f"budget must be non-negative, got {budget}")
        positions, cum = self._weight_tables(side)
        k = bisect_right(cum, budget)
        if k == len(positions):
            return self.n, k
        return positions[k] - 1, k

    def _weight_tables(self, side: str):
        if side == OPEN_WEIGHTS:
            tables = self._open
        elif side == CLOSE_WEIGHTS:
            tables = self._close
        else:
            raise ContractError(f"unknown weight side {side!r}")
        if tables is None:
            raise ContractError(f"no {side} attached to this sequence")
        return tables


def _weight_table(tables):
    """The ``(positions, cumulative weights)`` pair of one side, kept as it
    is, or None."""
    if tables is None:
        return None
    positions, cum = tables
    if len(positions) != len(cum):
        raise ValidationError(f"{len(positions)} weighted positions but {len(cum)} cumulative weights")
    return positions, cum

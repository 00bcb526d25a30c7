"""Plain bit sequences with rank and select support.

Positions are 1-based throughout. Bits are packed into 64-bit words with
per-word cumulative counts, so ``rank`` costs one popcount. ``select`` reads
a directory that samples every 256th occurrence of its symbol (the
cumulative-count index reached there), binary-searches the cumulative table
only between two samples for the word that holds the occurrence, and reads
the occurrence's offset inside that word from a table of one byte per
occurrence (sampled select, as in Navarro & Providel, SEA 2012, with the
in-word select stored rather than computed). A window of 256 occurrences
spans few words unless its symbol is sparse there, so the search takes a few
probes, and never more than the O(log n) of a search over the whole table.
Each symbol's directory, about one entry per 256 occurrences, and its
offsets are built in bulk by its first select, so a sequence that is never
searched never holds them. The tables are derived from the bits alone;
rebuilding a sequence always reproduces them.
Construction runs in bulk steps: the text is packed ``_PACK`` digits at a
time, each piece read reversed as one big integer whose little-endian bytes
join the words, so no reversed copy of the whole text is ever held, and the
cumulative counts come from ``accumulate``.

``text_of`` is the one reader of bit input: it turns a BitSeq, a string of
'0'/'1' digits or parentheses, or an iterable of 0/1 symbols into '0'/'1'
text, for the constructors here and in ``parens`` and for the decoders of
``codec``. A symbol that is no bit is a ParseError at its position.

The tables are typed arrays, so a sequence's size is fixed bytes per bit:
the words are an ``array('Q')``, the cumulative one- and zero-counts and
the select directories ``array('q')``, and the in-word offsets ``bytes``.
``le_buffer`` and ``le_bytes`` give such a table's little-endian bytes on
any host, and ``from_le`` reads them back; on a little-endian host
``le_buffer`` is the table itself and ``read_le`` reads a file's integers
straight into the typed array that ``le_table`` returns, so neither way
copies them. The four take integers of any item size: an index's input
tables are 4 or 8 bytes each. ``_BIG_ENDIAN`` is read when they run, so
each byteswap can be tested on any host.

A balanced parenthesis sequence is a BitSeq too: ``parens.ParenSeq``
subclasses it, packs its text the same way and adds the excess tables. A
sequence equals only a sequence of its own class with the same bits.
"""

import re
import sys
from array import array
from bisect import bisect_left
from itertools import accumulate, cycle, repeat
from operator import getitem, sub

from .errors import NotFoundError, ParseError, RangeError

WORD = 64
_MASKS = [(1 << (r + 1)) - 1 for r in range(WORD)]
_SAMPLE_SHIFT = 8
_SAMPLE = 1 << _SAMPLE_SHIFT  # occurrences between two select directory entries

_NOT_A_BIT = re.compile(r"[^01()]")
_ALL_DIGITS = re.compile(r"[01]*")
_CHAR_TO_DIGIT = bytes.maketrans(b"()", b"10")
_BYTE_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")

_BIG_ENDIAN = sys.byteorder == "big"


def _offset_tables():
    """Table k maps a byte value to the offsets 8k + bit of its set bits, in
    increasing order: the in-word offsets of the ones of a word's k-th
    little-endian byte."""
    return [[bytes(8 * k + bit for bit in range(8) if v >> bit & 1) for v in range(256)] for k in range(8)]


_OFFSETS = _offset_tables()
_COMPLEMENT = bytes(range(255, -1, -1))  # a byte's bits flipped, by translate
_JOIN = 1 << 10  # word bytes mapped and joined at a time: a join holds about 88 B per piece it joins
_PACK = 1 << 14  # digits packed into words at a time, a multiple of WORD


class BitSeq:
    """Immutable sequence of {0,1} symbols supporting rank/select."""

    __slots__ = ("n", "_words", "_cum1", "_cum0", "_sel1", "_sel0", "_off1", "_off0")

    def __init__(self, bits):
        self._fill(text_of(bits))

    def _fill(self, text):
        """Pack a text of '0'/'1' digits, taken as it is, ``_PACK`` digits at a
        time, and count its ranks."""
        self.n = n = len(text)
        nwords = (n + WORD - 1) // WORD
        packed = []
        for lo in range(0, n, _PACK):
            digits = text[lo : lo + _PACK]
            packed.append(int(digits[::-1], 2).to_bytes((len(digits) + WORD - 1) // WORD * 8, "little"))
        self._words = from_le(b"".join(packed), "Q")
        del packed
        self._cum1 = array("q", accumulate(map(int.bit_count, self._words), initial=0))
        self._cum0 = array("q", map(sub, range(0, WORD * nwords + 1, WORD), self._cum1))
        self._cum0[-1] = n - self._cum1[-1]
        # select directories and in-word offsets, built by the first select of each symbol
        self._sel1 = self._sel0 = self._off1 = self._off0 = None

    def __len__(self):
        return self.n

    def bit(self, x: int) -> int:
        self._check_pos(x)
        return (self._words[(x - 1) // WORD] >> ((x - 1) % WORD)) & 1

    def iter_bits(self):
        return map(int, self.to_text())

    def to_text(self) -> str:
        """The bits as a string of '0'/'1', position 1 first."""
        if not self.n:
            return ""
        big = int.from_bytes(le_bytes(self._words), "little")
        return format(big, f"0{self.n}b")[::-1]

    def count(self, s: int) -> int:
        """Total number of symbol ``s`` in the sequence."""
        return self._cum1[-1] if s else self._cum0[-1]

    def rank(self, x: int, s: int) -> int:
        """Number of occurrences of ``s`` at positions 1..x inclusive."""
        self._check_pos(x)
        w, r = divmod(x - 1, WORD)
        ones = self._cum1[w] + (self._words[w] & _MASKS[r]).bit_count()
        return ones if s else x - ones

    def select(self, i: int, s: int) -> int:
        """Position of the i-th occurrence of ``s`` (smallest such position)."""
        if i < 1:
            raise RangeError(f"occurrence index {i} must be >= 1")
        if s:
            cum, sel, off = self._cum1, self._sel1, self._off1
        else:
            cum, sel, off = self._cum0, self._sel0, self._off0
        if i > cum[-1]:
            raise NotFoundError(f"sequence holds only {cum[-1]} occurrences of {s}, asked for {i}")
        if sel is None:
            sel, off = self._select_tables(s)
        return _select_at(cum, sel, off, i)

    def _select_tables(self, s):
        """Build and keep symbol s's select directory and in-word offsets.

        Directory entry k is the first index of the cumulative counts that
        reaches occurrence 256k + 1, one past the word that holds it; a last
        entry, the same index for the last occurrence, closes the last
        window. Offset i - 1 is the i-th occurrence's bit offset inside its
        word: the words' little-endian bytes (complemented for symbol 0),
        each mapped to its set bits by the table of its place in the word,
        and cut to the count, since the last word's padding complements to
        ones."""
        cum = self._cum1 if s else self._cum0
        total = cum[-1]
        sel = array("q", map(bisect_left, repeat(cum), range(1, total + 1, _SAMPLE)))
        sel.append(bisect_left(cum, total))
        raw = le_bytes(self._words)
        if not s:
            raw = raw.translate(_COMPLEMENT)
        pieces = (map(getitem, cycle(_OFFSETS), raw[lo : lo + _JOIN]) for lo in range(0, len(raw), _JOIN))
        off = b"".join([b"".join(piece) for piece in pieces])
        if len(off) > total:
            off = off[:total]
        if s:
            self._sel1, self._off1 = sel, off
        else:
            self._sel0, self._off0 = sel, off
        return sel, off

    def table_bits(self) -> int:
        """Size of the acceleration tables, in bits (reported, not bounded)."""
        return (len(self._cum1) + len(self._cum0)) * WORD

    def _check_pos(self, x: int) -> None:
        if not 1 <= x <= self.n:
            raise RangeError(f"position {x} outside 1..{self.n}")

    def __eq__(self, other):
        # of one class only: a ParenSeq never equals the plain BitSeq of its bits
        return type(other) is type(self) and self.n == other.n and self._words == other._words

    def __hash__(self):
        return hash((self.n, self._words.tobytes()))


def _select_at(cum, sel, off, i):
    """Position of a symbol's i-th occurrence, 1 <= i <= its count, from its
    cumulative counts, select directory and in-word offsets: a bisect for the
    word inside the directory's window of i, then the stored offset."""
    k = (i - 1) >> _SAMPLE_SHIFT
    return (bisect_left(cum, i, sel[k], sel[k + 1]) - 1) * WORD + 1 + off[i - 1]


def text_of(bits) -> str:
    """The '0'/'1' text of a BitSeq, a string of bits or parentheses, or an
    iterable of 0/1 symbols: the one reader of bit input. ParseError names
    the first symbol that is none, and its ``position``."""
    if isinstance(bits, BitSeq):
        return bits.to_text()
    if isinstance(bits, str):
        return _text_of_chars(bits)
    return _text_of_symbols(bits)


def le_bytes(table):
    """A typed array of integers as little-endian bytes on any host."""
    return bytes(le_buffer(table))


def le_buffer(table):
    """A typed array of integers as a buffer of its little-endian bytes: the
    array itself on a little-endian host, which a file writes from uncopied,
    and a byteswapped copy on a big-endian one."""
    if not _BIG_ENDIAN:
        return table
    table = array(table.typecode, table)
    table.byteswap()
    return table


def from_le(payload, typecode="q"):
    """Little-endian integers of ``typecode``'s item size, any bytes-like
    object, as an ``array(typecode)``; the bytes are copied in one step, not
    iterated."""
    table = array(typecode)
    table.frombytes(payload)
    if _BIG_ENDIAN:
        table.byteswap()
    return table


def read_le(fh, nbytes, typecode="q", head=b""):
    """``head``, bytes already read, and then the next ``nbytes - len(head)``
    bytes of the binary file ``fh``, fewer if it ends first, as a memoryview.
    On a little-endian host, when ``nbytes`` is a multiple of ``typecode``'s
    item size, they are read straight into an ``array(typecode)`` of that
    size, the view's ``obj``, which ``le_table`` hands over uncopied;
    otherwise, and on a big-endian host, into ``bytes``."""
    size = array(typecode).itemsize
    if _BIG_ENDIAN or nbytes % size:
        return memoryview(head + fh.read(nbytes - len(head)))
    table = array(typecode, bytes(size)) * (nbytes // size)
    view = memoryview(table).cast("B")
    view[: len(head)] = head
    return view[: len(head) + fh.readinto(view[len(head) :])]


def le_table(payload, skip=0, typecode="q"):
    """The little-endian integers of ``payload``, a memoryview, past its
    first ``skip`` bytes (a multiple of ``typecode``'s item size), as an
    ``array(typecode)``. A view of all of an array of that typecode that
    ``read_le`` filled gives that array itself, the skipped integers deleted
    in place (the view is released first, since an array a view holds cannot
    shrink); any other is copied by ``from_le``."""
    table = payload.obj
    if type(table) is not array or table.typecode != typecode or len(payload) != table.itemsize * len(table):
        return from_le(payload[skip:], typecode)
    payload.release()
    del table[: skip // table.itemsize]
    return table


def le_view(payload):
    """Little-endian signed 64-bit integers, a bytes-like object, as a
    sequence of ints: a ``'q'`` view of the bytes themselves on a
    little-endian host, and an ``array('q')`` copy on a big-endian one."""
    return from_le(payload) if _BIG_ENDIAN else memoryview(payload).cast("q")


def _text_of_chars(s: str) -> str:
    if _ALL_DIGITS.fullmatch(s):
        return s  # digit text already: the caller's string, not a copy
    if s.isascii():
        raw = s.encode("ascii")
        if not raw.translate(None, b"01()"):
            return raw.translate(_CHAR_TO_DIGIT).decode("ascii")
    bad = _NOT_A_BIT.search(s)
    raise ParseError(f"unexpected character {bad.group()!r}", bad.start() + 1)


def _text_of_symbols(bits) -> str:
    if not isinstance(bits, (bytes, bytearray)):
        bits = list(bits)
    try:
        raw = bytes(bits)
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.translate(None, b"\0\1"):
        for i, b in enumerate(bits, start=1):
            if b not in (0, 1):
                raise ParseError(f"unexpected bit {b!r}", i)
        raw = bytes(1 if b else 0 for b in bits)  # 0/1 given as floats
    return raw.translate(_BYTE_TO_DIGIT).decode("ascii")

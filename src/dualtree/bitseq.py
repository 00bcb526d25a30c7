"""Plain bit sequences with rank and select support.

Positions are 1-based throughout. Bits are packed into 64-bit words with
per-word cumulative counts, so ``rank`` costs one popcount and ``select`` a
binary search over the cumulative table plus six popcounts inside the word,
each keeping the half (32, 16, ... bits) that holds the wanted bit. The
tables are derived from the bits alone; rebuilding a sequence always
reproduces them.
Construction runs in bulk steps: the bits become one big integer, which is
cut into words, and the cumulative counts come from ``accumulate``.
"""

import re
import struct
from bisect import bisect_left
from itertools import accumulate
from operator import sub

from .errors import NotFoundError, RangeError

WORD = 64
_MASKS = [(1 << (r + 1)) - 1 for r in range(WORD)]
_FULL = (1 << WORD) - 1

_NOT_A_BIT = re.compile(r"[^01()]")
_CHAR_TO_DIGIT = str.maketrans("()", "10")
_BYTE_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")


class BitSeq:
    """Immutable sequence of {0,1} symbols supporting rank/select."""

    __slots__ = ("n", "_words", "_cum1", "_cum0")

    def __init__(self, bits):
        if isinstance(bits, BitSeq):
            text = bits.to_text()
        elif isinstance(bits, str):
            text = _text_of_chars(bits)
        else:
            text = _text_of_symbols(bits)
        self.n = len(text)
        nwords = (self.n + WORD - 1) // WORD
        packed = (int(text[::-1], 2) if text else 0).to_bytes(8 * nwords, "little")
        self._words = list(struct.unpack(f"<{nwords}Q", packed))
        self._cum1 = list(accumulate(map(int.bit_count, self._words), initial=0))
        self._cum0 = list(map(sub, range(0, WORD * nwords + 1, WORD), self._cum1))
        self._cum0[-1] = self.n - self._cum1[-1]

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
        big = int.from_bytes(struct.pack(f"<{len(self._words)}Q", *self._words), "little")
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
        cum = self._cum1 if s else self._cum0
        if i > cum[-1]:
            raise NotFoundError(f"sequence holds only {cum[-1]} occurrences of {s}, asked for {i}")
        w = bisect_left(cum, i) - 1
        need = i - cum[w]
        word = self._words[w] if s else ~self._words[w] & _FULL
        pos = w * WORD + 1
        # halve the word six times, keeping the half that holds the bit
        c = (word & 0xFFFFFFFF).bit_count()
        if c < need:
            need -= c
            word >>= 32
            pos += 32
        c = (word & 0xFFFF).bit_count()
        if c < need:
            need -= c
            word >>= 16
            pos += 16
        c = (word & 0xFF).bit_count()
        if c < need:
            need -= c
            word >>= 8
            pos += 8
        c = (word & 0xF).bit_count()
        if c < need:
            need -= c
            word >>= 4
            pos += 4
        c = (word & 0x3).bit_count()
        if c < need:
            need -= c
            word >>= 2
            pos += 2
        return pos + (word & 1 < need)

    def table_bits(self) -> int:
        """Size of the acceleration tables, in bits (reported, not bounded)."""
        return (len(self._cum1) + len(self._cum0)) * WORD

    def _check_pos(self, x: int) -> None:
        if not 1 <= x <= self.n:
            raise RangeError(f"position {x} outside 1..{self.n}")

    def __eq__(self, other):
        return isinstance(other, BitSeq) and self.n == other.n and self._words == other._words

    def __hash__(self):
        return hash((self.n, tuple(self._words)))


def _text_of_chars(s: str) -> str:
    bad = _NOT_A_BIT.search(s)
    if bad:
        raise RangeError(f"character {bad.group()!r} at position {bad.start() + 1} is not a bit or parenthesis")
    return s.translate(_CHAR_TO_DIGIT)


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
                raise RangeError(f"bit at position {i} is {b!r}, expected 0 or 1")
        raw = bytes(1 if b else 0 for b in bits)  # 0/1 given as floats
    return raw.translate(_BYTE_TO_DIGIT).decode("ascii")

"""Index blob serialization and the array / interval file formats.

Blob layout (everything little-endian):

    magic   4 bytes  b"DTR1"
    version u16      2
    kind    u16      1 = array index, 2 = interval index
    count   u32      number of sections
    section tag (4 ascii bytes), u64 payload length, payload

Array sections: VALS (u64 n + i64 values), BITS (u64 bit length + packed
words of the heap's DFUDS), RK64 (u64 word-level cumulative one-counts),
EMIN (u64 block size + i64 per-block excess minima).
Interval indexes carry INTA/INTB (endpoints) plus the same derived sections
for the length heap and WOPN/WCLS weighted-position tables (u64 count, then
u64 position and i64 weight per entry). The index holds each weighted BP
behind WOPN/WCLS as these tables alone, read off the length heap's DFUDS,
so a rebuild makes no tree and packs no bits for them.

Version 1 blobs also load. Their array blobs carry one more section, PMAP
(u64 parent per position, 0 = root); it is a function of BITS, which is
compared, so it is skipped.

Loading rebuilds the structures from the raw inputs and verifies that every
stored derived section matches the rebuilt one byte for byte, so a loaded
index answers exactly like a freshly built one. The file is read once, and
each section is a memoryview into that read, not a copy; a section is
dropped as soon as it is read or compared. An array blob's VALS is read
straight into an ``array('q')``, which the rebuilt index keeps as its
values, and an interval blob's INTA and INTB into two more, which the
rebuild checks in bulk with the rules and messages of
``mliq.build_intervals`` and then keeps as the index's endpoints. Every
64-bit section, like the binary array file, is written from a typed array
in one step (the index's own values, bit words and rank counts, uncopied),
little-endian on any host, and read back as one; WOPN/WCLS's weights are
the gaps of the cumulative tables, taken in one big-integer subtraction. A
blob that is truncated, corrupt or missing a section raises ParseError.
Values and endpoints must be signed 64-bit integers; others raise
ValidationError when read, built or saved.
"""

import struct
from array import array

from .bitseq import from_le, le_bytes
from .errors import ParseError, ValidationError
from .minheap import heap_of_table
from .mliq import intervals_from_arrays
from .parens import _BLOCK, CLOSE_WEIGHTS, OPEN_WEIGHTS

MAGIC = b"DTR1"
VERSION = 2
READABLE_VERSIONS = (1, 2)
KIND_ARRAY = 1
KIND_INTERVALS = 2

_HEADER = struct.Struct("<4sHHI")
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


# -- input files ---------------------------------------------------------------


def read_array_text(path):
    values = []
    for lineno, line in _ascii_lines(path):
        for tok in line.split():
            try:
                v = _decimal(tok)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: not an integer: {tok!r}") from None
            _check_i64(v, f"{path}:{lineno}")
            values.append(v)
    if not values:
        raise ValidationError(f"{path}: empty array file")
    return values


def read_array_binary(path):
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8:
            raise ValidationError(f"{path}: truncated length prefix")
        (n,) = struct.unpack("<Q", head)
        payload = fh.read()  # the rest of the file, measured before n sizes anything
    if len(payload) < 8 * n:
        raise ValidationError(f"{path}: expected {n} values, file too short")
    if len(payload) > 8 * n:
        raise ValidationError(f"{path}: trailing bytes after {n} values")
    if n == 0:
        raise ValidationError(f"{path}: empty array file")
    return from_le(payload).tolist()


def write_array_binary(path, values):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(values)))
        fh.write(_i64_bytes(values))


def read_intervals_text(path):
    pairs = []
    for lineno, line in _ascii_lines(path):
        toks = line.split()
        if not toks:
            continue
        if len(toks) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'a b', got {line.strip()!r}")
        try:
            a, b = _decimal(toks[0]), _decimal(toks[1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: not integers: {line.strip()!r}") from None
        if a < 0 or b < 0:
            raise ValidationError(f"{path}:{lineno}: endpoints must be non-negative")
        _check_i64(b, f"{path}:{lineno}")
        if a > b:
            raise ValidationError(f"{path}:{lineno}: left endpoint {a} exceeds right endpoint {b}")
        if pairs and a <= pairs[-1][0]:
            raise ValidationError(f"{path}:{lineno}: left endpoints not strictly increasing")
        if pairs and b <= pairs[-1][1]:
            raise ValidationError(f"{path}:{lineno}: right endpoints not strictly increasing")
        pairs.append((a, b))
    if not pairs:
        raise ValidationError(f"{path}: empty interval file")
    return pairs


def _decimal(tok):
    """The int of a plain decimal token; ValueError otherwise, also for the
    digit-group underscores that ``int`` accepts."""
    if "_" in tok:
        raise ValueError(tok)
    return int(tok)


def _ascii_lines(path):
    """(line number, line) of a text file; ValidationError names a non-ASCII byte."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00  # the escaped byte
                raise ValidationError(f"{path}:{lineno}: non-ASCII byte 0x{byte:02x}")
            yield lineno, line


def _check_i64(v, where):
    if not _I64_MIN <= v <= _I64_MAX:
        raise ValidationError(f"{where}: value {v} outside the signed 64-bit range")


# -- section plumbing ------------------------------------------------------------


def _i64_bytes(values):
    """``values`` as little-endian i64 bytes. An ``array('q')``, as the
    index's own values are, is written as it is, anything else converted
    first; ValidationError names the first value that is not a signed
    64-bit integer."""
    if not (isinstance(values, array) and values.typecode == "q"):
        try:
            values = array("q", values)
        except (TypeError, OverflowError):
            bad = next(v for v in values if not (isinstance(v, int) and _I64_MIN <= v <= _I64_MAX))
            raise ValidationError(f"cannot save {bad!r}: blobs hold signed 64-bit integers") from None
    return le_bytes(values)


def _bits_section(parenseq):
    return struct.pack("<Q", parenseq.n) + le_bytes(parenseq.base._words)


def _rank_section(parenseq):
    return le_bytes(parenseq.base._cum1)


def _emin_section(parenseq):
    return struct.pack("<Q", _BLOCK) + _i64_bytes(parenseq.block_tables()[0])


def _weight_section(weighted, side):
    """u64 count, then each entry's u64 position and i64 weight: the gap
    between its cumulative weight and the one before.

    The cumulative weights are the 64-bit slots of one big integer; as they
    never fall, subtracting the same integer shifted up one slot borrows
    across no slot and leaves every gap in its own slot."""
    positions, cum = weighted._weight_tables(side)
    count = len(cum)
    gaps = int.from_bytes(le_bytes(cum), "little")
    gaps -= (gaps << 64) & ((1 << (64 * count)) - 1)
    entries = array("q", [count]) * (2 * count + 1)
    entries[1::2] = positions
    entries[2::2] = from_le(gaps.to_bytes(8 * count, "little"))
    return le_bytes(entries)


def _i64_table(path, tag, payload):
    if len(payload) % 8:
        raise ParseError(f"{path}: {tag} section length {len(payload)} is not a multiple of 8")
    return from_le(payload)


def _write_blob(path, kind, sections):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHI", VERSION, kind, len(sections)))
        for tag, payload in sections:
            fh.write(tag.encode("ascii"))
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


def read_kind(path):
    """The kind of the blob at ``path``, from its header alone."""
    with open(path, "rb") as fh:
        return _parse_header(path, fh.read(_HEADER.size))[0]


def _parse_header(path, data):
    if data[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < _HEADER.size:
        raise ParseError(f"{path}: truncated header ({len(data)} bytes)")
    _, version, kind, count = _HEADER.unpack_from(data)
    if version not in READABLE_VERSIONS:
        raise ParseError(f"{path}: unsupported version {version}")
    if kind not in (KIND_ARRAY, KIND_INTERVALS):
        raise ParseError(f"{path}: unknown index kind {kind}")
    return kind, count


def _read_blob(path):
    """(kind, {tag: payload}); each payload is a memoryview into the one read
    of the file, so no section is copied."""
    with open(path, "rb") as fh:
        data = fh.read()
    kind, count = _parse_header(path, data)
    view = memoryview(data)
    sections = {}
    off = _HEADER.size
    for _ in range(count):
        if len(data) - off < 12:
            raise ParseError(f"{path}: truncated section header at byte {off}")
        tag = data[off : off + 4].decode("ascii", errors="replace")
        (length,) = struct.unpack_from("<Q", data, off + 4)
        off += 12
        if length > len(data) - off:
            raise ParseError(f"{path}: section {tag!r} promises {length} bytes, {len(data) - off} remain")
        if tag in sections:
            raise ParseError(f"{path}: section {tag!r} appears twice")
        sections[tag] = view[off : off + length]
        off += length
    if off != len(data):
        raise ParseError(f"{path}: {len(data) - off} trailing bytes")
    return kind, sections


def _section(path, sections, tag):
    """The payload of section ``tag``, which ``sections`` then drops, so the
    file's bytes are freed once every section has been read or compared."""
    try:
        return sections.pop(tag)
    except KeyError:
        raise ParseError(f"{path}: missing section {tag}") from None


def _check_section(path, sections, tag, rebuilt, what):
    """ParseError ``what ...`` unless section ``tag`` holds the bytes ``rebuilt``."""
    if bytes(_section(path, sections, tag)) != rebuilt:
        raise ParseError(f"{path}: stored {what}")


# -- array indexes -----------------------------------------------------------------


def save_array_index(path, h):
    sections = [
        ("VALS", struct.pack("<Q", h.n) + _i64_bytes(h.values)),
        ("BITS", _bits_section(h.dfuds)),
        ("RK64", _rank_section(h.dfuds)),
        ("EMIN", _emin_section(h.dfuds)),
    ]
    _write_blob(path, KIND_ARRAY, sections)
    return stats_for(h.dfuds, extra_values=h.n)


def load_array_index(path):
    kind, sections = _read_blob(path)
    if kind != KIND_ARRAY:
        raise ParseError(f"{path}: blob holds an interval index, not an array index")
    payload = _section(path, sections, "VALS")
    if len(payload) < 8:
        raise ParseError(f"{path}: VALS section too short for its length prefix")
    (n,) = struct.unpack_from("<Q", payload, 0)
    values = _i64_table(path, "VALS", payload[8:])
    del payload  # the array holds the values now
    if len(values) != n:
        raise ParseError(f"{path}: VALS section promises {n} values, holds {len(values)}")
    if not values:
        raise ParseError(f"{path}: VALS section holds no values")
    h = heap_of_table(values)
    _verify_derived(path, h.dfuds, sections)
    return h


# -- interval indexes ----------------------------------------------------------------


def save_interval_index(path, s):
    sections = [
        ("INTA", le_bytes(s.a)),
        ("INTB", le_bytes(s.b)),
        ("BITS", _bits_section(s.heap.dfuds)),
        ("RK64", _rank_section(s.heap.dfuds)),
        ("EMIN", _emin_section(s.heap.dfuds)),
        ("WOPN", _weight_section(s.bp_open, OPEN_WEIGHTS)),
        ("WCLS", _weight_section(s.bp_close, CLOSE_WEIGHTS)),
    ]
    _write_blob(path, KIND_INTERVALS, sections)
    return stats_for(s.heap.dfuds, extra_values=2 * s.n)


def load_interval_index(path):
    kind, sections = _read_blob(path)
    if kind != KIND_INTERVALS:
        raise ParseError(f"{path}: blob holds an array index, not an interval index")
    a = _i64_table(path, "INTA", _section(path, sections, "INTA"))
    b = _i64_table(path, "INTB", _section(path, sections, "INTB"))
    if len(a) != len(b):
        raise ParseError(f"{path}: {len(a)} left endpoints but {len(b)} right endpoints")
    s = intervals_from_arrays(a, b)
    _verify_derived(path, s.heap.dfuds, sections)
    _check_section(path, sections, "WOPN", _weight_section(s.bp_open, OPEN_WEIGHTS),
                   "open weights do not match the rebuilt index")
    _check_section(path, sections, "WCLS", _weight_section(s.bp_close, CLOSE_WEIGHTS),
                   "close weights do not match the rebuilt index")
    return s


def _verify_derived(path, parenseq, sections):
    _check_section(path, sections, "BITS", _bits_section(parenseq), "bits do not match the rebuilt structure")
    _check_section(path, sections, "RK64", _rank_section(parenseq),
                   "rank table does not match the rebuilt structure")
    _check_section(path, sections, "EMIN", _emin_section(parenseq),
                   "excess minima do not match the rebuilt structure")


def stats_for(parenseq, extra_values=0):
    """Bit counts reported after a build."""
    bmin, table = parenseq.block_tables()
    return {
        "raw_bits": parenseq.n,
        "rank_table_bits": parenseq.base.table_bits(),
        "excess_block_bits": 64 * len(bmin),
        "sparse_table_bits": 64 * sum(map(len, table)),  # one packed int per entry
        "value_words": extra_values,
    }

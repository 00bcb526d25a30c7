"""Index blob serialization and the array / interval file formats.

Blob layout (everything little-endian):

    magic   4 bytes  b"DTR1"
    version u16      4
    kind    u16      1 = array index, 2 = interval index
    count   u32      number of sections
    section tag (4 ascii bytes), u64 payload length, payload

Version 4, the one a save writes, stores the input and the two tables a
rebuild is checked against, nothing that can be derived more cheaply:

    array blob     VALS (u64 width w, u64 n, n values of w bytes), BITS, EMIN
    interval blob  INTA, INTB (u64 width w, then the left or right
                   endpoints, w bytes each), BITS, EMIN

The width w of an input section is 4 or 8, its entries signed integers of
that many bytes: a save writes each table at the width the index holds it,
4 bytes when every entry fits signed 32 bits (``minheap.held_values``,
``mliq.build_intervals``) and 8 otherwise. A width other than 4 or 8, an
interval blob whose two tables differ in width, or entries that do not
fill whole widths raise ParseError. BITS is the u64 bit length and the
packed words of the DFUDS of the heap of the values, or of the interval
lengths; EMIN is the u64 block size and the i64 per-block excess minima.

Versions 1 to 3 also load. Their input sections record no width and hold
8-byte entries: VALS is u64 n and n i64 values, INTA and INTB the i64
endpoints. Versions 1 and 2 also store RK64 (the u64 word-level cumulative
one-counts, one ``accumulate`` over BITS) after BITS, and their interval
blobs store the weighted-position tables WOPN and WCLS after EMIN (u64
count, then u64 position and i64 weight per entry), which are closed forms
of the endpoints and the DFUDS. Version 1 array blobs carry one more
section, PMAP (u64 parent per position, 0 = root); it is a function of
BITS, which is compared, so it is skipped. Which derived sections a blob
must carry follows from its version, not from the tags present: a missing
one raises ParseError, and so does a version-3 or -4 section no load reads.

Loading rebuilds the structures from the raw inputs and verifies that every
stored derived section matches the rebuilt one byte for byte, so a loaded
index answers exactly like a freshly built one, and every stored byte is
either checked input or compared against the rebuild. The file is opened
once and each section read on its own, after its promised length has been
measured against the file's size; a section is dropped, and its bytes
freed, as soon as it is read or compared. A version-1 or -2 interval load
takes the weighted BPs of the rebuilt index (``weighted_bps``) and
compares WOPN and WCLS where they lie, as 64-bit integers read from the
stored bytes: the count, the positions, and the running sums of the
weights against each side's cumulative weights; a version-3 or -4 load
computes no position. A blob that is truncated, corrupt or missing a
section raises ParseError. Values and endpoints must be signed 64-bit
integers; others raise ValidationError when read, built or saved.

No table is copied between the file and memory on a little-endian host
(``bitseq.le_buffer``, ``read_le``, ``le_table``); a big-endian one
byteswaps a copy each way. A section is made as a list of buffers: a
save writes a short prefix and then the index's own values, endpoints,
bit words and block minima from their arrays, with no bytes made of
them, and a load compares the BITS and EMIN it reads with the rebuilt
index's buffers where both lie, 8 bytes at a time. An input section is
read straight into an array of its width, ``array('i')`` or
``array('q')``, its prefix first, which is then deleted in place: an
array blob's VALS becomes the rebuilt index's values, and an interval
blob's INTA and INTB are checked in bulk by the rebuild with the rules and
messages of ``mliq.build_intervals`` and kept as the index's endpoints.
Either kind keeps the width its blob stores, so a version-1 to -3 blob
loads to 8-byte tables. The binary array file, whose values are always
i64, is read and written the same way.

A save, like ``write_array_binary``, has every buffer in hand first and then
writes over the file in place: opened without truncating it, cut to the new
length after the write, its header written as zeros first and for real
last. Truncating a just-written file to length 0 would make the next save
wait for the writeback of the old bytes, and a save that stops part way
leaves a file whose header a load rejects.
"""

import os
import stat
import struct
from array import array
from itertools import accumulate, islice
from operator import eq

from .bitseq import le_buffer, le_table, le_view, read_le
from .errors import ParseError, ValidationError
from .minheap import MinHeapIndex, heap_dfuds, held_values
from .mliq import _first_breach, build_intervals, intervals_from_arrays
from .parens import _BLOCK

MAGIC = b"DTR1"
VERSION = 4
READABLE_VERSIONS = (1, 2, 3, 4)
KIND_ARRAY = 1
KIND_INTERVALS = 2
KIND_NAMES = {KIND_ARRAY: "array", KIND_INTERVALS: "intervals"}

_HEADER = struct.Struct("<4sHHI")
_INPUTS = ("VALS", "INTA", "INTB")  # read into the arrays a load keeps
_TYPECODES = {4: "i", 8: "q"}  # an input table's typecode by its item width
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
            if not _I64_MIN <= v <= _I64_MAX:
                raise ValidationError(f"{path}:{lineno}: value {v} outside the signed 64-bit range")
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
        # the rest of the file is measured before n sizes anything; a pipe's
        # length is known only once it is read
        st = os.fstat(fh.fileno())
        payload = None if stat.S_ISREG(st.st_mode) else memoryview(fh.read())
        rest = st.st_size - len(head) if payload is None else len(payload)
        if rest < 8 * n:
            raise ValidationError(f"{path}: expected {n} values, file too short")
        if rest > 8 * n:
            raise ValidationError(f"{path}: trailing bytes after {n} values")
        if n == 0:
            raise ValidationError(f"{path}: empty array file")
        values = le_table(read_le(fh, 8 * n) if payload is None else payload)
    if len(values) != n:  # the file shrank while it was read
        raise ValidationError(f"{path}: expected {n} values, file too short")
    return values


def write_array_binary(path, values):
    _write_in_place(path, struct.pack("<Q", len(values)), [_i64_buffer(values)])


def read_intervals_text(path):
    """The interval index of the file's 'a b' lines, blank lines skipped.
    The file's text is checked here; the family's rules and their messages
    are those of ``mliq.build_intervals``, with ``interval K`` read as the
    file and the line of the K-th pair."""
    pairs = [pair for _, pair in _interval_lines(path)]
    if not pairs:
        raise ValidationError(f"{path}: empty interval file")
    try:
        return build_intervals(pairs)
    except ValidationError:
        k, rule = _first_breach(*zip(*pairs))
        lineno, _ = next(islice(_interval_lines(path), k - 1, None))  # the file again, on this path only
        raise ValidationError(f"{path}:{lineno}: {rule}") from None


def _interval_lines(path):
    """(line number, (a, b)) of each non-blank line of an interval file."""
    for lineno, line in _ascii_lines(path):
        toks = line.split()
        if not toks:
            continue
        if len(toks) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'a b', got {line.strip()!r}")
        try:
            pair = _decimal(toks[0]), _decimal(toks[1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: not integers: {line.strip()!r}") from None
        yield lineno, pair


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


# -- section plumbing ------------------------------------------------------------


def _i64_buffer(values):
    """``values`` as a buffer of little-endian i64 bytes (``le_buffer``). An
    ``array('q')`` is taken as it is, anything else converted once;
    ValidationError names the first value that is not a signed 64-bit
    integer."""
    if not (isinstance(values, array) and values.typecode == "q"):
        try:
            values = array("q", values)
        except (TypeError, OverflowError):
            raise _unsaveable(values) from None
    return le_buffer(values)


def _input_section(table, prefix=b""):
    """A version-4 input section: the u64 item width of ``table``, then
    ``prefix``, then the entries, written from the table itself on a
    little-endian host (``le_buffer``). An ``array('i')`` or ``array('q')``,
    as an index holds its values and endpoints, is taken as it is, anything
    else converted once by ``held_values``; ValidationError names the first
    value that is not a signed 64-bit integer."""
    if not (isinstance(table, array) and table.typecode in "iq"):
        table = held_values(table)
        if type(table) is list:
            raise _unsaveable(table)
    return [struct.pack("<Q", table.itemsize) + prefix, le_buffer(table)]


def _unsaveable(values):
    bad = next(v for v in values if not (isinstance(v, int) and _I64_MIN <= v <= _I64_MAX))
    return ValidationError(f"cannot save {bad!r}: blobs hold signed 64-bit integers")


# A section is made as a list of buffers, written one after another by a
# save and compared one after another by a load.


def _bits_section(parenseq):
    return [struct.pack("<Q", parenseq.n), le_buffer(parenseq._words)]


def _rank_section(parenseq):
    return [le_buffer(parenseq._cum1)]


def _emin_section(parenseq):
    return [struct.pack("<Q", _BLOCK), _i64_buffer(parenseq.block_minima())]


def _check_weights(path, sections, tag, side, what):
    """ParseError ``what ...`` unless section ``tag`` of a version-1 or -2
    blob holds the entries of ``side``, a WeightedBits: its positions, with
    weights whose running sums are its cumulative weights. The stored
    entries are compared where they lie, the count, then every position,
    then the running sums."""
    stored = _section(path, sections, tag)
    count = len(side.positions)
    if len(stored) != 8 + 16 * count:
        raise ParseError(f"{path}: stored {what}")
    entries = le_view(stored)
    if not (entries[0] == count and entries[1::2] == side.positions
            and all(map(eq, accumulate(entries[2::2]), side.cum))):
        raise ParseError(f"{path}: stored {what}")


def _input_layout(path, version, tag, payload):
    """(item width, offset of the first entry) of input section ``tag`` of a
    blob of ``version``, as ``_read_blob`` read it: 8 and VALS's u64 count
    before version 4; from version 4 the u64 width the section starts with,
    past which VALS has its count. ParseError unless the entries fill whole
    widths."""
    width, start = (_width(path, tag, payload), 8) if version >= 4 else (8, 0)
    if tag == "VALS":
        start += 8
        if len(payload) < start:
            raise ParseError(f"{path}: VALS section too short for its length prefix")
    if (len(payload) - start) % width:
        raise ParseError(f"{path}: {tag} section length {len(payload) - start} is not a multiple of {width}")
    return width, start


def _width(path, tag, head):
    """The item width that the first 8 bytes of a version-4 input section,
    ``head``, record; ParseError unless it is 4 or 8."""
    if len(head) < 8:
        raise ParseError(f"{path}: {tag} section too short for its item width")
    (width,) = struct.unpack_from("<Q", head)
    if width not in _TYPECODES:
        raise ParseError(f"{path}: {tag} item width {width} is neither 4 nor 8")
    return width


def _input_table(path, version, tag, payload):
    """The entries of input section ``tag``, as an array of its width: on a
    little-endian host the array ``_read_blob`` read the section into
    (``le_table``), on a big-endian one a copy."""
    width, start = _input_layout(path, version, tag, payload)
    return le_table(payload, start, _TYPECODES[width])


def _write_blob(path, kind, sections):
    chunks = []
    for tag, payload in sections:
        length = sum(memoryview(buf).nbytes for buf in payload)
        chunks += [tag.encode("ascii") + struct.pack("<Q", length), *payload]
    _write_in_place(path, MAGIC + struct.pack("<HHI", VERSION, kind, len(sections)), chunks)


def _write_in_place(path, head, chunks):
    """Write ``head`` and then ``chunks``, bytes or typed arrays, over the
    file at ``path`` (through a symlink, to its target), every buffer
    already made.

    The file is opened without O_TRUNC and cut to its new length after the
    write: truncating a file that was just written to length 0 makes the
    next write wait for the writeback of the old bytes. ``head`` is blanked
    first and written last, so a save that stops part-way leaves a file
    whose head a reader rejects, not new bytes over an old tail."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)  # no newline translation on Windows
    with open(os.open(path, flags, 0o666), "wb") as fh:
        fh.write(bytes(len(head)))
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()
        fh.seek(0)
        fh.write(head)


def read_kind(path):
    """The kind of the blob at ``path``, from its header alone."""
    with open(path, "rb") as fh:
        return _parse_header(path, fh.read(_HEADER.size))[1]


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
    return version, kind, count


def _read_blob(path):
    """(version, kind, {tag: payload}); each payload is a memoryview of its
    own read, so a section is freed once ``_section`` drops it. An input
    section (VALS, INTA, INTB) is read by ``read_le``, so on a little-endian
    host its view is backed by the array that a load keeps: an
    ``array('q')`` before version 4, and from version 4 an array of the
    width its first 8 bytes record, which are read first and checked
    (``_width``). A promised length is measured against the file's size
    before anything is read for it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        version, kind, count = _parse_header(path, fh.read(_HEADER.size))
        sections = {}
        off = _HEADER.size
        for _ in range(count):
            head = fh.read(12)
            if len(head) < 12:
                raise ParseError(f"{path}: truncated section header at byte {off}")
            tag = head[:4].decode("ascii", errors="replace")
            (length,) = struct.unpack_from("<Q", head, 4)
            off += 12
            if length > size - off:
                raise ParseError(f"{path}: section {tag!r} promises {length} bytes, {size - off} remain")
            if tag in sections:
                raise ParseError(f"{path}: section {tag!r} appears twice")
            if tag not in _INPUTS:
                sections[tag] = memoryview(fh.read(length))
            elif version < 4:
                sections[tag] = read_le(fh, length)
            else:
                head = fh.read(min(length, 8))
                sections[tag] = read_le(fh, length, _TYPECODES[_width(path, tag, head)], head)
            off += length
    if off != size:
        raise ParseError(f"{path}: {size - off} trailing bytes")
    return version, kind, sections


def _section(path, sections, tag):
    """The payload of section ``tag``, which ``sections`` then drops, so the
    file's bytes are freed once every section has been read or compared."""
    try:
        return sections.pop(tag)
    except KeyError:
        raise ParseError(f"{path}: missing section {tag}") from None


def _check_section(path, sections, tag, rebuilt, what):
    """ParseError ``what ...`` unless section ``tag`` holds the bytes of the
    buffers ``rebuilt``, one after another. Both sides are compared where
    they lie, as 64-bit words: every buffer of a section is whole words."""
    stored = _section(path, sections, tag)
    words = [memoryview(buf).cast("B").cast("Q") for buf in rebuilt]
    if len(stored) != 8 * sum(map(len, words)):
        raise ParseError(f"{path}: stored {what}")
    stored, at = stored.cast("Q"), 0
    for w in words:
        if stored[at : at + len(w)] != w:
            raise ParseError(f"{path}: stored {what}")
        at += len(w)


# -- array indexes -----------------------------------------------------------------


def save_array_index(path, h):
    sections = [
        ("VALS", _input_section(h.values, struct.pack("<Q", h.n))),
        ("BITS", _bits_section(h.dfuds)),
        ("EMIN", _emin_section(h.dfuds)),
    ]
    _write_blob(path, KIND_ARRAY, sections)
    return stats_for(h.dfuds, extra_values=h.n)


def load_array_index(path):
    version, kind, sections = _read_blob(path)
    if kind != KIND_ARRAY:
        raise ParseError(f"{path}: blob holds an interval index, not an array index")
    payload = _section(path, sections, "VALS")
    width, start = _input_layout(path, version, "VALS", payload)
    (n,) = struct.unpack_from("<Q", payload, start - 8)
    values = le_table(payload, start, _TYPECODES[width])
    del payload  # the values are the array it viewed, or a copy of its bytes
    if len(values) != n:
        raise ParseError(f"{path}: VALS section promises {n} values, holds {len(values)}")
    if not values:
        raise ParseError(f"{path}: VALS section holds no values")
    h = MinHeapIndex(values, heap_dfuds(reversed(values)))
    _verify_derived(path, version, h.dfuds, sections)
    return h


# -- interval indexes ----------------------------------------------------------------


def save_interval_index(path, s):
    sections = [
        ("INTA", _input_section(s.a)),
        ("INTB", _input_section(s.b)),
        ("BITS", _bits_section(s.heap.dfuds)),
        ("EMIN", _emin_section(s.heap.dfuds)),
    ]
    _write_blob(path, KIND_INTERVALS, sections)
    return stats_for(s.heap.dfuds, extra_values=2 * s.n)


def load_interval_index(path):
    version, kind, sections = _read_blob(path)
    if kind != KIND_INTERVALS:
        raise ParseError(f"{path}: blob holds an array index, not an interval index")
    a = _input_table(path, version, "INTA", _section(path, sections, "INTA"))
    b = _input_table(path, version, "INTB", _section(path, sections, "INTB"))
    if a.itemsize != b.itemsize:
        raise ParseError(f"{path}: INTA holds {a.itemsize}-byte endpoints but INTB {b.itemsize}-byte ones")
    if len(a) != len(b):
        raise ParseError(f"{path}: {len(a)} left endpoints but {len(b)} right endpoints")
    s = intervals_from_arrays(a, b)
    _verify_derived(path, version, s.heap.dfuds, sections)
    if version >= 3:
        return s
    opens, closes = s.weighted_bps()
    _check_weights(path, sections, "WOPN", opens, "open weights do not match the rebuilt index")
    _check_weights(path, sections, "WCLS", closes, "close weights do not match the rebuilt index")
    return s


def _verify_derived(path, version, parenseq, sections):
    """Compare the DFUDS tables a blob of ``version`` stores with the rebuilt
    ones; a version-3 or -4 blob must then hold nothing else."""
    _check_section(path, sections, "BITS", _bits_section(parenseq), "bits do not match the rebuilt structure")
    if version < 3:
        _check_section(path, sections, "RK64", _rank_section(parenseq),
                       "rank table does not match the rebuilt structure")
    _check_section(path, sections, "EMIN", _emin_section(parenseq),
                   "excess minima do not match the rebuilt structure")
    if version >= 3 and sections:
        raise ParseError(f"{path}: unexpected section {next(iter(sections))}")


def stats_for(parenseq, extra_values=0):
    """Bit counts reported after a build, counted from the length alone: the
    sparse table's level j holds blocks - 2^j + 1 packed ints, one per entry,
    for each 2^j <= blocks, whether or not a search has built it."""
    blocks = (parenseq.n + _BLOCK - 1) // _BLOCK
    levels = blocks.bit_length()
    return {
        "raw_bits": parenseq.n,
        "rank_table_bits": parenseq.table_bits(),
        "excess_block_bits": 64 * blocks,
        "sparse_table_bits": 64 * (levels * (blocks + 1) - (1 << levels) + 1),
        "value_words": extra_values,
    }

import contextlib
import gc
import hashlib
import io
import itertools
import os
import random
import struct
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from dualtree import bitseq, cli, index_io, mliq, rmq
from dualtree.errors import ParseError, ValidationError
from dualtree.minheap import build_minheap
from dualtree.randgen import random_array, random_intervals

from conftest import (FIX_A, FIX_INTERVALS, V2_ARRAY_600, V2_FIX_A, V2_FIX_INTERVALS, V2_INTERVALS_12,
                      V2_INTERVALS_600, traced, write_blob)
from interval_oracle import I64_MAX, STORABLE, breached_families, check_pairs, raised

I64_MIN = -(1 << 63)

ARRAY = random_array(random.Random(0x10B), 40, span=12)


def blob_bytes(tmp_path, build, save, data):
    path = tmp_path / "blob.idx"
    save(str(path), build(data))
    return path.read_bytes()


def fresh_path(tmp):
    """A new, empty file in ``tmp``: rewriting one path for every example
    would wait each time for the writeback of the bytes written before."""
    fd, name = tempfile.mkstemp(suffix=".idx", dir=tmp)
    os.close(fd)
    return Path(name)


def test_array_blob_holds_the_values_and_the_dfuds_tables(tmp_path):
    path = tmp_path / "a.idx"
    index_io.save_array_index(str(path), build_minheap(FIX_A))
    data = path.read_bytes()
    assert struct.unpack_from("<HH", data, 4) == (index_io.VERSION, index_io.KIND_ARRAY) == (3, 1)
    _, _, sections = index_io._read_blob(str(path))
    assert list(sections) == ["VALS", "BITS", "EMIN"]


def test_interval_blob_holds_the_endpoints_and_the_dfuds_tables(tmp_path):
    path = tmp_path / "iv.idx"
    index_io.save_interval_index(str(path), mliq.build_intervals(FIX_INTERVALS))
    version, kind, sections = index_io._read_blob(str(path))
    assert (version, kind) == (3, index_io.KIND_INTERVALS)
    assert list(sections) == ["INTA", "INTB", "BITS", "EMIN"]


@pytest.mark.parametrize("kind", ["array", "intervals"])
def test_save_and_load_build_the_block_minima_and_no_sparse_table(tmp_path, kind):
    # EMIN stores the block minima alone, so neither a save nor a load builds
    # the sparse table; the minima a search would build are the bytes stored
    if kind == "array":
        build, save, load = build_minheap, index_io.save_array_index, index_io.load_array_index
        data, dfuds = random_array(random.Random(0x5A7), 3000), lambda index: index.dfuds
    else:
        build, save, load = mliq.build_intervals, index_io.save_interval_index, index_io.load_interval_index
        data, dfuds = random_intervals(random.Random(0x5A7), 3000), lambda index: index.heap.dfuds
    path = str(tmp_path / "blob.idx")
    built = build(data)
    save(path, built)
    loaded = load(path)
    searched = dfuds(build(data))
    bmin = searched.block_tables()[0]
    emin = bytes(index_io._read_blob(path)[2]["EMIN"])
    assert emin == struct.pack(f"<Q{len(bmin)}q", 64, *bmin)
    for index in (built, loaded):
        assert dfuds(index)._table is None and dfuds(index)._bmin == bmin


def test_version_1_blob_still_loads(tmp_path):
    h = build_minheap(FIX_A)
    sections = [
        ("VALS", struct.pack("<Q", h.n) + struct.pack(f"<{h.n}q", *h.values)),
        ("BITS", index_io._bits_section(h.dfuds)),
        ("RK64", index_io._rank_section(h.dfuds)),
        ("EMIN", index_io._emin_section(h.dfuds)),
        ("PMAP", struct.pack(f"<{h.n}Q", *range(h.n))),  # skipped: BITS fixes the parents
    ]
    path = tmp_path / "v1.idx"
    write_blob(path, 1, index_io.KIND_ARRAY, sections)
    loaded = index_io.load_array_index(str(path))
    assert loaded.values.typecode == "q" and loaded.values.tolist() == FIX_A and loaded.dfuds == h.dfuds
    assert index_io.read_kind(str(path)) == index_io.KIND_ARRAY


def test_load_reads_sections_as_views_and_holds_typed_tables(tmp_path):
    path = str(tmp_path / "a.idx")
    h = build_minheap(ARRAY)
    index_io.save_array_index(path, h)
    _, _, sections = index_io._read_blob(path)
    assert {type(payload) for payload in sections.values()} == {memoryview}
    loaded = index_io.load_array_index(path)
    assert type(loaded.values) is array and loaded.values.typecode == "q" and loaded.values == h.values
    p = loaded.dfuds
    exc = list(itertools.accumulate((1 if bit else -1 for bit in p.iter_bits()), initial=0))
    held = bytes([64]) + bytes(e - exc[(x - 1) // 64 * 64] + 64 for x, e in enumerate(exc[1:], 1))
    assert type(p._exc) is bytearray and p._exc == h.dfuds._exc == held
    assert (p._words.typecode, p._cum1.typecode, p._cum0.typecode) == ("Q", "q", "q")


@pytest.mark.parametrize("kind, n, bound", [("array", 100_000, 15), ("intervals", 20_000, 15)])
def test_load_frees_each_section_once_read(tmp_path, kind, n, bound):
    # How far a load's tracemalloc peak rises above the index it returns,
    # in bytes per element.
    # With every section a view into one read of the whole file, the file
    # stayed held through the rebuild: 19.4 for the array and 89.9 for the
    # intervals here. Read one by one, each section is freed once read or
    # compared: 11.4 and 73.1, and 5.7 and 64.0 for version-2 blobs, whose
    # interval load computes the weighted positions to compare WOPN/WCLS.
    # A version-3 blob stores neither RK64 nor WOPN/WCLS: 5.5 and 7.0.
    path = str(tmp_path / "blob.idx")
    rng = random.Random(0x10AD)
    if kind == "array":
        index_io.save_array_index(path, build_minheap(random_array(rng, n)))
        load = index_io.load_array_index
    else:
        index_io.save_interval_index(path, mliq.build_intervals(random_intervals(rng, n)))
        load = index_io.load_interval_index
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        index = load(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.n == n
    assert peak - held <= bound * n, ((peak - held) / n, (held - before) / n)


def test_save_and_load_peak_near_the_index_they_hold(tmp_path):
    # Tracemalloc at 10^5 random values, in bytes per value. A save made each
    # section's bytes, the values twice (their bytes, then those joined to
    # the length prefix): it peaked 15.73 above the index it held. Written
    # from the index's own arrays, 0.3. A load read VALS as bytes and copied
    # them into an array that frombytes over-allocates: it peaked 7.56 above
    # what it held and held 0.5 more than a build. Read straight into the
    # array it keeps, it peaks 2.74 above and holds no more than a build, so
    # a copy of the excess (2 per value) or of VALS brought back fails here.
    n = 100_000
    path = str(tmp_path / "a.idx")
    values = random_array(random.Random(0x5A7E), n)
    h, built, _ = traced(lambda: build_minheap(values))
    _, saved, save_peak = traced(lambda: index_io.save_array_index(path, h))
    assert save_peak - saved <= 2 * n, (save_peak - saved) / n
    loaded, held, load_peak = traced(lambda: index_io.load_array_index(path))
    assert loaded.values == h.values and loaded.dfuds == h.dfuds
    assert load_peak - held <= 4 * n, (load_peak - held) / n
    # a save builds the block minima, which a load builds to compare EMIN
    assert held <= built + saved, (held - built - saved) / n


def test_load_keeps_the_arrays_its_input_sections_were_read_into(tmp_path, monkeypatch):
    # On a little-endian host VALS, INTA and INTB are read straight into
    # arrays, which back their views and become the index's tables uncopied.
    read_blob = index_io._read_blob
    backing = {}

    def recording(path):
        version, kind, sections = read_blob(path)
        backing.update((tag, view.obj) for tag, view in sections.items() if tag in ("VALS", "INTA", "INTB"))
        return version, kind, sections

    if sys.byteorder != "little":
        pytest.skip("a big-endian host reads these sections as bytes, then byteswaps a copy")
    monkeypatch.setattr(index_io, "_read_blob", recording)
    path = str(tmp_path / "a.idx")
    h = build_minheap(ARRAY)
    index_io.save_array_index(path, h)
    loaded = index_io.load_array_index(path)
    assert loaded.values is backing["VALS"] and loaded.values == h.values
    path = str(tmp_path / "iv.idx")
    s = mliq.build_intervals(FIX_INTERVALS)
    index_io.save_interval_index(path, s)
    loaded = index_io.load_interval_index(path)
    assert loaded.a is backing["INTA"] and loaded.b is backing["INTB"]
    assert (loaded.a, loaded.b) == (s.a, s.b)


def test_binary_array_file_is_read_and_written_without_a_copy(tmp_path):
    # Tracemalloc at 10^5 values, in bytes per value. A read took the file's
    # bytes and copied them into an array that frombytes over-allocates: it
    # held 8.51 and peaked 8.0 above that. Read straight into an exactly
    # sized array, it holds 8.0 and peaks 0.06 above. Writing a list made
    # its array and then the array's bytes: it peaked at 16.0; now at 8.05,
    # the array alone.
    n = 100_000
    path = str(tmp_path / "a.bin")
    values = random_array(random.Random(0xB1), n)
    _, _, write_peak = traced(lambda: index_io.write_array_binary(path, values))
    assert write_peak <= 9 * n, write_peak / n
    read, held, read_peak = traced(lambda: index_io.read_array_binary(path))
    assert read.tolist() == values
    assert held <= 8 * n + 1000 and read_peak - held <= n, (held / n, (read_peak - held) / n)


def swapped8(data):
    """``data`` with each 8 bytes reversed: little-endian 64-bit words as a
    big-endian host stores them."""
    return b"".join(data[k : k + 8][::-1] for k in range(0, len(data), 8))


def test_byteswap_branches_write_and_read_big_endian_tables(tmp_path, monkeypatch):
    # Forcing the big-endian branches on a little-endian host, every writer
    # must write each 64-bit table as its little-endian bytes reversed 8 at a
    # time, and every reader must read those bytes back to the same tables.
    h = build_minheap(ARRAY)
    s = mliq.build_intervals(FIX_INTERVALS)
    p = h.dfuds
    tables = [h.values, p._words, p._cum1, array("q", p.block_minima()), s.a, s.b]
    little = [struct.pack(f"<{len(t)}{t.typecode}", *t) for t in tables]
    header = struct.Struct("<Q").pack
    sections = {
        "array": [("VALS", header(h.n) + swapped8(little[0])), ("BITS", header(p.n) + swapped8(little[1])),
                  ("EMIN", header(64) + swapped8(little[3]))],
        "intervals": [("INTA", swapped8(little[4])), ("INTB", swapped8(little[5])),
                      ("BITS", header(s.heap.dfuds.n) + swapped8(b"".join(index_io._bits_section(s.heap.dfuds))[8:])),
                      ("EMIN", header(64) + swapped8(b"".join(index_io._emin_section(s.heap.dfuds))[8:]))],
    }
    expected = {}
    for kind, code in (("array", index_io.KIND_ARRAY), ("intervals", index_io.KIND_INTERVALS)):
        expected[kind] = tmp_path / f"{kind}.expected"
        write_blob(expected[kind], index_io.VERSION, code, sections[kind])
    monkeypatch.setattr(bitseq, "_BIG_ENDIAN", True)
    for table, data in zip(tables, little):
        assert bitseq.le_bytes(table) == bytes(bitseq.le_buffer(table)) == swapped8(data)
        assert bitseq.from_le(swapped8(data), table.typecode) == table
        if table.typecode == "q":
            assert bitseq.le_view(swapped8(data)) == table
    with open(expected["array"], "rb") as fh:
        view = bitseq.read_le(fh, 16)
        assert type(view.obj) is bytes  # read as bytes, then copied and swapped
        assert bitseq.le_table(view).tolist() == list(struct.unpack(">2q", bytes(view)))
    # The blobs as a save writes them, and a load's reads of them: its input
    # tables, and the stored DFUDS tables compared with the index's. (A whole
    # load cannot run here: its rebuild packs bits on the host's real order.)
    path = str(tmp_path / "a.idx")
    index_io.save_array_index(path, h)
    assert Path(path).read_bytes() == expected["array"].read_bytes()
    _, _, stored = index_io._read_blob(path)
    assert index_io._i64_table(path, "VALS", stored.pop("VALS"), 8) == h.values
    index_io._verify_derived(path, index_io.VERSION, p, stored)
    path = str(tmp_path / "iv.idx")
    index_io.save_interval_index(path, s)
    assert Path(path).read_bytes() == expected["intervals"].read_bytes()
    _, _, stored = index_io._read_blob(path)
    assert index_io._i64_table(path, "INTA", stored.pop("INTA")) == s.a
    assert index_io._i64_table(path, "INTB", stored.pop("INTB")) == s.b
    index_io._verify_derived(path, index_io.VERSION, s.heap.dfuds, stored)
    # the binary array file
    path = tmp_path / "a.bin"
    index_io.write_array_binary(str(path), ARRAY)
    assert path.read_bytes() == header(len(ARRAY)) + swapped8(little[0])
    assert index_io.read_array_binary(str(path)) == h.values


def test_missing_section_is_a_parse_error(tmp_path):
    h = build_minheap(FIX_A)
    sections = [("VALS", struct.pack("<Q", h.n) + struct.pack(f"<{h.n}q", *h.values)),
                ("BITS", index_io._bits_section(h.dfuds))]
    path = tmp_path / "short.idx"
    write_blob(path, 2, index_io.KIND_ARRAY, sections)
    with pytest.raises(ParseError, match="missing section RK64"):
        index_io.load_array_index(str(path))
    assert cli.main(["query", str(path), "rmq", "1", "2"]) == 2
    # version 3 stores no RK64, and must carry EMIN whatever tags are present
    v3 = tmp_path / "short-v3.idx"
    write_blob(v3, 3, index_io.KIND_ARRAY, sections + [("RK64", index_io._rank_section(h.dfuds))])
    with pytest.raises(ParseError, match="missing section EMIN"):
        index_io.load_array_index(str(v3))
    assert cli.main(["query", str(v3), "rmq", "1", "2"]) == 2


def test_version_3_blob_holds_no_section_a_load_does_not_read(tmp_path):
    # every stored byte is checked input or compared against the rebuild
    path = tmp_path / "iv.idx"
    index_io.save_interval_index(str(path), mliq.build_intervals(FIX_INTERVALS))
    _, _, sections = index_io._read_blob(str(path))
    _, _, v2_sections = index_io._read_blob(str(V2_FIX_INTERVALS))
    for tag in ("RK64", "WOPN", "PMAP"):
        write_blob(path, 3, index_io.KIND_INTERVALS, [*sections.items(), (tag, v2_sections.get(tag, b""))])
        with pytest.raises(ParseError, match=f"unexpected section {tag}"):
            index_io.load_interval_index(str(path))


DERIVED = {"BITS": "bits do not match the rebuilt structure",
           "RK64": "rank table does not match the rebuilt structure",
           "EMIN": "excess minima do not match the rebuilt structure"}


@pytest.mark.parametrize("kind", ["array", "intervals"])
def test_load_rejects_every_changed_byte_of_a_stored_dfuds_table(tmp_path, kind):
    # a load rebuilds BITS, RK64 and EMIN and no query reads the stored
    # ones, so only its comparison can catch a change
    v3 = tmp_path / "v3.idx"
    if kind == "array":
        index_io.save_array_index(str(v3), build_minheap(FIX_A))
        load, v2 = index_io.load_array_index, V2_FIX_A
    else:
        index_io.save_interval_index(str(v3), mliq.build_intervals(FIX_INTERVALS))
        load, v2 = index_io.load_interval_index, V2_FIX_INTERVALS
    for path in (v3, v2):
        version, blob_kind, sections = index_io._read_blob(str(path))
        for tag in DERIVED.keys() & sections.keys():
            good = bytes(sections[tag])
            for at, flip in itertools.product(range(len(good)), (0x01, 0x80)):
                bad = bytearray(good)
                bad[at] ^= flip
                # a new file each: rewriting one waits for its writeback
                damaged = tmp_path / f"{version}-{tag}-{at}-{flip}.idx"
                write_blob(damaged, version, blob_kind, [(t, bad if t == tag else p) for t, p in sections.items()])
                with pytest.raises(ParseError, match=f"stored {DERIVED[tag]}"):
                    load(str(damaged))


def test_interval_text_errors_exit_2_naming_the_file_and_line(tmp_path, capsys):
    src = tmp_path / "iv.txt"
    cases = [
        ("1 4\n5\n", ":2: expected 'a b', got '5'"),
        ("1 4 7\n", ":1: expected 'a b', got '1 4 7'"),
        ("\n1 4\n-1 6\n", ":3: endpoints must be non-negative integers"),
        ("1 4\n2 -6\n", ":2: endpoints must be non-negative integers"),
        ("1 4\n\n5 9223372036854775808\n", ":3: endpoint 9223372036854775808 outside the signed 64-bit range"),
        ("5 4\n", ":1: left endpoint 5 exceeds right endpoint 4"),
        ("1 6\n1 7\n", ":2: left endpoints not strictly increasing"),
        ("1 6\n\n2 6\n", ":3: right endpoints not strictly increasing"),
        ("", ": empty interval file"),
        ("\n  \n", ": empty interval file"),
    ]
    for text, message in cases:
        src.write_text(text)
        code, out = cli.main(["build", "intervals", str(src), "-o", str(tmp_path / "x.idx")]), capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", f"error: {src}{message}\n"), text
    src.write_text("1 4\n\n   \n3 6\n")  # blank lines are skipped
    s = index_io.read_intervals_text(str(src))
    assert (s.a, s.b) == (array("q", [1, 3]), array("q", [4, 6]))
    assert cli.main(["build", "intervals", str(src), "-o", str(tmp_path / "x.idx")]) == 0


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("texts")


@settings(max_examples=200, deadline=None)
@given(case=breached_families(("negative", "wide", "left", "right", "beyond")), data=st.data())
def test_interval_file_breaches_are_worded_as_build_intervals_words_them(text_dir, case, data):
    _, pairs = case
    want = raised(check_pairs, pairs)
    assume(want is not None)
    k, rule = mliq._first_breach(*zip(*pairs))
    assert raised(mliq.build_intervals, pairs) == want == (ValidationError, f"interval {k}: {rule}")
    blanks = data.draw(st.lists(st.sampled_from(["", "  ", " \t"]), max_size=len(pairs) + 1))
    before = data.draw(st.lists(st.integers(0, len(pairs)), min_size=len(blanks), max_size=len(blanks)))
    lines = []
    for i, (a, b) in enumerate(pairs):
        lines += [blank for blank, at in zip(blanks, before) if at == i]
        lines.append(f"{a} {b}")
    lines += [blank for blank, at in zip(blanks, before) if at == len(pairs)]
    path = fresh_path(text_dir)
    path.write_text("\n".join(lines) + "\n")
    line = k + sum(at < k for at in before)  # the K-th pair's line, after the blank lines before it
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["build", "intervals", str(path), "-o", str(fresh_path(text_dir))])
    assert (code, err.getvalue()) == (2, f"error: {path}:{line}: {rule}\n")


def test_malformed_blobs_exit_2_with_one_line(tmp_path, capsys):
    h = build_minheap(FIX_A)
    s = mliq.build_intervals(FIX_INTERVALS)
    array_path, interval_path = tmp_path / "a.idx", tmp_path / "iv.idx"
    index_io.save_array_index(str(array_path), h)
    index_io.save_interval_index(str(interval_path), s)
    _, _, vals = index_io._read_blob(str(array_path))
    _, _, ivs = index_io._read_blob(str(interval_path))
    array_sections = [(tag, bytes(payload)) for tag, payload in vals.items()]
    interval_sections = [(tag, bytes(payload)) for tag, payload in ivs.items()]
    A, IV = index_io.KIND_ARRAY, index_io.KIND_INTERVALS
    cases = [
        (A, 3, [("VALS", array_sections[0][1] + b"\0" * 4), *array_sections[1:]],
         "VALS section length 68 is not a multiple of 8"),
        (IV, 3, [("INTA", interval_sections[0][1][:-4]), *interval_sections[1:]],
         "INTA section length 28 is not a multiple of 8"),
        (A, 9, array_sections, "unsupported version 9"),
        (A, 3, [*array_sections, array_sections[1]], "section 'BITS' appears twice"),
        (A, 3, [("VALS", b"\1\0\0\0"), *array_sections[1:]], "VALS section too short for its length prefix"),
        (A, 3, [("VALS", bytes(8)), *array_sections[1:]], "VALS section holds no values"),
        (IV, 3, [interval_sections[0], ("INTB", interval_sections[1][1][:-8]), *interval_sections[2:]],
         "4 left endpoints but 3 right endpoints"),
    ]
    path = tmp_path / "bad.idx"
    for kind, version, sections, message in cases:
        write_blob(path, version, kind, sections)
        load = index_io.load_array_index if kind == A else index_io.load_interval_index
        with pytest.raises(ParseError) as exc:
            load(str(path))
        assert str(exc.value) == f"{path}: {message}"
        code = cli.main(["query", str(path), "rmq" if kind == A else "mliq", "1", "2"])
        assert (code, capsys.readouterr().err) == (2, f"error: {path}: {message}\n"), message
    path.write_bytes(array_path.read_bytes() + b"xy")
    with pytest.raises(ParseError) as exc:
        index_io.load_array_index(str(path))
    assert str(exc.value) == f"{path}: 2 trailing bytes"
    code = cli.main(["query", str(path), "rmq", "1", "2"])
    assert (code, capsys.readouterr().err) == (2, f"error: {path}: 2 trailing bytes\n")
    # the wrong kind, passed straight to a load
    with pytest.raises(ParseError, match="blob holds an interval index, not an array index"):
        index_io.load_array_index(str(interval_path))
    with pytest.raises(ParseError, match="blob holds an array index, not an interval index"):
        index_io.load_interval_index(str(array_path))


def test_truncated_prefix_exits_2(tmp_path):
    data = blob_bytes(tmp_path, build_minheap, index_io.save_array_index, FIX_A)
    path = tmp_path / "cut.idx"
    for cut in (0, 3, 8, 11, 12, 30, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ParseError):
            index_io.load_array_index(str(path))
        assert cli.main(["query", str(path), "rmq", "1", "2"]) == 2


def test_save_rejects_values_a_blob_cannot_hold(tmp_path):
    path = str(tmp_path / "x.idx")
    with pytest.raises(ValidationError, match="signed 64-bit"):
        index_io.save_array_index(path, build_minheap([1, 1 << 63, 3]))
    with pytest.raises(ValidationError, match="signed 64-bit"):
        index_io.save_array_index(path, build_minheap([1, -(1 << 63) - 1]))
    with pytest.raises(ValidationError, match="signed 64-bit"):
        index_io.save_array_index(path, build_minheap([0.5, 2.0]))
    index_io.save_array_index(path, build_minheap([(1 << 63) - 1, -(1 << 63)]))
    values = index_io.load_array_index(path).values
    assert values.typecode == "q" and values.tolist() == [(1 << 63) - 1, -(1 << 63)]


def test_query_reads_the_blob_once(tmp_path, monkeypatch):
    path = tmp_path / "a.idx"
    index_io.save_array_index(str(path), build_minheap(FIX_A))
    reads = []
    real = index_io._read_blob
    monkeypatch.setattr(index_io, "_read_blob", lambda p: reads.append(p) or real(p))
    assert cli.main(["query", str(path), "rmq", "2", "7"]) == 0
    assert len(reads) == 1


def test_rmq_round_trip_never_decodes_the_tree(tmp_path):
    h = build_minheap(ARRAY)
    path = str(tmp_path / "a.idx")
    index_io.save_array_index(path, h)
    loaded = index_io.load_array_index(path)
    for engine in rmq.ENGINES:
        for index in (h, loaded):
            assert rmq.range_min_index(index, 3, 31, engine=engine) == rmq.rmq_scan(h, 3, 31)
    assert h._tree is None and loaded._tree is None


def test_interval_blob_bytes_are_unchanged(tmp_path):
    # sha256 of the version-3 blobs; those of the version-2 blobs, which a
    # decoded heap tree first wrote (tree_construction in test_mliq.py), are
    # pinned on the fixtures in tests/data
    families = {
        "1a5123e81639406ce8e52845c7a72936700b5e3eda4901005ff5c84cbd9e36d3": FIX_INTERVALS,
        "107f9476141ead5d95f0a7bedfd7addb382f45445093a8cbe1790122cc25a854": random_intervals(random.Random(0xB10B), 600),
    }
    for digest, pairs in families.items():
        data = blob_bytes(tmp_path, mliq.build_intervals, index_io.save_interval_index, pairs)
        assert hashlib.sha256(data).hexdigest() == digest


def test_array_blob_and_binary_file_bytes_are_unchanged(tmp_path):
    # sha256 of the version-3 array blob, and of the binary array file as
    # written with one struct argument per value, which the typed-array
    # writer must write byte for byte; the version-2 blobs are pinned on the
    # fixtures in tests/data
    arrays = {
        ("73b8e73efee79b5b999c01981edb55fa5b76b28daac8d07535e20857dbecca64",
         "b12b069f68aba9776f997f914a30bc6d46f02756ab875bf0940b0bc6ddf291ed"): FIX_A,
        ("1b57b052af9af3d3ea56c683f496d1debdbadbd3f7e336d29f79ff6a27d7c981",
         "7175f408689fc4cde448688b17650886cf9698b7d1cc891643d95d1fc6b74853"):
            random_array(random.Random(0xB10B), 600, span=1 << 62),
    }
    binary = tmp_path / "a.bin"
    for (blob_digest, file_digest), values in arrays.items():
        data = blob_bytes(tmp_path, build_minheap, index_io.save_array_index, values)
        assert hashlib.sha256(data).hexdigest() == blob_digest
        index_io.write_array_binary(str(binary), values)
        assert hashlib.sha256(binary.read_bytes()).hexdigest() == file_digest
        assert index_io.read_array_binary(str(binary)).tolist() == values


# sha256 of each version-2 fixture, as the version-2 blob tests pinned it
# (the 12-interval family's was first taken when the fixture was written),
# and the input a build makes the same index of
V2_FIXTURES = {
    V2_FIX_A: ("46cc2eee641e0a704b191535244a7243df1dc9a4a7f116ff2e90b42f3292a55a", FIX_A),
    V2_ARRAY_600: ("478bb51ce7663bfd4cd5679450220c965d09a9f1b0748c0912bb9ab8d7653287",
                   random_array(random.Random(0xB10B), 600, span=1 << 62)),
    V2_FIX_INTERVALS: ("860ec2c9d6ddf7d09fd3a9415c5c073e1e774c97155abcec5d4d66acea66e2a7", FIX_INTERVALS),
    V2_INTERVALS_600: ("59d7fe88787366e3ac459e8b1968c0add2405a5d1d810ccb1a00195f31e7ccdf",
                       random_intervals(random.Random(0xB10B), 600)),
    V2_INTERVALS_12: ("c45a140ae154d55798714642f0882f1f26594ced4b44078a7f0b9ce2ff19249c",
                      random_intervals(random.Random(0x5EC7), 12)),
}


@pytest.mark.parametrize("path", V2_FIXTURES, ids=lambda path: path.name)
def test_version_2_blob_loads_to_the_index_a_build_gives(tmp_path, path):
    digest, data = V2_FIXTURES[path]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    version, kind, sections = index_io._read_blob(str(path))
    assert version == 2
    # a version-3 save writes the same sections but RK64, WOPN and WCLS
    stripped, saved = tmp_path / "stripped.idx", tmp_path / "saved.idx"
    write_blob(stripped, 3, kind, [(tag, p) for tag, p in sections.items() if tag not in ("RK64", "WOPN", "WCLS")])
    rng = random.Random(0x2B10B)
    if kind == index_io.KIND_INTERVALS:
        built, loaded = mliq.build_intervals(data), index_io.load_interval_index(str(path))
        index_io.save_interval_index(str(saved), built)
        assert (loaded.a, loaded.b, loaded.heap.dfuds) == (built.a, built.b, built.heap.dfuds)
        for _ in range(300):
            a = rng.randint(0, built.domain_max)
            b = rng.randint(a, built.domain_max)
            strict = rng.random() < 0.5
            want = mliq.mliq_bruteforce(built, a, b, strict)
            for engine in (mliq.mliq_naive, mliq.mliq_weighted):
                assert engine(loaded, a, b, strict) == engine(built, a, b, strict) == want
    else:
        built, loaded = build_minheap(data), index_io.load_array_index(str(path))
        index_io.save_array_index(str(saved), built)
        assert (loaded.values, loaded.dfuds) == (built.values, built.dfuds)
        for _ in range(300):
            i = rng.randint(1, built.n)
            j = rng.randint(i, built.n)
            want = rmq.rmq_scan(built, i, j)
            for engine in rmq.ENGINES:
                assert rmq.range_min_index(loaded, i, j, engine=engine) == want
    assert saved.read_bytes() == stripped.read_bytes()


class DepthPass(Exception):
    pass


def test_only_a_version_2_interval_load_runs_the_depth_pass(tmp_path, monkeypatch):
    # the weighted positions need the depth pass; a version-3 save or load
    # never computes them, a version-2 load compares WOPN/WCLS with them
    def refuse(dfuds):
        raise DepthPass

    monkeypatch.setattr(mliq, "_dfuds_depths", refuse)
    s = mliq.build_intervals(FIX_INTERVALS)
    path = str(tmp_path / "iv.idx")
    index_io.save_interval_index(path, s)
    loaded = index_io.load_interval_index(path)
    assert (loaded.a, loaded.b, loaded.heap.dfuds) == (s.a, s.b, s.heap.dfuds)
    with pytest.raises(DepthPass):
        index_io.load_interval_index(str(V2_FIX_INTERVALS))


SAVES = {
    "array": (build_minheap, index_io.save_array_index),
    "intervals": (mliq.build_intervals, index_io.save_interval_index),
    "binary": (list, index_io.write_array_binary),
}


def save_inputs(kind):
    """Two inputs of 30 elements, whose files have the same length and
    different bytes, and one of 900."""
    rng = random.Random(0x5AFE)
    if kind == "intervals":
        return random_intervals(rng, 30), random_intervals(rng, 30), random_intervals(rng, 900)
    return random_array(rng, 30, span=50), random_array(rng, 30, span=50), random_array(rng, 900, span=50)


@pytest.mark.parametrize("kind", SAVES)
def test_save_over_a_longer_file_writes_a_fresh_save_s_bytes(tmp_path, kind):
    build, save = SAVES[kind]
    small, _, large = save_inputs(kind)
    fresh = tmp_path / "fresh"
    save(str(fresh), build(small))
    path = tmp_path / "reused"
    save(str(path), build(large))
    longer = path.stat().st_size
    save(str(path), build(small))
    assert path.stat().st_size < longer and path.read_bytes() == fresh.read_bytes()
    save(str(path), build(small))  # over a file of the same length
    assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("kind", SAVES)
def test_save_through_a_symlink_writes_its_target(tmp_path, kind):
    build, save = SAVES[kind]
    small, _, large = save_inputs(kind)
    target = tmp_path / "target"
    link = tmp_path / "link"
    save(str(target), build(large))
    link.symlink_to(target)
    save(str(link), build(small))
    fresh = tmp_path / "fresh"
    save(str(fresh), build(small))
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()


class Interrupted(Exception):
    pass


class StopsWriting:
    """A file that raises Interrupted in place of its ``writes``-th write."""

    def __init__(self, fh, writes):
        self.fh, self.left = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.left -= 1
        if not self.left:
            raise Interrupted
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


@pytest.mark.parametrize("kind", SAVES)
def test_a_save_that_stops_part_way_leaves_a_file_a_load_rejects(tmp_path, kind, monkeypatch):
    build, save = SAVES[kind]
    small, same_length, large = save_inputs(kind)
    path = tmp_path / "blob"
    query = ["rmq", "1", "1"] if kind == "array" else ["mliq", "0", "0"]
    for old in (None, same_length, large):  # a new file, one of the same length, a longer one
        for writes in itertools.count(1):
            if old is None:
                path.unlink(missing_ok=True)
            else:
                save(str(path), build(old))
            before = path.read_bytes() if old else None
            stops = lambda *args, **kwargs: StopsWriting(open(*args, **kwargs), writes)
            monkeypatch.setattr(index_io, "open", stops, raising=False)
            try:
                save(str(path), build(small))
            except Interrupted:
                pass
            else:
                break  # no write was stopped: the save is whole
            finally:
                monkeypatch.delattr(index_io, "open")
            if path.read_bytes() == before:  # stopped before its first write
                continue
            if kind == "binary":
                with pytest.raises(ValidationError):
                    index_io.read_array_binary(str(path))
            else:
                assert cli.main(["query", str(path), *query]) == 2
        assert writes > 3
        fresh = tmp_path / "fresh"
        save(str(fresh), build(small))
        assert path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("tag, side", [("WOPN", "open"), ("WCLS", "close")])
def test_interval_load_compares_the_weight_tables(tmp_path, tag, side):
    # version 2 stores the weight tables, version 3 does not
    path = tmp_path / "iv.idx"
    s = mliq.build_intervals(FIX_INTERVALS)
    _, _, sections = index_io._read_blob(str(V2_FIX_INTERVALS))
    good = bytes(sections[tag])
    count = len(good) // 16
    for bad in (good[:-1], good + bytes(16), good[:-8] + struct.pack("<q", 99), struct.pack("<Q", count + 1) + good[8:]):
        sections[tag] = bad
        write_blob(path, 2, index_io.KIND_INTERVALS, list(sections.items()))
        with pytest.raises(ParseError, match=f"stored {side} weights do not match the rebuilt index"):
            index_io.load_interval_index(str(path))
    sections[tag] = good
    write_blob(path, 2, index_io.KIND_INTERVALS, list(sections.items()))
    assert index_io.load_interval_index(str(path)).a == s.a


@pytest.mark.parametrize("tag, side", [("WOPN", "open"), ("WCLS", "close")])
def test_interval_load_rejects_every_changed_weight_entry(tmp_path, tag, side):
    # the count, each position and each weight of a version-2 blob, one at
    # a time; no query reads a position, so only the load's comparison can
    # catch them
    _, _, sections = index_io._read_blob(str(V2_INTERVALS_12))
    good = array("q", bytes(sections[tag]))
    for k in range(len(good)):
        for delta in (-1, 1):
            bad = array("q", good)
            bad[k] += delta
            sections[tag] = bad.tobytes()
            damaged = tmp_path / f"{k}{delta:+}.idx"  # a new file each: rewriting one waits for its writeback
            write_blob(damaged, 2, index_io.KIND_INTERVALS, list(sections.items()))
            with pytest.raises(ParseError, match=f"stored {side} weights do not match the rebuilt index"):
                index_io.load_interval_index(str(damaged))


@settings(max_examples=200, deadline=None)
@given(case=breached_families(STORABLE))
def test_load_checks_stored_endpoints_as_the_per_pair_oracle(valid_blobs, case):
    _, pairs = case
    want = raised(check_pairs, pairs)
    assume(want is not None and all(I64_MIN <= v <= I64_MAX for pair in pairs for v in pair))
    blobs, tmp = valid_blobs
    source = fresh_path(tmp)
    source.write_bytes(blobs["intervals"])
    _, _, sections = index_io._read_blob(str(source))
    a = [ai for ai, _ in pairs]
    b = [bi for _, bi in pairs]
    sections["INTA"] = struct.pack(f"<{len(a)}q", *a)
    sections["INTB"] = struct.pack(f"<{len(b)}q", *b)
    path = fresh_path(tmp)
    write_blob(path, index_io.VERSION, index_io.KIND_INTERVALS, list(sections.items()))
    assert raised(index_io.load_interval_index, str(path)) == want
    assert cli.main(["query", str(path), "mliq", "0", "0"]) == 2


# -- corrupted blobs: exit 2 or a correct index, never a traceback ---------------


@pytest.fixture(scope="module")
def valid_blobs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("blobs")
    return {
        "array": blob_bytes(tmp, build_minheap, index_io.save_array_index, ARRAY),
        "intervals": blob_bytes(tmp, mliq.build_intervals, index_io.save_interval_index, FIX_INTERVALS),
    }, tmp


def check_damaged(data, kind, tmp):
    path = fresh_path(tmp)
    path.write_bytes(data)
    query = ["rmq", "1", "1"] if kind == "array" else ["mliq", "0", "0"]
    code = cli.main(["query", str(path), *query])
    assert code in (0, 2)
    if code:
        return
    if kind == "array":
        h = index_io.load_array_index(str(path))
        for i in range(1, h.n + 1):
            for j in range(i, h.n + 1):
                want = rmq.rmq_scan(h, i, j)
                assert rmq.rmq_direct(h, i, j) == rmq.rmq_checked(h, i, j) == rmq.rmq_ancestor(h, i, j) == want
    else:
        s = index_io.load_interval_index(str(path))
        for a in range(0, s.domain_max + 1):
            for b in range(a, s.domain_max + 1):
                for strict in (False, True):
                    want = mliq.mliq_bruteforce(s, a, b, strict)
                    assert mliq.mliq_naive(s, a, b, strict) == mliq.mliq_weighted(s, a, b, strict) == want


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["array", "intervals"]), data=st.data())
def test_truncated_blob_exits_2_or_loads_correctly(valid_blobs, kind, data):
    blobs, tmp = valid_blobs
    blob = blobs[kind]
    cut = data.draw(st.integers(0, len(blob) - 1))
    check_damaged(blob[:cut], kind, tmp)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["array", "intervals"]), data=st.data())
def test_flipped_blob_exits_2_or_loads_correctly(valid_blobs, kind, data):
    blobs, tmp = valid_blobs
    blob = bytearray(blobs[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] ^= data.draw(st.integers(1, 255))
    check_damaged(bytes(blob), kind, tmp)

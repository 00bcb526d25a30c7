import hashlib
import random
import struct

import pytest
from hypothesis import assume, given, settings, strategies as st

from dualtree import cli, index_io, mliq, rmq
from dualtree.errors import ParseError, ValidationError
from dualtree.minheap import build_minheap
from dualtree.randgen import random_array, random_intervals

from conftest import FIX_A, FIX_INTERVALS
from interval_oracle import I64_MAX, STORABLE, breached_families, check_pairs, raised

I64_MIN = -(1 << 63)

ARRAY = random_array(random.Random(0x10B), 40, span=12)


def blob_bytes(tmp_path, build, save, data):
    path = tmp_path / "blob.idx"
    save(str(path), build(data))
    return path.read_bytes()


def write_blob(path, version, kind, sections):
    with open(path, "wb") as fh:
        fh.write(index_io.MAGIC + struct.pack("<HHI", version, kind, len(sections)))
        for tag, payload in sections:
            fh.write(tag.encode("ascii") + struct.pack("<Q", len(payload)) + payload)


def test_array_blob_holds_the_values_and_the_dfuds_tables(tmp_path):
    path = tmp_path / "a.idx"
    index_io.save_array_index(str(path), build_minheap(FIX_A))
    data = path.read_bytes()
    assert struct.unpack_from("<HH", data, 4) == (index_io.VERSION, index_io.KIND_ARRAY) == (2, 1)
    _, sections = index_io._read_blob(str(path))
    assert list(sections) == ["VALS", "BITS", "RK64", "EMIN"]


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
    assert loaded.values == FIX_A and loaded.dfuds == h.dfuds
    assert index_io.read_kind(str(path)) == index_io.KIND_ARRAY


def test_missing_section_is_a_parse_error(tmp_path):
    h = build_minheap(FIX_A)
    sections = [("VALS", struct.pack("<Q", h.n) + struct.pack(f"<{h.n}q", *h.values)),
                ("BITS", index_io._bits_section(h.dfuds))]
    path = tmp_path / "short.idx"
    write_blob(path, 2, index_io.KIND_ARRAY, sections)
    with pytest.raises(ParseError, match="missing section RK64"):
        index_io.load_array_index(str(path))
    assert cli.main(["query", str(path), "rmq", "1", "2"]) == 2


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
    assert index_io.load_array_index(path).values == [(1 << 63) - 1, -(1 << 63)]


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
    # sha256 of the blobs written when the weighted BPs come from the decoded
    # heap tree (tree_construction in test_mliq.py); the DFUDS construction
    # must write the same bytes
    families = {
        "860ec2c9d6ddf7d09fd3a9415c5c073e1e774c97155abcec5d4d66acea66e2a7": FIX_INTERVALS,
        "59d7fe88787366e3ac459e8b1968c0add2405a5d1d810ccb1a00195f31e7ccdf": random_intervals(random.Random(0xB10B), 600),
    }
    for digest, pairs in families.items():
        data = blob_bytes(tmp_path, mliq.build_intervals, index_io.save_interval_index, pairs)
        assert hashlib.sha256(data).hexdigest() == digest


def test_array_blob_and_binary_file_bytes_are_unchanged(tmp_path):
    # sha256 of the array blob and of the binary array file as written with
    # one struct argument per value; the typed-array writers must write the
    # same bytes
    arrays = {
        ("46cc2eee641e0a704b191535244a7243df1dc9a4a7f116ff2e90b42f3292a55a",
         "b12b069f68aba9776f997f914a30bc6d46f02756ab875bf0940b0bc6ddf291ed"): FIX_A,
        ("478bb51ce7663bfd4cd5679450220c965d09a9f1b0748c0912bb9ab8d7653287",
         "7175f408689fc4cde448688b17650886cf9698b7d1cc891643d95d1fc6b74853"):
            random_array(random.Random(0xB10B), 600, span=1 << 62),
    }
    binary = tmp_path / "a.bin"
    for (blob_digest, file_digest), values in arrays.items():
        data = blob_bytes(tmp_path, build_minheap, index_io.save_array_index, values)
        assert hashlib.sha256(data).hexdigest() == blob_digest
        index_io.write_array_binary(str(binary), values)
        assert hashlib.sha256(binary.read_bytes()).hexdigest() == file_digest
        assert index_io.read_array_binary(str(binary)) == values


@pytest.mark.parametrize("tag, side", [("WOPN", "open"), ("WCLS", "close")])
def test_interval_load_compares_the_weight_tables(tmp_path, tag, side):
    path = tmp_path / "iv.idx"
    s = mliq.build_intervals(FIX_INTERVALS)
    index_io.save_interval_index(str(path), s)
    _, sections = index_io._read_blob(str(path))
    good = sections[tag]
    count = len(good) // 16
    for bad in (good[:-1], good + bytes(16), good[:-8] + struct.pack("<q", 99), struct.pack("<Q", count + 1) + good[8:]):
        sections[tag] = bad
        write_blob(path, index_io.VERSION, index_io.KIND_INTERVALS, list(sections.items()))
        with pytest.raises(ParseError, match=f"stored {side} weights do not match the rebuilt index"):
            index_io.load_interval_index(str(path))
    sections[tag] = good
    write_blob(path, index_io.VERSION, index_io.KIND_INTERVALS, list(sections.items()))
    assert index_io.load_interval_index(str(path)).a == s.a


@settings(max_examples=200, deadline=None)
@given(case=breached_families(STORABLE))
def test_load_checks_stored_endpoints_as_the_per_pair_oracle(valid_blobs, case):
    _, pairs = case
    want = raised(check_pairs, pairs)
    assume(want is not None and all(I64_MIN <= v <= I64_MAX for pair in pairs for v in pair))
    blobs, tmp = valid_blobs
    path = tmp / "endpoints.idx"
    path.write_bytes(blobs["intervals"])
    _, sections = index_io._read_blob(str(path))
    a = [ai for ai, _ in pairs]
    b = [bi for _, bi in pairs]
    sections["INTA"] = struct.pack(f"<{len(a)}q", *a)
    sections["INTB"] = struct.pack(f"<{len(b)}q", *b)
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
    path = tmp / f"damaged-{kind}.idx"
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

import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from dualtree import cli, index_io, mliq, rmq
from dualtree.minheap import build_minheap

from conftest import FIX_A, FIX_DFUDS, FIX_INTERVALS, V2_FIX_INTERVALS, write_blob


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def array_index(tmp_path):
    src = tmp_path / "a.txt"
    src.write_text(" ".join(str(v) for v in FIX_A) + "\n")
    idx = tmp_path / "a.idx"
    assert cli.main(["build", "array", str(src), "-o", str(idx)]) == 0
    return idx


@pytest.fixture
def interval_index(tmp_path):
    src = tmp_path / "iv.txt"
    src.write_text("".join(f"{a} {b}\n" for a, b in FIX_INTERVALS))
    idx = tmp_path / "iv.idx"
    assert cli.main(["build", "intervals", str(src), "-o", str(idx)]) == 0
    return idx


def test_build_array_reports_bits(tmp_path, capsys):
    src = tmp_path / "a.txt"
    src.write_text("2 7 8 1 6 4 3 5\n")
    idx = tmp_path / "a.idx"
    code, out, _ = run_cli(capsys, "build", "array", str(src), "-o", str(idx), "--output", "jsonl")
    assert code == 0
    stats = json.loads(out)
    assert stats["raw_bits"] == len(FIX_DFUDS)
    assert idx.read_bytes()[:4] == b"DTR1"


def test_build_stats_lines_are_pinned(tmp_path, capsys):
    # No query runs before the stats are taken, so the save and the stats
    # build the excess block and sparse tables themselves. excess_block_bits
    # counts the block minima only (64 bits per block), sparse_table_bits
    # 64 bits per packed table entry.
    cases = [
        ("array", " ".join(map(str, FIX_A)) + "\n",
         "array 8 18 256 64 64 8 152"),
        ("array", " ".join(str(37 * i % 1000) for i in range(1, 400)) + "\n",
         "array 399 800 1792 832 2624 399 3472"),
        ("intervals", "".join(f"{a} {b}\n" for a, b in FIX_INTERVALS),
         "intervals 4 10 256 64 64 8 156"),
        ("intervals", "".join(f"{3 * i} {3 * i + 2 + i % 3}\n" for i in range(300)),
         "intervals 300 602 1408 640 1856 600 5036"),
    ]
    for kind, text, want in cases:
        src = tmp_path / "in.txt"
        src.write_text(text)
        code, out, _ = run_cli(capsys, "build", kind, str(src), "-o", str(tmp_path / "out.idx"), "--output", "tsv")
        assert code == 0
        header, row = out.splitlines()
        assert header.split("\t") == ["kind", "n", "raw_bits", "rank_table_bits", "excess_block_bits",
                                      "sparse_table_bits", "value_words", "blob_bytes"]
        assert row.split("\t") == want.split()


def test_build_binary_format(tmp_path, capsys):
    src = tmp_path / "a.bin"
    index_io.write_array_binary(src, FIX_A)
    idx = tmp_path / "a.idx"
    code, _, _ = run_cli(capsys, "build", "array", str(src), "-o", str(idx), "--format", "binary")
    assert code == 0
    values = index_io.load_array_index(str(idx)).values
    assert values.typecode == "q" and values.tolist() == FIX_A


def test_binary_length_prefix_beyond_the_file_exits_2(tmp_path, capsys):
    src = tmp_path / "huge.bin"
    for n in (1 << 61, (1 << 64) - 1):  # 8n bytes overflow a read, so the file's size must be checked first
        src.write_bytes(struct.pack("<Q2q", n, 5, 7))
        code, _, err = run_cli(capsys, "build", "array", str(src), "-o", str(tmp_path / "x.idx"), "--format", "binary")
        assert code == 2
        assert err == f"error: {src}: expected {n} values, file too short\n"


def test_build_errors_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run_cli(capsys, "build", "array", str(empty), "-o", str(tmp_path / "x.idx"))
    assert code == 2 and "empty" in err

    bad = tmp_path / "bad.txt"
    bad.write_text("1 4\n1 6\n")
    code, _, err = run_cli(capsys, "build", "intervals", str(bad), "-o", str(tmp_path / "y.idx"))
    assert code == 2 and "2" in err

    missing = tmp_path / "nope.txt"
    code, _, _ = run_cli(capsys, "build", "array", str(missing), "-o", str(tmp_path / "z.idx"))
    assert code == 2


def test_build_non_ascii_text_exits_2_naming_file_and_line(tmp_path, capsys):
    for kind, body in (("array", b"1 2 \xc3\xa9\n"), ("intervals", b"1 2\n3 4\n5 \xff6\n")):
        src = tmp_path / f"{kind}.txt"
        src.write_bytes(body)
        code, _, err = run_cli(capsys, "build", kind, str(src), "-o", str(tmp_path / "x.idx"))
        line, byte = ("1", "0xc3") if kind == "array" else ("3", "0xff")
        assert code == 2
        assert err == f"error: {src}:{line}: non-ASCII byte {byte}\n"


def test_directory_paths_exit_2_with_one_line(tmp_path, array_index, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = str(tmp_path / "x.idx")
    for argv in (("build", "array", str(folder), "-o", out), ("build", "array", str(folder), "-o", out, "--format", "binary"),
                 ("build", "intervals", str(folder), "-o", out), ("query", str(folder), "rmq", "1", "2"),
                 ("bench", str(folder), "rmq"), ("build", "array", str(tmp_path / "a.txt"), "-o", str(folder))):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err


def test_query_rmq(array_index, capsys):
    code, out, _ = run_cli(capsys, "query", str(array_index), "rmq", "2", "7", "--engine", "direct")
    assert code == 0 and out.strip() == "4"
    for engine in ("checked", "direct", "ancestor", "scan"):
        code, out, _ = run_cli(capsys, "query", str(array_index), "rmq", "2", "7", "--engine", engine)
        assert code == 0 and out.strip() == "4"


def test_query_rmq_stats(array_index, capsys):
    code, out, _ = run_cli(capsys, "query", str(array_index), "rmq", "2", "7", "--stats", "--output", "jsonl")
    record = json.loads(out)
    assert record["answer"] == 4
    assert record["ops"] == {"rank": 1, "select": 2, "rmq": 1, "open": 0, "close": 0, "bpselect": 0}


def test_query_outputs_are_pinned(array_index, interval_index, capsys):
    cases = [
        ((str(array_index), "rmq", "2", "7", "--stats"),
         "4\nops: rank=1 select=2 rmq=1 open=0 close=0 bpselect=0\n"),
        ((str(array_index), "rmq", "2", "7", "--output", "tsv"), "answer\n4\n"),
        ((str(array_index), "rmq", "2", "7", "--output", "tsv", "--stats"),
         "answer\trank\tselect\trmq\topen\tclose\tbpselect\n4\t1\t2\t1\t0\t0\t0\n"),
        ((str(interval_index), "mliq", "4", "5", "--engine", "weighted", "--stats"),
         "2\nops: rank=1 select=2 rmq=1 open=0 close=0 bpselect=2\n"),
        ((str(interval_index), "mliq", "1", "10", "--output", "tsv"), "answer\nNone\n"),
        ((str(interval_index), "mliq", "4", "5", "--output", "tsv", "--stats"),
         "answer\trank\tselect\trmq\topen\tclose\tbpselect\n2\t3\t2\t1\t0\t0\t0\n"),
        ((str(interval_index), "mliq", "1", "10", "--output", "tsv", "--stats"),
         "answer\trank\tselect\trmq\topen\tclose\tbpselect\nNone\t2\t0\t0\t0\t0\t0\n"),
    ]
    for argv, want in cases:
        assert run_cli(capsys, "query", *argv) == (0, want, ""), argv


def test_query_mliq_none(interval_index, capsys):
    code, out, _ = run_cli(capsys, "query", str(interval_index), "mliq", "1", "10", "--engine", "weighted")
    assert code == 0 and out.strip() == "None"


def test_query_mliq_weighted_stats(interval_index, capsys):
    code, out, _ = run_cli(capsys, "query", str(interval_index), "mliq", "4", "5",
                           "--engine", "weighted", "--stats", "--output", "jsonl")
    record = json.loads(out)
    assert record["answer"] == 2
    assert record["ops"]["bpselect"] == 2


def test_query_order_violation_exit_3(array_index, capsys):
    code, _, err = run_cli(capsys, "query", str(array_index), "rmq", "7", "2")
    assert code == 3 and "7" in err


def test_query_out_of_range_exit_3(array_index, interval_index, capsys):
    code, _, _ = run_cli(capsys, "query", str(array_index), "rmq", "1", "9")
    assert code == 3
    code, _, _ = run_cli(capsys, "query", str(interval_index), "mliq", "0", "99")
    assert code == 3


def test_query_kind_mismatch_exit_2(array_index, capsys):
    code, _, _ = run_cli(capsys, "query", str(array_index), "mliq", "1", "2")
    assert code == 2


def test_unknown_engines_exit_3_with_one_line_listing_the_engines(array_index, interval_index, capsys):
    cases = [(("query", str(array_index), "rmq", "1", "2", "--engine", "bogus"), "rmq", rmq.ENGINES),
             (("query", str(interval_index), "mliq", "1", "2", "--engine", "bogus"), "mliq",
              ("naive", "weighted", "brute")),
             (("bench", str(array_index), "rmq", "--engine", "direct,bogus"), "rmq", rmq.ENGINES),
             (("bench", str(interval_index), "mliq", "--engine", "naive,bogus"), "mliq",
              ("naive", "weighted", "brute"))]
    for argv, kind, engines in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (3, f"query error: unknown {kind} engine 'bogus'; expected one of {engines}\n")
        assert out == ""


def test_bench_kind_mismatch_exits_2_with_one_line(array_index, interval_index, capsys):
    for blob, kind, want in ((array_index, "mliq", "mliq bench needs an interval index blob"),
                             (interval_index, "rmq", "rmq bench needs an array index blob")):
        code, out, err = run_cli(capsys, "bench", str(blob), kind, "--queries", "5")
        assert (code, out, err) == (2, "", f"error: {want}\n")


def test_wrong_kind_blob_is_never_loaded(array_index, interval_index, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a blob of the wrong kind is not loaded")

    monkeypatch.setattr(index_io, "load_array_index", refuse)
    monkeypatch.setattr(index_io, "load_interval_index", refuse)
    cases = [(("query", str(array_index), "mliq", "1", "2"), "mliq queries need an interval index blob"),
             (("query", str(interval_index), "rmq", "1", "2"), "rmq queries need an array index blob"),
             (("bench", str(array_index), "mliq", "--queries", "5"), "mliq bench needs an interval index blob"),
             (("bench", str(interval_index), "rmq", "--queries", "5"), "rmq bench needs an array index blob")]
    for argv, want in cases:
        assert run_cli(capsys, *argv) == (2, "", f"error: {want}\n")


def test_loaded_index_matches_memory(array_index, interval_index):
    h_mem = build_minheap(FIX_A)
    h_disk = index_io.load_array_index(str(array_index))
    for i in range(1, 9):
        for j in range(i, 9):
            assert rmq.rmq_direct(h_disk, i, j) == rmq.rmq_direct(h_mem, i, j)
    s_mem = mliq.build_intervals(FIX_INTERVALS)
    s_disk = index_io.load_interval_index(str(interval_index))
    for a in range(0, 11):
        for b in range(a, 11):
            assert mliq.mliq_weighted(s_disk, a, b) == mliq.mliq_weighted(s_mem, a, b)


def test_inspect_prints_the_version_kind_and_sections(array_index, interval_index, tmp_path, capsys):
    h = build_minheap(FIX_A)
    v1 = tmp_path / "v1.idx"
    write_blob(v1, 1, index_io.KIND_ARRAY, [
        ("VALS", struct.pack(f"<Q{h.n}q", h.n, *h.values)), ("BITS", index_io._bits_section(h.dfuds)),
        ("RK64", index_io._rank_section(h.dfuds)), ("EMIN", index_io._emin_section(h.dfuds)),
        ("PMAP", struct.pack(f"<{h.n}Q", *range(h.n)))])
    cases = [
        (v1, "version: 1\nkind: array\nVALS: 72 bytes\nBITS: 16 bytes\nRK64: 16 bytes\nEMIN: 16 bytes\n"
             "PMAP: 64 bytes\n"),
        (V2_FIX_INTERVALS, "version: 2\nkind: intervals\nINTA: 32 bytes\nINTB: 32 bytes\nBITS: 16 bytes\n"
                           "RK64: 16 bytes\nEMIN: 16 bytes\nWOPN: 72 bytes\nWCLS: 88 bytes\n"),
        (array_index, "version: 3\nkind: array\nVALS: 72 bytes\nBITS: 16 bytes\nEMIN: 16 bytes\n"),
        (interval_index, "version: 3\nkind: intervals\nINTA: 32 bytes\nINTB: 32 bytes\nBITS: 16 bytes\n"
                         "EMIN: 16 bytes\n"),
    ]
    for path, want in cases:
        assert run_cli(capsys, "inspect", str(path)) == (0, want, "")


def test_inspect_builds_nothing(array_index, interval_index, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("inspect builds no index")

    monkeypatch.setattr(index_io, "heap_dfuds", refuse)
    monkeypatch.setattr(index_io, "intervals_from_arrays", refuse)
    for path in (array_index, interval_index):
        code, out, _ = run_cli(capsys, "inspect", str(path))
        assert code == 0 and out.startswith("version: 3\n")


def test_inspect_truncated_blob_exits_2(interval_index, tmp_path, capsys):
    data = interval_index.read_bytes()
    cut = tmp_path / "cut.idx"
    for length in (0, 10, 20, len(data) - 1):
        cut.write_bytes(data[:length])
        code, out, err = run_cli(capsys, "inspect", str(cut))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cut}: ") and err.count("\n") == 1


def test_corrupt_blob_rejected(array_index, capsys):
    data = bytearray(array_index.read_bytes())
    data[0] = ord("X")
    array_index.write_bytes(bytes(data))
    code, _, err = run_cli(capsys, "query", str(array_index), "rmq", "1", "2")
    assert code == 2 and "magic" in err


def test_verify_small_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "join", "--seed", "7", "--trees", "30", "--max-size", "40")
    assert code == 0
    assert "RESULT: pass" in out


def test_verify_all_matches_the_committed_report(capsys):
    # the report of `dualtree verify all --seed 42` must stay byte-identical
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "42")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "verify_all_seed42.txt").read_text()


def test_verify_tsv_and_jsonl_outputs_are_pinned(capsys):
    checks = ("dual_decomposes_over_join", "prepended_root_dual_rmc_leaf", "subtree_is_quasi_subtree",
              "quasi_subtree_dual_edges_included")
    argv = ("verify", "join", "--seed", "7", "--trees", "5", "--max-size", "10", "--output")
    assert run_cli(capsys, *argv, "tsv") == (0, "".join(f"join\t{c}\t5\t0\n" for c in checks), "")
    want = "".join(f'{{"suite": "join", "check": "{c}", "passed": 5, "failed": 0, "failures": []}}\n' for c in checks)
    assert run_cli(capsys, *argv, "jsonl") == (0, want, "")


def test_verify_claim_prints_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "reversal-commute")
    assert code == 0
    assert "counterexamples" in out
    code, out, _ = run_cli(capsys, "verify", "--claim", "dfuds-mirror")
    assert code == 0
    assert "counterexamples" in out


def test_verify_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DUALTREE_SEED", "9")
    code, out, _ = run_cli(capsys, "verify", "join", "--trees", "20", "--max-size", "30")
    assert code == 0 and "seed 9" in out


def test_invalid_env_seed_exits_2_with_one_line(array_index, capsys, monkeypatch):
    monkeypatch.setenv("DUALTREE_SEED", "abc")
    for argv in (("verify", "join", "--trees", "5"), ("bench", str(array_index), "rmq")):
        assert run_cli(capsys, *argv) == (2, "", "error: DUALTREE_SEED must be an integer, got 'abc'\n"), argv


@pytest.mark.parametrize("suite, least, needy", [("all", 3, "join"), ("join", 3, "join"), ("pda", 2, "pda"),
                                                 ("identities", 1, "identities"), ("rmq", 1, "rmq"), ("mliq", 1, "mliq")])
def test_verify_max_size_below_a_suites_least_size_exits_2(suite, least, needy, capsys):
    for size in range(least - 2, least):
        code, out, err = run_cli(capsys, "verify", suite, "--max-size", str(size))
        assert (code, out) == (2, "")
        assert err == f"error: --max-size must be at least {least} for the {needy} suite, got {size}\n"


def test_verify_runs_at_each_suites_least_size(capsys):
    for suite, least in (("join", 3), ("pda", 2), ("rmq", 1)):
        code, out, _ = run_cli(capsys, "verify", suite, "--max-size", str(least), "--trees", "4", "--queries", "20")
        assert code == 0 and "RESULT: pass" in out


def test_negative_counts_exit_2(array_index, capsys):
    for argv, flag in ((("verify", "join", "--trees", "-1"), "trees"), (("verify", "--queries", "-5"), "queries"),
                       (("verify", "--claim", "dfuds-mirror", "--trees", "-2"), "trees"),
                       (("bench", str(array_index), "rmq", "--queries", "-1"), "queries")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --{flag} must be non-negative, got {argv[-1]}\n"


def test_bench_rows_and_agreement(array_index, interval_index, capsys):
    code, out, _ = run_cli(capsys, "bench", str(array_index), "rmq", "--queries", "64", "--seed", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    header, body = rows[0], rows[1:]
    assert len(body) == 4
    digest_col = header.index("answers_sha256")
    assert len({r[digest_col] for r in body}) == 1

    code, out, _ = run_cli(capsys, "bench", str(interval_index), "mliq", "--queries", "32")
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 3
    assert len({r[rows[0].index("answers_sha256")] for r in rows[1:]}) == 1


def test_bench_empty_workload(array_index, capsys):
    code, out, _ = run_cli(capsys, "bench", str(array_index), "rmq", "--queries", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 1  # header only


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "dualtree.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "build" in proc.stdout and "verify" in proc.stdout


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "dualtree", "verify", "identities", "--trees", "3", "--max-size", "8"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: pass" in proc.stdout


def test_build_rejects_values_outside_signed_64_bits(tmp_path, capsys):
    src = tmp_path / "big.txt"
    idx = tmp_path / "big.idx"
    for text in ("1 9223372036854775808 3\n", "-9223372036854775809\n"):
        src.write_text(text)
        code, _, err = run_cli(capsys, "build", "array", str(src), "-o", str(idx))
        assert code == 2 and "signed 64-bit" in err and ":1:" in err
    assert not idx.exists()
    src.write_text("9223372036854775807 -9223372036854775808\n")
    code, _, _ = run_cli(capsys, "build", "array", str(src), "-o", str(idx))
    assert code == 0
    code, out, _ = run_cli(capsys, "query", str(idx), "rmq", "1", "2")
    assert code == 0 and out.strip() == "2"
    iv = tmp_path / "iv.txt"
    iv.write_text("0 9223372036854775808\n")
    code, _, err = run_cli(capsys, "build", "intervals", str(iv), "-o", str(idx))
    assert code == 2 and "signed 64-bit" in err


def test_build_array_rejects_digit_group_underscores(tmp_path, capsys):
    src = tmp_path / "u.txt"
    src.write_text("3 1_0 2\n")
    idx = tmp_path / "u.idx"
    code, out, err = run_cli(capsys, "build", "array", str(src), "-o", str(idx))
    assert (code, out) == (2, "")
    assert err == f"error: {src}:1: not an integer: '1_0'\n"
    assert not idx.exists()


def test_build_intervals_rejects_digit_group_underscores(tmp_path, capsys):
    src = tmp_path / "u.txt"
    src.write_text("1 2\n3 1_0\n")
    idx = tmp_path / "u.idx"
    code, out, err = run_cli(capsys, "build", "intervals", str(src), "-o", str(idx))
    assert (code, out) == (2, "")
    assert err == f"error: {src}:2: not integers: '3 1_0'\n"
    assert not idx.exists()


def test_build_intervals_names_a_breach_past_the_first_lane_chunk(tmp_path, capsys):
    # line 3000 repeats line 2999's right endpoint, a chunk of the lane check after the first
    lines = [f"{2 * i} {2 * i + 5}" for i in range(1, 5001)]
    lines[2999] = f"{2 * 3000} {2 * 2999 + 5}"
    src = tmp_path / "seam.txt"
    src.write_text("\n".join(lines) + "\n")
    idx = tmp_path / "seam.idx"
    code, out, err = run_cli(capsys, "build", "intervals", str(src), "-o", str(idx))
    assert (code, out, err) == (2, "", f"error: {src}:3000: right endpoints not strictly increasing\n")
    assert not idx.exists()
    src.write_text("\n".join(lines[:2999]) + "\n")
    assert run_cli(capsys, "build", "intervals", str(src), "-o", str(idx))[0] == 0
    assert run_cli(capsys, "query", str(idx), "mliq", "10", "12") == (0, "4\n", "")

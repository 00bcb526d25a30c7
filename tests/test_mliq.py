import gc
import os
import random
import re
import struct
import tempfile
import tracemalloc
import types
from array import array
from bisect import bisect_right
from itertools import accumulate, islice
from operator import le, lt

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import bitseq, cli, codec, duality, index_io, mliq
from dualtree.bitseq import BitSeq, le_bytes
from dualtree.errors import ContractError, RangeError, ValidationError
from dualtree.parens import _LANES, WeightedBits
from dualtree.randgen import random_intervals
from dualtree.rmq import OpCounters

from conftest import FIX_INTERVALS, traced, weight_prefix, write_blob
from interval_oracle import I64_MAX, breached_families, check_pairs, raised


@pytest.fixture(scope="module")
def fam():
    return mliq.build_intervals(FIX_INTERVALS)


def test_build_examples(fam):
    assert fam.lengths.typecode == "i" and fam.lengths.tolist() == [4, 4, 5, 3]
    assert fam.n == 4
    assert fam.domain_max == 10
    single = mliq.build_intervals([(1, 2)])
    assert single.n == 1 and single.lengths.typecode == "i" and single.lengths.tolist() == [2]


def test_build_validation_errors():
    with pytest.raises(ValidationError, match="2"):
        mliq.build_intervals([(1, 4), (1, 6)])
    with pytest.raises(ValidationError, match="2"):
        mliq.build_intervals([(1, 4), (3, 4)])
    with pytest.raises(ValidationError, match="1"):
        mliq.build_intervals([(4, 1)])
    with pytest.raises(ValidationError):
        mliq.build_intervals([(-1, 4)])
    with pytest.raises(ValidationError):
        mliq.build_intervals([])
    for items in ([(1, 2), (3, 4, 5)], [(1, 2), 7], [(1,)]):
        bad = re.escape(repr(items[-1]))
        with pytest.raises(ValidationError, match=rf"^interval {len(items)}: expected a pair of endpoints, got {bad}$"):
            mliq.build_intervals(items)
    lengths = mliq.build_intervals(iter([[1, 2], [3, 5]])).lengths
    assert lengths.typecode == "i" and lengths.tolist() == [2, 3]


def test_endpoints_beyond_signed_64_bits_are_a_validation_error(tmp_path, capsys):
    with pytest.raises(ValidationError, match=rf"^interval 2: endpoint {I64_MAX + 1} outside the signed 64-bit range$"):
        mliq.build_intervals([(1, 4), (5, I64_MAX + 1)])
    with pytest.raises(ValidationError, match=rf"^interval 1: endpoint {1 << 64} outside the signed 64-bit range$"):
        mliq.build_intervals([(1 << 64, 1 << 65)])
    with pytest.raises(ValidationError, match="^interval 1: endpoints must be non-negative integers$"):
        mliq.build_intervals([(-(1 << 64), 3)])
    # the largest endpoint that fits still builds, saves, loads and answers
    s = mliq.build_intervals([(0, 5), (3, I64_MAX)])
    path = str(tmp_path / "big.idx")
    index_io.save_interval_index(path, s)
    loaded = index_io.load_interval_index(path)
    assert mliq.mliq_weighted(loaded, 4, 9) == mliq.mliq_naive(loaded, 4, 9) == 2
    src = tmp_path / "big.txt"
    src.write_text(f"1 4\n5 {I64_MAX + 1}\n")
    assert cli.main(["build", "intervals", str(src), "-o", str(tmp_path / "x.idx")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "signed 64-bit" in err[0]


@settings(max_examples=400, deadline=None)
@given(breached_families())
def test_bulk_validation_raises_what_the_per_pair_oracle_raises(case):
    kind, pairs = case
    want = raised(check_pairs, pairs)
    assert raised(mliq.build_intervals, pairs) == want
    if kind not in ("left", "right"):  # planted on the first interval, these two breach nothing
        assert want is not None and want[0] is ValidationError


def test_bruteforce_examples(fam):
    assert mliq.mliq_bruteforce(fam, 4, 5) == 2
    assert mliq.mliq_bruteforce(fam, 8, 8) == 4
    assert mliq.mliq_bruteforce(fam, 1, 10) is None


@pytest.mark.parametrize("solver", [mliq.mliq_naive, mliq.mliq_weighted])
def test_solver_examples(fam, solver):
    assert solver(fam, 4, 5) == 2
    assert solver(fam, 9, 10) == 4
    assert solver(fam, 1, 10) is None
    assert solver(fam, 8, 8) == 4


def test_query_contract_and_domain(fam):
    for fn in (mliq.mliq_bruteforce, mliq.mliq_naive, mliq.mliq_weighted):
        with pytest.raises(ContractError):
            fn(fam, 5, 4)
        with pytest.raises(RangeError):
            fn(fam, 0, 11)
        with pytest.raises(RangeError):
            fn(fam, -1, 4)


def test_bruteforce_takes_counters_and_counts_nothing(fam):
    # the oracle runs no primitive, as rmq_scan does
    c = OpCounters()
    for strict in (False, True):
        assert mliq.mliq_bruteforce(fam, 4, 5, strict, c) == mliq.mliq_bruteforce(fam, 4, 5, strict=strict)
        assert mliq.mliq_bruteforce(fam, 1, 10, strict=strict, counters=c) is None
    assert c.as_dict() == OpCounters().as_dict() and c.total() == 0


def test_strict_vs_closed(fam):
    # (3, 6) contains [3, 6] under the closed convention but not strictly
    assert mliq.mliq_bruteforce(fam, 3, 6, strict=False) == 2
    assert mliq.mliq_bruteforce(fam, 3, 6, strict=True) is None
    assert mliq.mliq_naive(fam, 3, 6, strict=True) is None
    assert mliq.mliq_weighted(fam, 3, 6, strict=True) is None
    assert mliq.mliq_naive(fam, 4, 5, strict=True) == 2
    assert mliq.mliq_weighted(fam, 4, 5, strict=True) == 2


def test_boundary_cases(fam):
    # a = 0: nothing starts at or before 0 except nothing; strict never answers
    assert mliq.mliq_weighted(fam, 0, 0, strict=True) is None
    assert mliq.mliq_naive(fam, 0, 0, strict=True) is None
    assert mliq.mliq_weighted(fam, 0, 0) == mliq.mliq_bruteforce(fam, 0, 0)
    zero = mliq.build_intervals([(0, 0), (2, 3)])
    assert mliq.mliq_weighted(zero, 0, 0) == 1
    assert mliq.mliq_naive(zero, 0, 0) == 1
    assert mliq.mliq_bruteforce(zero, 0, 0) == 1


def test_solvers_agree_random():
    rng = random.Random(0xA11)
    for _ in range(30):
        n = rng.randint(1, 200)
        fam = mliq.build_intervals(random_intervals(rng, n))
        hi = fam.domain_max
        for _ in range(60):
            a = rng.randint(0, hi)
            b = rng.randint(a, hi)
            for strict in (False, True):
                want = mliq.mliq_bruteforce(fam, a, b, strict=strict)
                assert mliq.mliq_naive(fam, a, b, strict=strict) == want
                assert mliq.mliq_weighted(fam, a, b, strict=strict) == want


def test_budgets(fam):
    c = OpCounters()
    assert mliq.mliq_naive(fam, 4, 5, counters=c) == 2
    assert c.as_dict() == {"rank": 3, "select": 2, "rmq": 1, "open": 0, "close": 0, "bpselect": 0}
    c = OpCounters()
    assert mliq.mliq_weighted(fam, 4, 5, counters=c) == 2
    assert c.as_dict() == {"rank": 1, "select": 2, "rmq": 1, "open": 0, "close": 0, "bpselect": 2}
    c = OpCounters()
    assert mliq.mliq_naive(fam, 1, 10, counters=c) is None
    assert (c.rank, c.select, c.rmq) == (2, 0, 0)
    c = OpCounters()
    assert mliq.mliq_weighted(fam, 1, 10, counters=c) is None
    assert (c.bpselect, c.select, c.rank) == (2, 0, 0)


def test_open_weight_prefix_equals_left_endpoints(fam):
    bp_open, _ = fam.weighted_bps()
    positions = bp_open.positions  # the openers after the root's
    for i in range(1, fam.n + 1):
        assert weight_prefix(bp_open, positions[i - 1]) == fam.a[i - 1]


def test_boundary_monotone(fam):
    bp_open, _ = fam.weighted_bps()
    marks = [bp_open.bpselect(x) for x in range(0, fam.domain_max + 2)]
    assert marks == sorted(marks)


def test_index_level_none_detection():
    # Adjacent-but-empty index windows: i_min == i_max + 1 while parenthesis
    # positions between the boundary opens still exist. The index-level test
    # must report None here.
    fam = mliq.build_intervals([(1, 2), (3, 3)])
    assert fam.lengths.typecode == "i" and fam.lengths.tolist() == [2, 1]
    assert mliq.mliq_bruteforce(fam, 2, 3) is None
    assert mliq.mliq_naive(fam, 2, 3) is None
    assert mliq.mliq_weighted(fam, 2, 3) is None


@st.composite
def wide_families(draw):
    """Families whose domain passes 2^22, with gaps up to 2^40, shifted so the
    last right endpoint may reach the largest signed 64-bit integer."""
    n = draw(st.integers(1, 10))
    gap = st.integers(1, 1 << 40)
    a = list(accumulate(draw(st.lists(gap, min_size=n, max_size=n)), initial=draw(st.integers(0, 1 << 40))))[1:]
    extra = draw(st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n))
    b = []
    for ai, e in zip(a, extra):
        b.append(max(ai, b[-1] + 1 if b else 0) + e)
    room = I64_MAX - b[-1]
    shift = draw(st.one_of(st.just(room), st.integers(max(0, (1 << 22) - b[-1]), room)))
    return [(x + shift, y + shift) for x, y in zip(a, b)]


@settings(max_examples=100, deadline=None)
@given(wide_families())
def test_solvers_agree_on_wide_domains(pairs):
    fam = mliq.build_intervals(pairs)
    hi = fam.domain_max
    assert hi >= 1 << 22
    points = sorted({0, hi} | {min(max(e + d, 0), hi) for e in (*fam.a, *fam.b) for d in (-1, 0, 1)})
    for i, a in enumerate(points):
        for b in points[i:]:
            for strict in (False, True):
                want = mliq.mliq_bruteforce(fam, a, b, strict=strict)
                assert mliq.mliq_naive(fam, a, b, strict=strict) == want
                assert mliq.mliq_weighted(fam, a, b, strict=strict) == want


def test_naive_ranks_are_the_weighted_boundary_counts(monkeypatch):
    ranks, counts = [], []
    real_rank, real_count = mliq.bisect_right, mliq._close_count

    def rank(table, x):
        ranks.append((table, real_rank(table, x)))
        return ranks[-1][1]

    def count(table, budget):
        counts.append((table, real_count(table, budget)))
        return counts[-1][1]

    monkeypatch.setattr(mliq, "bisect_right", rank)
    monkeypatch.setattr(mliq, "_close_count", count)
    rng = random.Random(0x2A4C)
    for _ in range(20):
        fam = mliq.build_intervals(random_intervals(rng, rng.randint(1, 120)))
        hi = fam.domain_max
        for _ in range(60):
            a = rng.randint(0, hi)
            b = rng.randint(a, hi)
            for strict in (False, True):
                ranks.clear()
                counts.clear()
                mliq.mliq_naive(fam, a, b, strict=strict)
                mliq.mliq_weighted(fam, a, b, strict=strict)
                (left, i_max), (right, i_min), *open_count = ranks
                assert left is fam.a and right is fam.b  # the stored endpoints, not a copy
                i_min += 1
                if strict and a == 0:  # nothing starts before 0: no select is made
                    assert (i_max, open_count, counts) == (0, [], [])
                    continue
                [(open_table, cnt_a)], [(close_table, cnt_b)] = open_count, counts
                assert open_table is fam.a and close_table is fam.b
                assert i_max == cnt_a
                assert i_min == max(1, fam.n + 1 - cnt_b)


def today_cum_tables(fam):
    """The cumulative weight tables the index held before the counts were
    taken by bisect over the endpoints: ``a`` for the open side, and b_n + 1
    - b read in reverse, then b_n + 1, for the close side."""
    sentinel = fam.b[-1] + 1
    return list(fam.a), [sentinel - x for x in reversed(fam.b)] + [sentinel]


def check_counts(fam, budgets):
    """Both bpselect counts of ``mliq_weighted`` against bisect over the
    cumulative tables: the open side's is a bisect over ``a`` itself."""
    open_cum, close_cum = today_cum_tables(fam)
    for budget in budgets:
        if budget >= 0:
            assert bisect_right(fam.a, budget) == bisect_right(open_cum, budget), budget
            assert mliq._close_count(fam.b, budget) == bisect_right(close_cum, budget), budget


def test_bpselect_counts_match_bisect_over_the_cumulative_tables():
    rng = random.Random(0xC0C7)
    for _ in range(60):
        fam = mliq.build_intervals(random_intervals(rng, rng.randint(1, 150)))
        sentinel = fam.b[-1] + 1
        budgets = {0, 1, sentinel - 1, sentinel, sentinel + 1, 2 * sentinel}
        budgets |= {x + d for x in (*fam.a, *fam.b) for d in (-1, 0, 1)}
        budgets |= {sentinel - x + d for x in fam.b for d in (-1, 0, 1)}
        check_counts(fam, budgets)
        for b in range(0, fam.domain_max + 1, 7):
            c = OpCounters()
            assert mliq.mliq_weighted(fam, 0, b, strict=True, counters=c) is None
            assert c.bpselect == 0  # strict at a = 0: nothing starts before 0, and no count is taken
    # b_n the largest i64: the sentinel, and the close side's total, is 2^63
    for pairs in ([(0, 5), (3, I64_MAX)], [(I64_MAX - 9, I64_MAX - 4), (I64_MAX - 2, I64_MAX)], [(7, I64_MAX)]):
        fam = mliq.build_intervals(pairs)
        budgets = {0, 1, 4, 5, 6, 1 << 62, I64_MAX - 7, I64_MAX - 3, I64_MAX, 1 << 63, (1 << 63) + 1, 1 << 64}
        check_counts(fam, budgets | {x + d for x in (*fam.a, *fam.b) for d in (-1, 0, 1)})


def test_build_and_queries_never_compute_weighted_positions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no query reads a weighted position")

    monkeypatch.setattr(mliq, "_dfuds_depths", refuse)
    rng = random.Random(0x90DE)
    for _ in range(10):
        fam = mliq.build_intervals(random_intervals(rng, rng.randint(1, 200)))
        hi = fam.domain_max
        for _ in range(40):
            a = rng.randint(0, hi)
            b = rng.randint(a, hi)
            for strict in (False, True):
                want = mliq.mliq_bruteforce(fam, a, b, strict=strict)
                assert mliq.mliq_naive(fam, a, b, strict=strict) == want
                assert mliq.mliq_weighted(fam, a, b, strict=strict) == want
    with pytest.raises(AssertionError, match="no query reads a weighted position"):
        fam.weighted_bps()


# -- the weighted BPs read off the DFUDS against the tree construction -----------


def tree_construction(fam):
    """The weighted BPs as built from the decoded heap tree: BP-encode the heap
    and its reversal, place the endpoint gaps by select. Returns both
    ParenSeqs with their (positions, cumulative weights) tables."""
    n = fam.n
    bp, bp_map = codec.bp_encode(fam.heap.tree)
    rev, _ = codec.bp_encode(duality.reverse(fam.heap.tree))
    opens = sorted(bp_map.open_pos.values())[1:]
    open_gaps = [fam.a[0]] + [fam.a[i] - fam.a[i - 1] for i in range(1, n)]
    closes = [rev.select(i, 0) for i in range(1, n + 2)]
    close_gaps = [1] + [fam.b[i] - fam.b[i - 1] for i in range(n - 1, 0, -1)] + [fam.b[0]]
    return bp, (opens, list(accumulate(open_gaps))), rev, (closes, list(accumulate(close_gaps)))


def check_weighted_bps(pairs):
    fam = mliq.build_intervals(pairs)
    bp, open_tables, rev, close_tables = tree_construction(fam)
    bp_open, bp_close = fam.weighted_bps()
    # each side is the length and the opener or closer positions of the BP
    # that the tree construction encodes, with its cumulative weights
    for weighted, seq, tables in ((bp_open, bp, open_tables), (bp_close, rev, close_tables)):
        assert (weighted.n, list(weighted.positions), list(weighted.cum)) == (len(seq), *tables)
    # the open-weight prefix at the (i+1)-th opener is a_i; the close-weight
    # prefix at the i-th closer is the sentinel b_n + 1 minus b_{n+1-i}
    n = fam.n
    for i in range(1, n + 1):
        assert weight_prefix(bp_open, bp.select(i + 1, 1)) == fam.a[i - 1]
    sentinel = fam.b[-1] + 1
    for i in range(1, n + 2):
        expect = sentinel - (fam.b[n - i] if i <= n else 0)
        assert weight_prefix(bp_close, rev.select(i, 0)) == expect


@st.composite
def families(draw):
    n = draw(st.integers(1, 60))
    a = list(accumulate(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), initial=draw(st.integers(0, 3))))[1:]
    extra = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    b = []
    for ai, e in zip(a, extra):
        b.append(max(ai, b[-1] + 1 if b else 0) + e)
    return list(zip(a, b))


@settings(max_examples=200, deadline=None)
@given(families())
def test_weighted_bps_match_the_tree_construction(pairs):
    check_weighted_bps(pairs)


@pytest.mark.parametrize("shape", ["single", "increasing", "decreasing", "equal", "random"])
def test_weighted_bps_match_the_tree_construction_on_shapes(shape):
    n = 300
    pairs = {
        "single": [(4, 9)],
        "increasing": [(i, 3 * i) for i in range(1, n + 1)],
        "decreasing": [(2 * i, 2 * n + i) for i in range(1, n + 1)],
        "equal": [(i, i + 4) for i in range(n)],
        "random": random_intervals(random.Random(0xD0D), 2000),
    }[shape]
    lengths = [b - a + 1 for a, b in pairs]
    if shape == "increasing":
        assert lengths == sorted(set(lengths))
    if shape == "decreasing":
        assert lengths == sorted(set(lengths), reverse=True)
    check_weighted_bps(pairs)


def test_build_and_load_make_no_tree(tmp_path, monkeypatch):
    pairs = random_intervals(random.Random(0x7EE), 3000)
    path = str(tmp_path / "iv.idx")

    def refuse(*args, **kwargs):
        raise AssertionError("the interval index must be read off the DFUDS")

    for owner, name in ((codec, "bp_encode"), (duality, "reverse"), (BitSeq, "select"), (codec, "_dfuds_tree")):
        monkeypatch.setattr(owner, name, refuse)
    fam = mliq.build_intervals(pairs)
    index_io.save_interval_index(path, fam)
    loaded = index_io.load_interval_index(path)
    assert fam.heap._tree is None and loaded.heap._tree is None


# -- what an interval index holds ------------------------------------------------------


def reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, without
    the types, modules and functions that no index owns."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = {id(root)}
    todo = [root]
    out = []
    while todo:
        obj = todo.pop()
        out.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                todo.append(ref)
    return out


def test_interval_index_holds_typed_tables_and_no_dict(tmp_path):
    path = str(tmp_path / "iv.idx")
    built = mliq.build_intervals(random_intervals(random.Random(0x7AB), 3000))
    index_io.save_interval_index(path, built)
    for s in (built, index_io.load_interval_index(path)):
        assert [type(o) for o in reachable(s) if isinstance(o, dict)] == []
        assert type(s.a) is type(s.b) is array and s.a.typecode == s.b.typecode == "i"  # b_n < 2^31
        # the endpoints and the length heap's DFUDS, and nothing else: the
        # lengths and the weighted positions are computed when asked for
        assert s.heap.values is None and s.heap.n == s.n
        dfuds = s.heap.dfuds
        tables = (s.a, s.b, dfuds._words, dfuds._cum1, dfuds._cum0)
        held = {id(o) for o in reachable(s) if isinstance(o, (array, bytes, bytearray))}
        assert type(dfuds._exc) is bytearray and held == {id(t) for t in (*tables, dfuds._exc)}
        # a query with one qualifying interval answers by arithmetic: it
        # selects nothing, so it builds no select table
        assert mliq.mliq_naive(s, s.a[0], s.b[0]) == mliq.mliq_weighted(s, s.a[0], s.b[0]) == 1
        assert (dfuds._sel1, dfuds._off1, dfuds._sel0, dfuds._off0) == (None,) * 4
        assert held == {id(o) for o in reachable(s) if isinstance(o, (array, bytes, bytearray))}
        # a query whose range holds two intervals or more selects closes,
        # which builds that symbol's select directory and in-word offsets,
        # and no table of the opening symbol; its range minimum builds the
        # sparse table, one array('q') per level
        k = next(k for k in range(s.n - 1) if s.a[k + 1] <= s.b[k])
        point = s.a[k + 1]  # inside intervals k and k + 1
        assert sum(x <= point <= y for x, y in zip(s.a, s.b)) >= 2
        mliq.mliq_naive(s, point, point)
        mliq.mliq_weighted(s, point, point)
        held = {id(o) for o in reachable(s) if isinstance(o, (array, bytes, bytearray))}
        assert dfuds._sel1 is None and dfuds._sel0.typecode == "q"
        assert dfuds._off1 is None and type(dfuds._off0) is bytes and len(dfuds._off0) == dfuds.count(0)
        assert held == {id(t) for t in (*tables, dfuds._exc, dfuds._sel0, dfuds._off0, *dfuds._table)}
        lengths = s.lengths
        assert lengths.typecode == "i" and lengths.tolist() == [y - x + 1 for x, y in zip(s.a, s.b)]
        bp_open, bp_close = s.weighted_bps()
        assert type(bp_open.positions) is array and bp_open.positions.typecode == "q" and bp_open.cum is s.a
        # unsigned: the close side's total is b_n + 1, which reaches 2^63 when b_n is the largest i64
        positions, cum = bp_close.positions, bp_close.cum
        assert type(positions) is type(cum) is array and (positions.typecode, cum.typecode) == ("q", "Q")
        assert s.weighted_bps()[0].positions is not bp_open.positions  # not cached on the index
        # one bit sequence, the heap's DFUDS: no endpoint bitmap, and no
        # weighted BP
        bitseqs = [o for o in reachable(s) if isinstance(o, BitSeq)]
        assert len(bitseqs) == 1 and bitseqs[0] is s.heap.dfuds
        assert not [o for o in reachable(s) if isinstance(o, WeightedBits)]


def test_interval_build_holds_few_bytes_and_peaks_near_them():
    # The list-based tables held 280 bytes per interval on this family and
    # peaked at 1.31x that; the typed tables with two dense endpoint bitmaps
    # held 136 and peaked at 1.17x; without the bitmaps the index held 103
    # and peaked at 1.22x. With the lengths and the heap's excess typed too,
    # it held 61 and peaked at 1.42x (87 bytes, against 126 before). Holding
    # only the endpoints and the DFUDS, it held 26 and peaked at 1.38x (36
    # bytes). With the excess in one byte per bit, it holds 20 and peaks at
    # 1.42x (28 bytes): the DFUDS text is joined a chunk of nodes at a time,
    # so no list of one pointer per node is held next to the degrees. With
    # the degree pass writing each chunk of the text as it goes, so that no
    # degree list is held either, it peaks at 1.335x (26.4 bytes); with the
    # DFUDS written back to front into one bytearray, it held 19.65 and
    # peaked at 1.20x (23.7 bytes). With the endpoints two array('i'), made
    # straight from the pairs, it holds 11.25 and peaks at 1.36x (15.3
    # bytes). The bounds of 15 held and 19 peak bytes fail a return to
    # 8-byte endpoints, or a build that makes them and then narrows them.
    pairs = random_intervals(random.Random(0x1EAF), 20_000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        s = mliq.build_intervals(pairs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held -= before
    peak -= before
    assert s.n == len(pairs) and s.a.typecode == s.b.typecode == "i"
    assert held <= 15 * len(pairs), held / len(pairs)
    assert peak <= 1.4 * held and peak <= 19 * len(pairs), (peak / held, peak / len(pairs))


# -- the lane check of the endpoint rules ---------------------------------------

def rules_by_endpoint(a, b):
    """The endpoint test that ``mliq._rules_hold`` replaced, one endpoint at a
    time, kept as its oracle."""
    return a[0] >= 0 and all(map(le, a, b)) and all(map(lt, a, islice(a, 1, None))) and all(
        map(lt, b, islice(b, 1, None)))


# by item width: the entries after which a chunk of the lane check starts
# the next, and the least and greatest entry
STEP = {8: _LANES - 1, 4: 2 * _LANES - 1}
EXTREMES = {8: (-(1 << 63), I64_MAX), 4: (-(1 << 31), (1 << 31) - 1)}
TYPECODES = {8: "q", 4: "i"}


@st.composite
def lane_families(draw, width):
    """(a, b): a valid family of ``width``-byte entries, of one lane to three
    chunks plus one, from 0 or up against the greatest entry, with up to two
    endpoints then set to 0, an extreme, -1, a neighbour's value or one off
    it, mostly next to a seam between chunks."""
    step, (least, greatest) = STEP[width], EXTREMES[width]
    n = draw(st.one_of(st.integers(1, 3 * step + 2),
                       st.sampled_from([1, 2, step, step + 1, step + 2, 2 * step + 1, 3 * step + 1, 3 * step + 2])))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    pairs = random_intervals(rng, n, draw(st.sampled_from([1, 16, 1 << (40 if width == 8 else 12)])))
    a, b = (list(side) for side in zip(*pairs))
    if draw(st.booleans()):
        lift = greatest - b[-1]
        a, b = [x + lift for x in a], [y + lift for y in b]
    for _ in range(draw(st.integers(0, 2))):
        seam = draw(st.integers(1, 3)) * step + draw(st.integers(-1, 1))
        k = min(seam, n - 1) if draw(st.booleans()) else draw(st.integers(0, n - 1))
        ends, other = (a, b) if draw(st.booleans()) else (b, a)
        k2 = min(max(k + draw(st.sampled_from([-1, 1])), 0), n - 1)
        ends[k] = draw(st.sampled_from([0, greatest, least, -1, ends[k2], ends[k2] + 1, ends[k2] - 1, other[k]]))
        ends[k] = min(max(ends[k], least), greatest)
    return array(TYPECODES[width], a), array(TYPECODES[width], b)


def swapped(table):
    copy = array(table.typecode, table)
    copy.byteswap()
    return copy


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 8]).flatmap(lane_families))
def test_lane_check_decides_as_the_endpoint_oracle(tmp_path_factory, family):
    # 64-bit lanes over array('q') tables, 32-bit lanes over array('i') ones
    a, b = family
    want = rules_by_endpoint(a, b)
    assert mliq._rules_hold(a, b) == want
    with pytest.MonkeyPatch.context() as mp:
        # a big-endian host holds the bytes of each value swapped
        mp.setattr(bitseq, "_BIG_ENDIAN", True)
        assert mliq._rules_hold(swapped(a), swapped(b)) == want
    pairs = list(zip(a, b))
    built = raised(mliq.build_intervals, pairs)
    assert built == raised(check_pairs, pairs)
    assert raised(mliq.intervals_from_arrays, a, b) == built
    fd, path = tempfile.mkstemp(suffix=".idx", dir=tmp_path_factory.getbasetemp())
    os.close(fd)
    if want:
        assert built is None
        index_io.save_interval_index(path, mliq.build_intervals(pairs))
        loaded = index_io.load_interval_index(path)
        assert (loaded.a, loaded.b) == (a, b)
        assert loaded.a.typecode == loaded.b.typecode == ("i" if b[-1] < 1 << 31 else "q")
    else:
        assert built[0] is ValidationError
        width = struct.pack("<Q", a.itemsize)
        sections = [("INTA", width + le_bytes(a)), ("INTB", width + le_bytes(b)), ("BITS", b""), ("EMIN", b"")]
        write_blob(path, index_io.VERSION, index_io.KIND_INTERVALS, sections)
        assert raised(index_io.load_interval_index, path) == built


def test_lane_check_peaks_at_chunk_sized_ints():
    pairs = random_intervals(random.Random(0x1A9E), 100_000)
    for typecode in "iq":
        a, b = (array(typecode, side) for side in zip(*pairs))
        holds, _, peak = traced(lambda: mliq._rules_hold(a, b))
        assert holds is True
        assert peak < 64 << 10, (typecode, peak)


def test_endpoint_tables_of_unequal_lengths_or_other_types_are_a_contract_error():
    with pytest.raises(ContractError, match="^3 left endpoints but 2 right endpoints$"):
        mliq.intervals_from_arrays(array("q", [0, 1, 2]), array("q", [5, 6]))
    for a, b in (([0, 1], [5, 6]), (array("q", [0, 1]), [5, 6]), (array("q", [0, 1]), array("Q", [5, 6])),
                 (array("l", [0, 1]), array("q", [5, 6])), (memoryview(array("q", [0, 1])), array("q", [5, 6])),
                 (array("i", [0, 1]), array("q", [5, 6])), (array("q", [0, 1]), array("i", [5, 6]))):
        with pytest.raises(ContractError, match=r"^endpoints must be given as two array\('i'\) or two array\('q'\)$"):
            mliq.intervals_from_arrays(a, b)

import gc
import random
import re
import tracemalloc
import types
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from dualtree import cli, codec, duality, index_io, minheap, mliq
from dualtree.bitseq import BitSeq
from dualtree.errors import ContractError, RangeError, ValidationError
from dualtree.parens import CLOSE_WEIGHTS, OPEN_WEIGHTS, WeightedBits
from dualtree.randgen import random_intervals
from dualtree.rmq import OpCounters

from conftest import FIX_INTERVALS
from interval_oracle import I64_MAX, breached_families, check_pairs, raised


@pytest.fixture(scope="module")
def fam():
    return mliq.build_intervals(FIX_INTERVALS)


def test_build_examples(fam):
    assert fam.lengths.typecode == "q" and fam.lengths.tolist() == [4, 4, 5, 3]
    assert fam.n == 4
    assert fam.domain_max == 10
    single = mliq.build_intervals([(1, 2)])
    assert single.n == 1 and single.lengths.typecode == "q" and single.lengths.tolist() == [2]


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
    assert lengths.typecode == "q" and lengths.tolist() == [2, 3]


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
    positions, _ = fam.bp_open._weight_tables(OPEN_WEIGHTS)  # the openers after the root's
    for i in range(1, fam.n + 1):
        assert fam.bp_open.weight_prefix(OPEN_WEIGHTS, positions[i - 1]) == fam.a[i - 1]


def test_boundary_monotone(fam):
    marks = [fam.bp_open.bpselect(OPEN_WEIGHTS, x) for x in range(0, fam.domain_max + 2)]
    assert marks == sorted(marks)


def test_index_level_none_detection():
    # Adjacent-but-empty index windows: i_min == i_max + 1 while parenthesis
    # positions between the boundary opens still exist. The index-level test
    # must report None here.
    fam = mliq.build_intervals([(1, 2), (3, 3)])
    assert fam.lengths.typecode == "q" and fam.lengths.tolist() == [2, 1]
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
    real_rank, real_count = mliq.bisect_right, WeightedBits.bpselect_with_count

    def rank(table, x):
        ranks.append((table, real_rank(table, x)))
        return ranks[-1][1]

    def count(self, side, budget):
        found = real_count(self, side, budget)
        counts.append(found[1])
        return found

    monkeypatch.setattr(mliq, "bisect_right", rank)
    monkeypatch.setattr(WeightedBits, "bpselect_with_count", count)
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
                (left, i_max), (right, i_min) = ranks
                assert left is fam.a and right is fam.b  # the stored endpoints, not a copy
                i_min += 1
                if strict and a == 0:  # nothing starts before 0: no select is made
                    assert (i_max, counts) == (0, [])
                    continue
                cnt_a, cnt_b = counts
                assert i_max == cnt_a
                assert i_min == max(1, fam.n + 1 - cnt_b)


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
    # each side is the length and the opener or closer positions of the BP
    # that the tree construction encodes, with its cumulative weights
    assert (fam.bp_open.n, tuple(map(list, fam.bp_open._weight_tables(OPEN_WEIGHTS)))) == (len(bp), open_tables)
    assert (fam.bp_close.n, tuple(map(list, fam.bp_close._weight_tables(CLOSE_WEIGHTS)))) == (len(rev), close_tables)
    # the open-weight prefix at the (i+1)-th opener is a_i; the close-weight
    # prefix at the i-th closer is the sentinel b_n + 1 minus b_{n+1-i}
    n = fam.n
    for i in range(1, n + 1):
        assert fam.bp_open.weight_prefix(OPEN_WEIGHTS, bp.select(i + 1, 1)) == fam.a[i - 1]
    sentinel = fam.b[-1] + 1
    for i in range(1, n + 2):
        expect = sentinel - (fam.b[n - i] if i <= n else 0)
        assert fam.bp_close.weight_prefix(CLOSE_WEIGHTS, rev.select(i, 0)) == expect


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

    for owner, name in ((codec, "bp_encode"), (duality, "reverse"), (BitSeq, "select"), (minheap, "_decode_heap")):
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
        assert type(s.a) is type(s.b) is array and s.a.typecode == s.b.typecode == "q"
        assert s.lengths is s.heap.values
        positions, cum = s.bp_open._weight_tables(OPEN_WEIGHTS)
        assert type(positions) is array and positions.typecode == "q" and cum is s.a
        positions, cum = s.bp_close._weight_tables(CLOSE_WEIGHTS)
        # unsigned: the close side's total is b_n + 1, which reaches 2^63 when b_n is the largest i64
        assert type(positions) is type(cum) is array and (positions.typecode, cum.typecode) == ("q", "Q")
        # one bit sequence, the heap's DFUDS: no endpoint bitmap, and the
        # weighted BPs are their tables alone
        bitseqs = [o for o in reachable(s) if isinstance(o, BitSeq)]
        assert len(bitseqs) == 1 and bitseqs[0] is s.heap.dfuds.base


def test_interval_build_holds_few_bytes_and_peaks_near_them():
    # The list-based tables held 280 bytes per interval on this family and
    # peaked at 1.31x that; the typed tables with two dense endpoint bitmaps
    # held 136 and peaked at 1.17x; without the bitmaps the index held 103
    # and peaked at 1.22x. With the lengths and the heap's excess typed too,
    # it holds 61 and peaks at 1.42x (87 bytes, against 126 before). The
    # bound leaves 19 bytes per interval of margin.
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
    assert s.n == len(pairs)
    assert held <= 80 * len(pairs), held / len(pairs)
    assert peak <= 1.5 * held, (peak, held)

import random

import pytest

from dualtree import codec, duality, mliq, rmq
from dualtree.errors import ContractError
from dualtree.minheap import build_minheap
from dualtree.parens import ParenSeq
from dualtree.randgen import random_array, random_intervals, random_tree
from dualtree.tree import OrdinalTree

from conftest import FIX_A


@pytest.fixture(scope="module")
def fix_heap():
    return build_minheap(FIX_A)


ALL = (rmq.rmq_checked, rmq.rmq_direct, rmq.rmq_ancestor, rmq.rmq_scan)


@pytest.mark.parametrize("fn", ALL)
def test_fixture_queries(fix_heap, fn):
    assert fn(fix_heap, 2, 7) == 4
    assert fn(fix_heap, 5, 8) == 7
    assert fn(fix_heap, 1, 8) == 4
    assert fn(fix_heap, 6, 8) == 7
    assert fn(fix_heap, 3, 3) == 3
    for i in range(1, 9):
        assert fn(fix_heap, i, i) == i


def test_direct_two_element_cases():
    h = build_minheap([1, 2])
    assert h.dfuds.to_string() == "(()())"
    assert rmq.rmq_direct(h, 1, 2) == 1
    h = build_minheap([2, 1])
    assert h.dfuds.to_string() == "((()))"
    assert rmq.rmq_direct(h, 1, 2) == 2


def test_scan_leftmost_ties():
    h = build_minheap([5, 5, 5])
    for fn in ALL:
        assert fn(h, 1, 3) == 1


def test_contract_errors(fix_heap):
    for fn in ALL:
        with pytest.raises(ContractError):
            fn(fix_heap, 5, 2)
        with pytest.raises(ContractError):
            fn(fix_heap, 0, 3)
        with pytest.raises(ContractError):
            fn(fix_heap, 1, 9)
    with pytest.raises(ContractError):
        rmq.range_min_index(fix_heap, 1, 2, engine="warp")
    for i, j in ((1.0, 2), (1, "2")):
        with pytest.raises(ContractError, match=r"^indices must be integers$"):
            rmq.rmq_direct(fix_heap, i, j)


def test_scan_on_a_heap_without_values_is_a_contract_error():
    # An interval index's length heap holds no values: the scan refuses it
    # as MinHeapIndex.value does, and the engines that read only the DFUDS
    # answer on it, with the position of the shortest interval.
    s = mliq.build_intervals([(0, 4), (2, 5), (3, 9)])
    assert s.heap.values is None and s.lengths.tolist() == [5, 4, 7]
    with pytest.raises(ContractError, match=r"^the heap holds no values$"):
        rmq.range_min_index(s.heap, 1, 3, engine="scan")
    with pytest.raises(ContractError, match=r"^indices \(1, 4\) outside 1\.\.3$"):
        rmq.rmq_scan(s.heap, 1, 4)
    assert {rmq.range_min_index(s.heap, 1, 3, engine=e) for e in ("checked", "direct", "ancestor")} == {2}


def test_engines_agree_with_duplicates():
    rng = random.Random(0x77)
    for _ in range(40):
        n = rng.randint(1, 300)
        h = build_minheap(random_array(rng, n))
        for _ in range(40):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            want = rmq.rmq_scan(h, i, j)
            assert rmq.rmq_checked(h, i, j) == want
            assert rmq.rmq_direct(h, i, j) == want
            assert rmq.rmq_ancestor(h, i, j) == want


def test_pda_fast_examples(fix_t):
    df, _ = codec.dfuds_encode(fix_t)
    assert rmq.pda_fast(fix_t, df, 2, 5) == 4
    assert rmq.pda_fast(fix_t, df, 5, 8) == 7
    for v in (2, 4, 7):
        assert rmq.pda_fast(fix_t, df, v, v) == v
    t = OrdinalTree.from_children("r", {"r": ("z",), "z": ("c", "d")})
    d2, _ = codec.dfuds_encode(t)
    assert d2.to_string() == "(()(()))"
    assert rmq.pda_fast(t, d2, "z", "d") == "z"
    with pytest.raises(ContractError):
        rmq.pda_fast(fix_t, df, 5, 2)
    with pytest.raises(ContractError):
        rmq.pda_fast(fix_t, df, 0, 5)


def test_pda_fast_matches_definitional_and_depth():
    rng = random.Random(0x78)
    for _ in range(50):
        t = random_tree(rng, rng.randint(2, 150))
        df, _ = codec.dfuds_encode(t)
        for _ in range(30):
            r1 = rng.randint(2, t.n_nodes)
            r2 = rng.randint(r1, t.n_nodes)
            v1, v2 = t.node_at(r1), t.node_at(r2)
            fast = rmq.pda_fast(t, df, v1, v2)
            assert fast == duality.primal_dual_ancestor(t, v1, v2)
            assert fast == t.range_min_depth(v1, v2)[1]


def test_direct_budget_exact(fix_heap):
    for (i, j) in [(1, 8), (2, 7), (4, 4), (8, 8)]:
        c = rmq.OpCounters()
        rmq.rmq_direct(fix_heap, i, j, c)
        assert c.as_dict() == {"rank": 1, "select": 2, "rmq": 1, "open": 0, "close": 0, "bpselect": 0}


def test_checked_budget_bounds(fix_heap):
    for (i, j) in [(1, 8), (2, 7), (4, 4), (1, 2)]:
        c = rmq.OpCounters()
        rmq.rmq_checked(fix_heap, i, j, c)
        assert c.select <= 2 and c.rmq <= 1 and c.open <= 1 and c.rank <= 2
        assert c.bpselect == 0 and c.close == 0


def test_ancestor_budget_matches_direct(fix_heap):
    c = rmq.OpCounters()
    rmq.rmq_ancestor(fix_heap, 2, 7, c)
    assert c.as_dict() == {"rank": 1, "select": 2, "rmq": 1, "open": 0, "close": 0, "bpselect": 0}


def test_engines_run_one_kernel_call_with_unchanged_counts(monkeypatch):
    # direct and ancestor, and through them naive and weighted, take the
    # range-min and its rank_0 from ParenSeq.rmq_closers: no rank or
    # rmq_excess call of their own, and the same 2 select + 1 rmq + 1 rank
    def refuse(*args):
        raise AssertionError("the kernel is one rmq_closers call")

    rng = random.Random(0x4E7)
    h = build_minheap(random_array(rng, 300, 50))
    fam = mliq.build_intervals(random_intervals(rng, 200))
    ranges = ((1, 300), (7, 7), (40, 230))
    expected = [rmq.rmq_scan(h, i, j) for i, j in ranges]
    answers = [mliq.mliq_bruteforce(fam, x, x + 3) for x in range(0, fam.domain_max, 17)]
    monkeypatch.setattr(ParenSeq, "rank", refuse)
    monkeypatch.setattr(ParenSeq, "rmq_excess", refuse)
    kernel = {"rank": 1, "select": 2, "rmq": 1, "open": 0, "close": 0, "bpselect": 0}
    for fn in (rmq.rmq_direct, rmq.rmq_ancestor):
        for (i, j), want in zip(ranges, expected):
            c = rmq.OpCounters()
            assert fn(h, i, j, c) == want and c.as_dict() == kernel
    for x, want in zip(range(0, fam.domain_max, 17), answers):
        c = rmq.OpCounters()
        assert mliq.mliq_naive(fam, x, x + 3, counters=c) == want
        if want is not None:
            assert c.as_dict() == {**kernel, "rank": 3}
        c = rmq.OpCounters()
        assert mliq.mliq_weighted(fam, x, x + 3, counters=c) == want
        if want is not None:
            assert c.as_dict() == {**kernel, "bpselect": 2}
    assert any(want is not None for want in answers)


def test_counters_accumulate(fix_heap):
    c = rmq.OpCounters()
    rmq.rmq_direct(fix_heap, 1, 8, c)
    rmq.rmq_direct(fix_heap, 1, 8, c)
    assert (c.select, c.rmq, c.rank) == (4, 2, 2)
    assert c.total() == 8

"""Tests of the benchmark itself, on inputs far smaller than a real run.

    python3 -m pytest perfbench -q
"""

import json
import os

import dualtree as dt
from dualtree import mliq

import inputs
import memory
import spans
import workloads
from gate import ERROR, Gate


def test_wrong_rmq_answer_is_counted_as_failure(monkeypatch):
    right = dt.rmq_checked

    def off_by_one(h, i, j, counters=None):
        k = right(h, i, j, counters)
        return k + 1 if k < j else k - 1 if k > i else k

    monkeypatch.setattr(dt, "rmq_checked", off_by_one)
    res = workloads.array_random(3, 0.2, n=3000)
    assert not res.gate.correct
    assert res.gate.failed > 0
    assert res.gate.failed <= res.gate.attempted


def test_raising_engine_is_counted_as_failure(monkeypatch):
    def broken(s, a, b, strict=False, counters=None):
        raise dt.ContractError("broken on purpose")

    monkeypatch.setattr(dt, "mliq_weighted", broken)
    res = workloads.intervals_random(3, 0.2, n=2000)
    assert res.gate.failed > 0


def test_wrong_dual_is_counted_as_failure(monkeypatch):
    monkeypatch.setattr(dt, "dual", dt.reverse)
    res = workloads.trees_dual(3, 0.0, scale=100)
    assert res.gate.failed > 0


def test_wrong_dual_of_a_dual_is_counted_as_failure(monkeypatch):
    right = dt.dual
    made = []

    def wrong_on_duals(t):
        if any(t is d for d in made):
            return dt.reverse(right(t))
        d = right(t)
        made.append(d)
        return d

    monkeypatch.setattr(dt, "dual", wrong_on_duals)
    res = workloads.trees_dual(3, 0.0, scale=100)
    assert res.gate.failed > 0
    assert all("dual(dual T)" in note for note in res.gate.notes), res.gate.notes


def test_seed_code_passes_the_gate():
    for res in (workloads.array_random(5, 0.2, n=3000), workloads.intervals_random(5, 0.2, n=2000),
                workloads.trees_dual(5, 0.0, scale=100)):
        assert res.gate.correct, res.gate.notes
        assert res.gate.attempted > 0
        assert all(value > 0 for value, _ in res.metrics.values()), res.metrics


def test_gate_counts():
    g = Gate()
    assert g.agree([3, 3, 3], "q")
    assert not g.agree([3, 4, 3], "q")
    assert not g.agree([ERROR, ERROR], "q")
    assert g.attempted == 8 and g.failed == 5
    g.against([3, 3], 4, "oracle")
    assert g.attempted == 8 and g.failed == 7


def test_inputs_are_seeded():
    assert inputs.digest(inputs.array_values(1, 1000)) == inputs.digest(inputs.array_values(1, 1000))
    assert inputs.digest(inputs.array_values(1, 1000)) != inputs.digest(inputs.array_values(2, 1000))
    values = inputs.array_values(4, 1000)
    assert min(values) >= -2000 and max(values) <= 2000 and len(set(values)) < 1000
    pairs = inputs.interval_family(4, 500)
    assert all(a1 < a2 and b1 < b2 for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]))
    assert all(a <= b for a, b in pairs)
    assert pairs[-1][1] + 1 <= mliq.DENSE_DOMAIN_LIMIT
    for a, b, _ in inputs.interval_queries(4, pairs, 200):
        assert 0 <= a <= b <= pairs[-1][1]


def test_uniform_tree_is_one_tree():
    kids = inputs.uniform_tree(9, 2000)
    t = dt.OrdinalTree.from_children(1, kids)
    assert t.n_nodes == 2000


def test_heap_shape_matches_the_library():
    values = inputs.array_values(6, 500)
    t = dt.build_minheap(values).tree
    degree = max(len(t.children(v)) for v in t.nodes())
    depth = max(t.depth(v) for v in t.nodes())
    assert workloads.heap_shape(values) == (degree, depth)


def test_oracle_dual_matches_the_library():
    t = dt.OrdinalTree.from_children(1, inputs.uniform_tree(2, 300))
    assert dt.dual(t).children_map() == workloads.oracle_dual(t.children_map(), t.root)


def test_recorder_self_time_and_restore():
    original = dt.build_minheap
    rec = spans.SpanRecorder()
    rec.install()
    try:
        assert dt.build_minheap is not original
        assert mliq.pda_fast is not original and dt.rmq.pda_fast is mliq.pda_fast
        rec.set_phase("build")
        h = dt.build_minheap(inputs.array_values(1, 2000))
        rec.set_phase("query")
        dt.rmq_ancestor(h, 5, 900)
    finally:
        rec.uninstall()
    assert dt.build_minheap is original
    totals = rec.totals("build")
    assert totals["minheap.build_minheap"][0] == 1
    assert totals["tree.OrdinalTree.from_children"][0] == 1
    assert totals["parens.ParenSeq.__init__"][0] == 1
    assert rec.totals("query")["rmq.pda_fast"][0] == 1
    derived = spans.self_times(rec._start, rec._end, rec._parent)
    by_name = {}
    for idx, ns in zip(rec._name, derived):
        by_name[rec.names[idx]] = by_name.get(rec.names[idx], 0) + ns
    online = {}
    for ph in rec.phases():
        for name, (_, ns) in rec.totals(ph).items():
            online[name] = online.get(name, 0) + ns
    assert by_name == online


def test_traced_run_reports_every_layer_metric():
    res, _ = workloads.run_traced(workloads.array_random, 8, 0.2, n=3000)
    layers = res.layers
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(layers) == names
    assert layers["rmq.direct.ops_per_query"][0] == 4
    assert layers["parens.open_ns"][0] > 0 and layers["bitseq.select_ns"][0] > 0
    assert layers["mliq.naive_ns"][0] == 0
    assert layers["trace.overhead_ratio"][0] > 1


def test_every_span_outside_the_loop_is_charged():
    res, rec = workloads.run_traced(workloads.array_random, 8, 0.2, n=3000)
    charged = sum(value for value, unit in res.layers.values() if unit == "s")
    repeats = {"build": res.calls["setup"], "load": res.calls["load"], "save": res.calls["save"]}
    spent = sum(ns / repeats[ph] for ph in repeats for name, (_, ns) in rec.totals(ph).items()
                if not name.startswith("rmq."))
    assert abs(charged - spent / 1e9) < 1e-6
    save = rec.totals("save")
    assert save["tree.OrdinalTree.parent"][0] >= 3000  # the parent map is tree work
    assert res.layers["tree.build_s"][0] > 0 and res.layers["index_io.save_s"][0] > 0


def test_module_bytes_attributes_each_layer():
    h = dt.build_minheap(inputs.array_values(1, 5000))
    sizes = memory.module_bytes(h)
    assert set(sizes) == {"minheap", "tree", "codec", "parens", "bitseq"}
    # the values list and its ints belong to the heap: 8 B per slot, 28 B per int
    assert 30 <= sizes["minheap"] / 5000 <= 40

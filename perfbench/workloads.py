"""The three benchmark workloads.

Each workload is one process and one caller: the next call into dualtree is
issued only when the previous one has returned (a closed loop, one client).
A workload times set-up, save, load and its timed loop, checks every answer
through a ``Gate``, and returns a ``Result``. With a ``SpanRecorder`` the same
steps run traced, and the result also carries the per-layer figures.
"""

import gc
import os
import resource
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import dualtree as dt
from dualtree import codec, index_io, mliq

import inputs
import memory
import spans
from gate import ERROR, Gate, call

QUERY_POOL = 50_000  # queries generated per run; a pass cycles through them
# Trees whose dual(dual T) check takes the outer dual from oracle_dual: the
# chain's dual is a 10^5-leaf star, on which the library's dual is quadratic.
ORACLE_INVOLUTION = {"chain"}
ORACLE_SAMPLE = 32  # first queries of the loop also held to the linear-scan oracle
RELOAD_SAMPLE = 64  # queries answered by both the fresh and the loaded index
SAVES = 4  # save samples per cycle, spread between passes: a save is short, and more samples steady its mean
SAMPLE_S = 0.5  # a set-up, save or load sample repeats its step until the step has run this long

LAYER_MODULES = ("minheap", "tree", "codec", "parens", "bitseq", "mliq")
BUILD_LAYERS = ("minheap", "tree", "parens", "bitseq", "mliq")
OFF_LOOP = ("build", "save", "load", "setup", "pass")  # phases outside the query loop
OFF_LOOP_METRICS = [f"{layer}.build_s" for layer in BUILD_LAYERS] + [
    "codec.encode_s", "codec.decode_s", "codec.mirror_s", "duality.dual_s", "duality.reverse_s",
    "index_io.save_s", "index_io.load_s"]

TREE_NAV = ["dft", "node_at", "navigate", "parent", "children", "first_right", "depth",
            "subtree_size", "in_subtree", "nodes", "has_node", "children_map", "parent_map"]
# Mean self time per call inside the timed loop.
CALL_SPANS = {
    "tree.nav_ns": [f"tree.OrdinalTree.{m}" for m in TREE_NAV],
    "parens.rmq_excess_ns": ["parens.ParenSeq.rmq_excess"],
    "parens.open_ns": ["parens.ParenSeq.open"],
    "parens.bpselect_ns": ["parens.ParenSeq.bpselect", "parens.ParenSeq.bpselect_with_count"],
    "bitseq.select_ns": ["bitseq.BitSeq.select"],
    "bitseq.rank_ns": ["bitseq.BitSeq.rank"],
}
RMQ_ENGINES = ("direct", "checked", "ancestor")
MLIQ_ENGINES = ("naive", "weighted")


def off_loop_metric(span):
    """The per-layer ``_s`` metric a span outside the query loop is charged
    to, by the name's prefix; None for ``rmq``, whose calls are all queries."""
    layer, _, rest = span.partition(".")
    if layer in BUILD_LAYERS:
        return f"{layer}.build_s"
    if layer == "codec":
        if "mirror" in rest:
            return "codec.mirror_s"
        return "codec.decode_s" if "decode" in rest or "from_text" in rest else "codec.encode_s"
    if layer == "duality":
        return "duality.reverse_s" if rest == "reverse" else "duality.dual_s"
    return None


def layer_metrics(rec, res, base):
    """Per-layer figures of a traced run ``res`` (``base`` is the same work
    untraced); a layer the workload never calls reads 0."""

    def summed(phases):
        out = {}
        for ph in phases:
            for name, (calls, ns) in rec.totals(ph).items():
                c, s = out.get(name, (0, 0))
                out[name] = (c + calls, s + ns)
        return out

    phases = rec.phases()
    loop = summed([p for p in phases if p.startswith("query:") or p == "pass"])
    m = {name: (0.0, "s") for name in OFF_LOOP_METRICS}
    # index_io's own spans go to index_io.save_s / load_s; every other span of
    # the set-up, save, load and pass phases to its layer's metric. Each phase
    # counts once per repeat, so the figures compare with setup_s, save_s and
    # load_s.
    repeats = {"build": res.calls["setup"], "setup": res.calls["setup"],
               "save": res.calls["save"], "load": res.calls["load"], "pass": res.queries_run}
    for ph in OFF_LOOP:
        for name, (_, ns) in rec.totals(ph).items():
            metric = f"index_io.{ph}_s" if name.startswith("index_io.") else off_loop_metric(name)
            if metric is not None:
                m[metric] = (m[metric][0] + ns / 1e9 / repeats[ph], "s")
    for metric, names in CALL_SPANS.items():
        calls = sum(loop.get(n, (0, 0))[0] for n in names)
        ns = sum(loop.get(n, (0, 0))[1] for n in names)
        m[metric] = (ns / calls if calls else 0.0, "ns")
    for layer, engines in (("rmq", RMQ_ENGINES), ("mliq", MLIQ_ENGINES)):
        for e in engines:
            own = sum(ns for name, (_, ns) in rec.totals(f"query:{e}").items() if name.startswith(layer + "."))
            m[f"{layer}.{e}_ns"] = (own / res.queries_run if own else 0.0, "ns")
            m[f"{layer}.{e}.ops_per_query"] = (res.report.get(f"{layer}.{e}.ops_per_query", (0.0,))[0], "count")
    m["mliq.answered_ratio"] = (res.report.get("mliq.answered_ratio", (0.0,))[0], "ratio")
    for layer in LAYER_MODULES:
        m[f"{layer}.bytes_per_elem"] = (res.module_bytes.get(layer, 0) / res.elems, "B")
    m["trace.overhead_ratio"] = (res.elapsed_s / base.elapsed_s, "ratio")
    return m


class Result:
    """What one run of a workload measured."""

    def __init__(self, workload, elems):
        self.workload = workload
        self.elems = elems  # values, intervals or tree nodes: the per-element divisor
        self.gate = Gate()
        self.metrics = {}  # end-to-end metrics of BENCHMARK.json
        self.report = {}  # further end-to-end figures, printed for the reader
        self.layers = {}  # per-layer metrics of a traced run
        self.props = {}  # properties of the inputs
        self.samples = {"setup": [], "save": [], "load": []}  # per sample, mean seconds of its calls
        self.calls = {"setup": 0, "save": 0, "load": 0}  # calls made: a short step's sample holds several
        self.elapsed_s = 0.0  # wall time of the timed loop and of one call per set-up, save and load sample
        self.count = 0  # queries in each pass of the loop (trees-dual: passes in each cycle)
        self.queries_run = 0  # queries (or corpus passes) the timed loop ran, over all passes
        self.counters = []  # per engine, the timed loop's OpCounters
        self.blob_bytes = 0
        self.peak_rss = 0.0
        self.module_bytes = {}  # dualtree module -> bytes held by the index (traced runs)

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def note(self, name, value, unit):
        self.report[name] = (value, unit)

    def timed(self, kind, fn, *args):
        """fn(*args), each call after a full collection and the release of
        the previous call's result, until the calls have run for SAMPLE_S;
        their mean seconds is one ``kind`` sample. Returns the last result."""
        calls = 0
        secs = 0.0
        while calls == 0 or secs < SAMPLE_S:
            out = None
            gc.collect()
            t0 = perf_counter()
            out = fn(*args)
            secs += perf_counter() - t0
            calls += 1
        self.calls[kind] += calls
        self.samples[kind].append(secs / calls)
        self.elapsed_s += secs / calls  # one call's worth: traced runs repeat less
        return out


class _Phases:
    """Names the phase a recorder charges spans to; inert without one."""

    def __init__(self, rec):
        self.rec = rec

    def __call__(self, name, query_id=-1):
        if self.rec is not None:
            self.rec.set_phase(name)
            self.rec.query_id = query_id


@contextmanager
def _untraced(rec):
    """Checks call the library too; keep those calls out of the spans."""
    if rec is None:
        yield
        return
    rec.paused = True
    try:
        yield
    finally:
        rec.paused = False


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _first_answers(engines, counters, index, q):
    return [call(fn, index, *q, c) for fn, c in zip(engines, counters)]


class QueryLoop:
    """Closed loop over one list of queries: each query goes through every
    engine in turn, and the answers must agree.

    The first pass runs for a given time (or count) and so fixes how many
    queries the list holds; each later pass runs the same queries again. The
    workload spreads its passes over the run. An engine's rate is taken over
    all its calls in all passes, and a query's latency is the median of its
    passes. The host's speed swings between a fast and a slow state every
    few seconds; a rate over passes taken at many moments follows the share
    of time spent in each, while the fastest pass, or the median of a few,
    jumps between the two states from run to run.
    """

    def __init__(self, engines, counters, names, queries, gate, phase):
        self.passes = []  # per pass, per engine, latencies in ns
        self.kept = []  # (query, answers, agreed) of the first ORACLE_SAMPLE queries
        self.count = None  # queries per pass
        self.answered = 0  # queries of the first pass whose first answer is not None
        self.spent_s = 0.0
        self._pairs = list(zip(engines, counters, [f"query:{n}" for n in names]))
        self._queries = queries
        self._gate = gate
        self._phase = phase

    def run(self, index, seconds=None, count=None):
        """One pass: the list of queries fixed so far, or, on the first pass,
        ``count`` queries or as many as end within ``seconds``."""
        gc.collect()
        queries, pool, gate, phase = self._queries, len(self._queries), self._gate, self._phase
        first = self.count is None
        end = count if first else self.count
        lat = [array("q") for _ in self._pairs]
        start = perf_counter_ns()
        stop = start + int(seconds * 1e9) if end is None else None
        k = 0
        t1 = start
        while end is None or k < end:
            q = queries[k % pool]
            answers = []
            for (fn, c, ph), out in zip(self._pairs, lat):
                phase(ph, k)
                t0 = perf_counter_ns()
                try:
                    a = fn(index, *q, c)
                except Exception:  # a raising engine is a failed answer
                    a = ERROR
                t1 = perf_counter_ns()
                out.append(t1 - t0)
                answers.append(a)
            agreed = gate.agree(answers, f"query {q}")
            if first:
                self.answered += answers[0] is not None
                if k < ORACLE_SAMPLE:
                    self.kept.append((q, answers, agreed))
            k += 1
            if stop is not None and t1 >= stop:
                break
        phase("idle")
        self.count = k
        self.passes.append(lat)
        self.spent_s += (t1 - start) / 1e9

    def rates(self):
        """Per engine, calls per second over all passes."""
        return [self.count * len(self.passes) / (sum(sum(p[e]) for p in self.passes) / 1e9)
                for e in range(len(self._pairs))]

    def typical(self):
        """Per engine, each query's median latency over the passes, in ns."""
        return [[statistics.median(col) for col in zip(*(p[e] for p in self.passes))]
                for e in range(len(self._pairs))]


def _latency_report(res, loop, names, noun):
    """Print each engine's rate and latencies; returns the rates."""
    rates = loop.rates()
    typical = loop.typical()
    for name, rate, lat in zip(names, rates, typical):
        res.note(f"{noun}_{name}_qps", rate, "1/s")
        res.note(f"{noun}_{name}_p50_us", statistics.median(lat) / 1e3, "us")
    q = statistics.quantiles(typical[0], n=100)
    res.note("query_p50_us", q[49] / 1e3, f"us, {names[0]}, n={len(typical[0])}")
    res.note("query_p99_us", q[98] / 1e3, f"us, {names[0]}, n={len(typical[0])}")
    res.note("passes", len(loop.passes), "count")
    return rates


def _index_workload(res, build, build_arg, save, load, blob, engines, names, queries, oracle,
                    seconds, rec, cycles, count):
    """Shared flow of the two index workloads: ``cycles`` times build (the
    first answers of every engine included), ``SAVES`` times a pass of the
    timed loop on the fresh index and a save, release, load and a pass on
    the loaded index; then the oracle sample, the memory report (traced runs
    only) and a last pass. ``seconds`` is shared out evenly over the passes.
    The first cycle also keeps answers of the fresh index to compare with the
    loaded one."""
    phase = _Phases(rec)
    gate = res.gate
    counters = [dt.OpCounters() for _ in engines]
    res.counters = [dt.OpCounters() for _ in engines]
    loop = QueryLoop(engines, res.counters, names, queries, gate, phase)
    per_pass = seconds / ((SAVES + 1) * cycles + 1)
    reload_queries = queries[-RELOAD_SAMPLE:]
    fresh = None

    def setup():
        index = build(build_arg)
        return index, _first_answers(engines, counters, index, queries[0])

    def reload():
        loaded = load(blob)
        return loaded, _first_answers(engines, counters, loaded, queries[0])

    for cycle in range(cycles):
        index = None  # release the loaded index before the next build
        phase("build")
        index, first = res.timed("setup", setup)
        phase("idle")
        gate.agree(first, "first query after build")
        if fresh is None:
            fresh = [_first_answers(engines, counters, index, q) for q in reload_queries]
        for _ in range(SAVES):
            loop.run(index, per_pass, count)
            phase("save")
            res.timed("save", save, blob, index)
            phase("idle")
        index = None
        phase("load")
        index, first = res.timed("load", reload)
        phase("idle")
        gate.agree(first, "first query after load")
        if cycle == 0:
            for q, before in zip(reload_queries, fresh):
                after = _first_answers(engines, counters, index, q)
                for a, b in zip(after, before):
                    gate.check(a == b and a is not ERROR, f"loaded index answered {q} with {a!r}, fresh one {b!r}")
        loop.run(index, per_pass, count)
    res.peak_rss = peak_rss_mb()
    with _untraced(rec):
        for q, answers, agreed in loop.kept:
            if agreed:
                gate.against(answers, oracle(index, *q), f"oracle on {q}")
    res.blob_bytes = os.path.getsize(blob)
    os.remove(blob)
    if rec is not None:
        _walk(res, index)
    loop.run(index, per_pass, count)
    res.count = loop.count
    res.queries_run = loop.count * len(loop.passes)
    res.elapsed_s += loop.spent_s
    return loop


def _walk(res, *roots):
    """The memory report: bytes per dualtree module held by ``roots``. The walk
    takes about 15 s at 10^6 values, so only traced runs make it."""
    res.module_bytes = memory.module_bytes(*roots)
    res.note("index_bytes_per_elem", sum(res.module_bytes.values()) / res.elems, "B")


def _end_to_end(res, main_per_s, alt_per_s):
    """The BENCHMARK.json metrics, given the workload's two rates.

    Save and load are the means of their samples, like the rates: the host
    swings between a fast and a slow state, and the median of a few samples
    jumps between the two while the mean follows the share of each. Set-up
    is the median of its samples, which at two per run is their mean too."""
    res.metric("setup_s", statistics.median(res.samples["setup"]), "s")
    res.metric("load_s", statistics.fmean(res.samples["load"]), "s")
    res.metric("save_s", statistics.fmean(res.samples["save"]), "s")
    res.metric("blob_bytes_per_elem", res.blob_bytes / res.elems, "B")
    res.metric("peak_rss_mb", res.peak_rss, "MB")
    res.metric("main_per_s", main_per_s, "1/s")
    res.metric("alt_per_s", alt_per_s, "1/s")


# -- array-random ------------------------------------------------------------------


def heap_shape(values):
    """(max degree, depth) of the 2D-Min-Heap of ``values``, by the benchmark's
    own stack pass: position m attaches to the rightmost earlier position
    with a value <= its own, else to the sentinel root."""
    degree = [0] * (len(values) + 1)
    depth = [0] * (len(values) + 1)
    spine = []  # (position, value), values non-decreasing
    for pos, val in enumerate(values, start=1):
        while spine and spine[-1][1] > val:
            spine.pop()
        parent = spine[-1][0] if spine else 0
        degree[parent] += 1
        depth[pos] = depth[parent] + 1
        spine.append((pos, val))
    return max(degree), max(depth)


def array_random(seed, seconds, rec=None, n=inputs.ARRAY_N, cycles=1, count=None):
    res = Result("array-random", n)
    values = inputs.array_values(seed, n)
    queries = inputs.range_queries(seed, n, QUERY_POOL)
    degree, depth = heap_shape(values)
    res.props.update(n=n, values_sha=inputs.digest(values), queries_sha=inputs.digest(queries),
                     heap_max_degree=degree, heap_depth=depth)
    os.makedirs(OUT_DIR, exist_ok=True)
    blob = os.path.join(OUT_DIR, f"array-random-{seed}-{os.getpid()}.idx")
    engines = [dt.rmq_direct, dt.rmq_checked, dt.rmq_ancestor]
    loop = _index_workload(res, dt.build_minheap, values, index_io.save_array_index, index_io.load_array_index,
                           blob, engines, RMQ_ENGINES, queries, dt.rmq_scan, seconds, rec, cycles, count)
    rates = _latency_report(res, loop, RMQ_ENGINES, "rmq")
    if rec is None:
        # checked is left out: its cost follows how far back open() scans,
        # which hinges on where this seed puts the array's smallest values
        _end_to_end(res, rates[0], rates[2])
    for name, c in zip(RMQ_ENGINES, res.counters):
        res.note(f"rmq.{name}.ops_per_query", c.total() / res.queries_run, "count")
    return res


# -- intervals-random ------------------------------------------------------------------


def intervals_random(seed, seconds, rec=None, n=inputs.INTERVALS_N, cycles=1, count=None):
    res = Result("intervals-random", n)
    pairs = inputs.interval_family(seed, n)
    queries = inputs.interval_queries(seed, pairs, QUERY_POOL)
    lengths = [b - a + 1 for a, b in pairs]
    degree, depth = heap_shape(lengths)
    domain = pairs[-1][1]
    res.props.update(n=n, pairs_sha=inputs.digest(pairs), queries_sha=inputs.digest(queries),
                     domain_max=domain, dense_domain_limit=mliq.DENSE_DOMAIN_LIMIT,
                     dense_bitmaps=domain + 1 <= mliq.DENSE_DOMAIN_LIMIT,
                     length_heap_max_degree=degree, length_heap_depth=depth)
    os.makedirs(OUT_DIR, exist_ok=True)
    blob = os.path.join(OUT_DIR, f"intervals-random-{seed}-{os.getpid()}.idx")
    engines = [dt.mliq_naive, dt.mliq_weighted]
    loop = _index_workload(res, dt.build_intervals, pairs, index_io.save_interval_index,
                           index_io.load_interval_index, blob, engines, MLIQ_ENGINES, queries,
                           dt.mliq_bruteforce, seconds, rec, cycles, count)
    rates = _latency_report(res, loop, MLIQ_ENGINES, "mliq")
    if rec is None:
        _end_to_end(res, rates[0], rates[1])
    for name, c in zip(MLIQ_ENGINES, res.counters):
        res.note(f"mliq.{name}.ops_per_query", c.total() / res.queries_run, "count")
    res.note("mliq.answered_ratio", loop.answered / loop.count, "ratio")
    return res


# -- trees-dual ------------------------------------------------------------------------


def oracle_dual(children, root):
    """Children map of the dual, by definition: a non-root node's dual parent
    is the first node after its subtree in preorder (the root when none),
    and siblings appear in descending preorder."""
    order = _preorder(children, root)
    size = dict.fromkeys(order, 1)
    for v in reversed(order):
        for c in children[v]:
            size[v] += size[c]
    out = {v: [] for v in order}
    total = len(order)
    for k in range(total - 1, 0, -1):
        v = order[k]
        nxt = k + size[v]
        out[order[nxt] if nxt < total else root].append(v)
    return {v: tuple(kids) for v, kids in out.items()}


def _preorder(children, root):
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    return order


def _shape(children, root):
    """Degree sequence in preorder, which fixes an ordered tree up to labels."""
    return [len(children[v]) for v in _preorder(children, root)]


def _tree_depth(children, root):
    depth = {root: 0}
    for v in _preorder(children, root):
        for c in children[v]:
            depth[c] = depth[v] + 1
    return max(depth.values())


def _round_trip(t, times):
    """The timed round trip of one tree; ``times`` maps each step to its seconds."""

    def step(name, fn, arg):
        t0 = perf_counter()
        value = fn(arg)
        times[name] = times.get(name, 0.0) + perf_counter() - t0
        return value

    out = {"dual": step("dual", dt.dual, t), "reversed_dual": step("reversed_dual", dt.reversed_dual, t)}
    out["bp"] = step("bp_encode", dt.bp_encode, t)[0]
    out["dfuds"] = step("dfuds_encode", dt.dfuds_encode, t)[0]
    out["mirror"] = step("mirror", dt.mirror, step("dfuds_encode", dt.dfuds_encode, out["dual"])[0])
    out["bp_decode"] = step("bp_decode", dt.bp_decode, out["bp"])
    out["dfuds_decode"] = step("dfuds_decode", dt.dfuds_decode, out["dfuds"])
    return out


def _expected(t):
    """What the round trip of ``t`` must give, by the benchmark's own constructions."""
    kids = t.children_map()
    want = oracle_dual(kids, t.root)
    return {"root": t.root, "kids": kids, "dual": want, "shape": _shape(kids, t.root),
            "reversed_dual": {v: tuple(reversed(c)) for v, c in want.items()}}


def _check_round_trip(gate, name, out, want, involution):
    """Check one round trip against ``_expected``; ``involution`` also runs
    the dual of the dual, which the first pass does: a later pass's dual has
    already been found equal to the same definition."""
    root = want["root"]
    d = out["dual"]
    gate.check(d.root == root and d.children_map() == want["dual"], f"{name}: dual differs from its definition")
    if involution:
        if name in ORACLE_INVOLUTION:
            back_root, back = d.root, oracle_dual(d.children_map(), d.root)
        else:
            dd = dt.dual(d)
            back_root, back = dd.root, dd.children_map()
        gate.check(back_root == root and back == want["kids"], f"{name}: dual(dual T) != T")
    r = out["reversed_dual"]
    gate.check(r.root == root and r.children_map() == want["reversed_dual"], f"{name}: reversed_dual != reverse(dual)")
    gate.check(out["mirror"] == out["bp"], f"{name}: BP(T) != mirror(DFUDS(dual T))")
    for step in ("bp_decode", "dfuds_decode"):
        back = out[step]
        gate.check(_shape(back.children_map(), back.root) == want["shape"], f"{name}: {step} changed the shape")


def trees_dual(seed, seconds, rec=None, scale=1, cycles=1, count=None):
    """``scale`` shrinks the corpus (for tests); the benchmark runs it at 1.

    Each of ``cycles`` cycles builds the corpus' trees (set-up), writes them
    as text (save; ``SAVES`` times, the later ones between the trees of the
    cycle's first pass), reads them back (load) and runs ``count`` passes of the
    round trip over the corpus, or as many as end within ``seconds``/``cycles``
    (at least one). The rates are nodes over the time summed over all passes."""
    corpus = [("uniform", inputs.uniform_tree(seed, inputs.RANDOM_TREE_N // scale)),
              ("chain", inputs.chain(inputs.CHAIN_N // scale)),
              ("star", inputs.star(inputs.STAR_LEAVES // scale))]
    nodes = sum(len(kids) for _, kids in corpus)
    res = Result("trees-dual", nodes)
    for name, kids in corpus:
        res.props[f"{name}_nodes"] = len(kids)
        res.props[f"{name}_max_degree"] = max(map(len, kids.values()))
        res.props[f"{name}_depth"] = _tree_depth(kids, 1)
        res.props[f"{name}_sha"] = inputs.digest(sorted(kids.items()))
    phase = _Phases(rec)
    gate = res.gate
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trees-dual-{seed}-{os.getpid()}.txt")

    def setup():
        return [dt.OrdinalTree.from_children(1, kids) for _, kids in corpus]

    def save(trees):
        with open(path, "w", encoding="ascii") as fh:
            for t in trees:
                fh.write(codec.tree_to_text(t))

    def load():
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        return [codec.tree_from_text("\n".join(lines[k:k + 2])) for k in range(0, len(lines), 2)]

    passes = []  # per pass, per tree, {step: seconds}
    expected = None  # per tree, from _expected
    per_cycle = None
    for cycle in range(cycles):
        trees = None  # release the previous cycle's trees before the next set-up
        phase("setup")
        trees = res.timed("setup", setup)
        phase("save")
        res.timed("save", save, trees)
        phase("load")
        loaded = res.timed("load", load)
        phase("idle")
        if cycle == 0:
            for (name, kids), t in zip(corpus, trees):
                gate.check(t.n_nodes == len(kids), f"{name}: built tree has {t.n_nodes} nodes")
            for (name, kids), t in zip(corpus, loaded):
                as_text = {str(v): tuple(map(str, c)) for v, c in kids.items()}
                gate.check(t.children_map() == as_text, f"{name}: tree text did not load back unchanged")
            res.blob_bytes = os.path.getsize(path)
            with _untraced(rec):
                expected = [_expected(t) for t in trees]
        loaded = None
        gc.collect()
        stop = perf_counter() + seconds / cycles
        target = count if count is not None else per_cycle  # None on the first cycle: run on time
        done = 0
        saves_left = SAVES - 1  # the rest of the cycle's saves, one after each tree of its first pass
        while True:
            times = [{} for _ in corpus]
            for (name, _), t, spent, want in zip(corpus, trees, times, expected):
                phase("pass")
                out = _round_trip(t, spent)
                phase("idle")
                with _untraced(rec):
                    _check_round_trip(gate, name, out, want, involution=not passes)
                out = None
                if saves_left:
                    saves_left -= 1
                    phase("save")
                    res.timed("save", save, trees)
                    phase("idle")
            passes.append(times)
            res.elapsed_s += sum(sum(t.values()) for t in times)
            done += 1
            if done >= target if target is not None else perf_counter() >= stop:
                break
        per_cycle = done
    os.remove(path)
    res.queries_run = len(passes)
    res.peak_rss = peak_rss_mb()
    step_s = {step: sum(p[k][step] for p in passes for k in range(len(corpus))) for step in passes[0][0]}
    through = nodes * len(passes)  # nodes through each step over the run
    round_trip_s = sum(step_s.values())
    # dual and reversed_dual both build the dual; together they give the
    # duality rate twice the samples that dual alone would
    duality_s = step_s["dual"] + step_s["reversed_dual"]
    if rec is None:
        _end_to_end(res, through / round_trip_s, 2 * through / duality_s)
    else:
        _walk(res, *trees)
    res.note("tree_nodes_per_s", through / round_trip_s, "1/s")
    for step, secs in step_s.items():
        res.note(f"{step}_nodes_per_s", through * (2 if step == "dfuds_encode" else 1) / secs, "1/s")
    res.note("passes", len(passes), "count")
    res.count = per_cycle
    return res


def run_traced(workload, seed, seconds, **sizes):
    """Run ``workload`` once untraced, then traced over the same number of
    queries or passes, one cycle each; (traced result with its ``layers``,
    the recorder)."""
    base = workload(seed, seconds, **sizes)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        res = workload(seed, seconds, rec=rec, count=base.count, **sizes)
    finally:
        rec.uninstall()
    res.layers = layer_metrics(rec, res, base)
    return res, rec


OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

WORKLOADS = {
    "array-random": array_random,
    "intervals-random": intervals_random,
    "trees-dual": trees_dual,
}

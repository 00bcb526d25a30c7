"""Randomized verification suites.

Each suite draws a seeded corpus, checks a batch of structural identities or
oracle agreements, and reports one CheckResult per identity. The CLI prints
these; the acceptance tests call the same functions with the full corpus
sizes. All randomness flows from (seed, topic) pairs so two runs with the
same seed produce identical reports.
"""

from dataclasses import dataclass, field
from itertools import product

from . import codec, duality, mliq, randgen, rmq
from .minheap import build_minheap, reversal_dual_check
from .parens import CLOSE
from .tree import OrdinalTree

SUITES = ("identities", "rmq", "pda", "mliq", "join")

# The least max_size each suite can draw its corpus from: run_suites draws
# sizes from 1 (identities, rmq, mliq), 2 (pda's node pairs) or 3 (join's
# root with two subtrees) up to it.
SMALLEST_SIZE = {"identities": 1, "rmq": 1, "pda": 2, "mliq": 1, "join": 3}

_FAILURE_CAP = 5


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def ok(self):
        return self.failed == 0

    def record(self, good, detail=""):
        if good:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _FAILURE_CAP:
                self.failures.append(detail)

    def line(self):
        status = "pass" if self.ok() else "FAIL"
        return f"[{self.suite}] {self.name:<32} {self.passed}/{self.passed + self.failed} {status}"


class _Suite:
    def __init__(self, name):
        self.name = name
        self._checks = {}

    def check(self, key, good, detail=""):
        res = self._checks.get(key)
        if res is None:
            res = self._checks[key] = CheckResult(self.name, key)
        res.record(good, detail)

    def results(self):
        return list(self._checks.values())


# ---------------------------------------------------------------------------
# identities: duality structure + parenthesis encodings
# ---------------------------------------------------------------------------


def suite_identities(seed, trees=1000, max_size=200):
    s = _Suite("identities")
    rng = randgen.rng_for(seed, "identities")
    for case in range(trees):
        n = rng.randint(1, max_size)
        t = randgen.random_tree(rng, n)
        d = _check_duality(s, t, rng)
        _check_encodings(s, t, d)
    return s.results()


def _check_duality(s, t, rng):
    d = duality.dual(t)
    cert = duality.dual_certified(t)
    s.check("dual_involution", duality.dual(d) == t, f"n={t.n_nodes}")
    # the one-pass dual against both oracle constructions
    s.check(
        "dual_rule_vs_right_neighbour",
        cert.transformed == d == duality._dual_by_right_neighbour(t),
        f"n={t.n_nodes}",
    )

    nonroot = [v for v in t.nodes() if v != t.root]
    s.check("dual_order_reversal", list(d.nodes())[1:] == nonroot[::-1], f"n={t.n_nodes}")

    # Ancestor monotonicity, edge-wise (transitivity covers all ancestor
    # pairs). The root is the fallback for an empty right-set, so it orders
    # as the maximal element here.
    def dp_key(x):
        w = duality.dual_parent(t, x)
        return t.n_nodes + 1 if w == t.root else t.dft(w)

    ok = True
    for v in nonroot:
        p = t.parent(v)
        if p == t.root:
            continue
        if dp_key(v) > dp_key(p):
            ok = False
            break
    s.check("dual_parent_monotone", ok, f"n={t.n_nodes}")

    # Primal subtrees embed into the dual subtree of the dual parent. Dual
    # depth-first numbers of a primal range are contiguous, so checking the
    # two endpoints of the range covers every node between them.
    ok = True
    for v in nonroot:
        w = duality.dual_parent(t, v)
        lo, hi = t.dft(v), t.dft(v) + t.subtree_size(v) - 1
        if not (d.in_subtree(t.node_at(lo), w) and d.in_subtree(t.node_at(hi), w)):
            ok = False
            break
    s.check("dual_subtree_cover", ok, f"n={t.n_nodes}")

    # Left siblings' subtrees live inside the right sibling's dual subtree.
    pairs = []
    for u in t.nodes():
        kids = t.children(u)
        for k in range(1, len(kids)):
            pairs.append((kids[k - 1], kids[k]))
    rng.shuffle(pairs)
    ok = True
    for v1, u1 in pairs[:200]:
        for r in (t.dft(v1), t.dft(v1) + t.subtree_size(v1) - 1):
            if not d.in_subtree(t.node_at(r), u1):
                ok = False
    s.check("left_sibling_subtree", ok, f"n={t.n_nodes}")

    # depth(v, w) equals the depth of v's dual parent for w inside its subtree.
    depth_by_rank = [t.depth(v) for v in t.nodes()]
    ok = True
    for _ in range(min(60, t.n_nodes)):
        v = t.node_at(rng.randint(2, t.n_nodes)) if t.n_nodes > 1 else None
        if v is None:
            break
        p = duality.dual_parent(t, v)
        if p == t.root:
            continue
        plo = t.dft(p)
        w_rank = rng.randint(plo, plo + t.subtree_size(p) - 1)
        lo = t.dft(v)
        got = min(depth_by_rank[lo - 1 : w_rank])
        if got != t.depth(p):
            ok = False
    s.check("range_depth_equals_dual_parent", ok, f"n={t.n_nodes}")

    # Reversal behaviour: parents kept, sibling relations flip, involution.
    rev = duality.reverse(t)
    ok = rev.root == t.root and rev.parent_map() == t.parent_map()
    if ok:
        for v in nonroot:
            ils = t.navigate(v, "ils")
            if ils is not None and rev.navigate(v, "irs") != ils:
                ok = False
                break
    s.check("reverse_keeps_parents_flips_order", ok and duality.reverse(rev) == t, f"n={t.n_nodes}")

    # Certificate: every non-root node from exactly one rule.
    s.check(
        "dual_rule_partition",
        set(cert.rules) == set(nonroot) and all(r in ("1b", "2", "3") for r in cert.rules.values()),
        f"n={t.n_nodes}",
    )
    return d


def _check_encodings(s, t, d):
    bp, bp_map = codec.bp_encode(t)
    df, df_map = codec.dfuds_encode(t)
    dfd, _ = codec.dfuds_encode(d)
    s.check("bp_equals_mirrored_dual_dfuds", codec.mirror(dfd) == bp, f"n={t.n_nodes}")
    bpr, _ = codec.bp_encode(duality.reverse(t))
    s.check("bp_of_reverse_is_mirror", bpr == codec.mirror(bp), f"n={t.n_nodes}")
    rd = duality.reversed_dual(t)
    hat, _ = codec.bp_encode(rd)
    s.check("dfuds_equals_bp_of_reversed_dual", hat == df and rd == duality.reverse(d), f"n={t.n_nodes}")

    # the subtree sizes in preorder fix an ordered tree's shape
    s.check("bp_roundtrip", codec.bp_decode(bp)._size == t._size, f"n={t.n_nodes}")
    s.check("dfuds_roundtrip", codec.dfuds_decode(df)._size == t._size, f"n={t.n_nodes}")

    # Excess relations at designated closes: a rightmost child keeps its
    # parent's value, an immediate right sibling sits one below its left one.
    ok_rmc = True
    ok_irs = True
    ok_anchor = True
    for v in t.nodes():
        if t.dft(v) > 1 and df.select(t.dft(v) - 1, CLOSE) != df_map.close_pos[v]:
            ok_anchor = False
        kids = t.children(v)
        if kids and v != t.root:
            if df.excess(df_map.close_pos[kids[-1]]) != df.excess(df_map.close_pos[v]):
                ok_rmc = False
        for k in range(1, len(kids)):
            a, b = kids[k - 1], kids[k]
            if t.dft(a) > 1 and df.excess(df_map.close_pos[b]) != df.excess(df_map.close_pos[a]) - 1:
                ok_irs = False
    s.check("dfuds_close_is_select", ok_anchor, f"n={t.n_nodes}")
    s.check("dfuds_rightmost_child_excess", ok_rmc, f"n={t.n_nodes}")
    s.check("dfuds_right_sibling_excess", ok_irs, f"n={t.n_nodes}")


# ---------------------------------------------------------------------------
# rmq: engine agreement, the equivalence of the two minimum tests, budgets
# ---------------------------------------------------------------------------


def suite_rmq(seed, arrays=300, max_size=2000, queries=10_000, budget_queries=1000):
    s = _Suite("rmq")
    rng = randgen.rng_for(seed, "rmq")
    per_array = max(1, -(-queries // max(1, arrays)))
    for _ in range(arrays):
        n = rng.randint(1, max_size)
        values = randgen.random_array(rng, n)
        h = build_minheap(values)
        for _ in range(per_array):
            i = rng.randint(1, n)
            j = rng.randint(i, n)
            want = rmq.rmq_scan(h, i, j)
            got_checked = rmq.rmq_checked(h, i, j)
            got_direct = rmq.rmq_direct(h, i, j)
            got_anc = rmq.rmq_ancestor(h, i, j)
            s.check(
                "engines_agree",
                want == got_checked == got_direct == got_anc,
                f"n={n} q=({i},{j}) scan={want} checked={got_checked} direct={got_direct} ancestor={got_anc}",
            )
            if i < j:
                s.check("minimum_tests_equivalent", _equivalence_holds(h, i, j), f"n={n} q=({i},{j})")
    _check_budgets_rmq(s, rng, budget_queries)
    return s.results()


def _equivalence_holds(h, i, j):
    """The direct prefix-minimum test and the open/rank test agree."""
    p = h.dfuds
    lo1 = p.select(i + 1, CLOSE)
    hi = p.select(j, CLOSE)
    anchor = p.excess(p.select(i, CLOSE))
    cond_i = min(map(p.excess, range(lo1, hi + 1))) >= anchor
    w1 = p.rmq_excess(lo1, hi)
    cond_ii = p.rank(p.open(w1), CLOSE) == i
    return cond_i == cond_ii


def _check_budgets_rmq(s, rng, budget_queries):
    values = randgen.random_array(rng, 500)
    h = build_minheap(values)
    for _ in range(budget_queries):
        i = rng.randint(1, h.n)
        j = rng.randint(i, h.n)
        c = rmq.OpCounters()
        rmq.rmq_direct(h, i, j, c)
        s.check(
            "direct_budget_2sel_1rmq_1rank",
            (c.select, c.rmq, c.rank, c.open, c.close, c.bpselect) == (2, 1, 1, 0, 0, 0),
            f"q=({i},{j}) ops={c.as_dict()}",
        )
        c2 = rmq.OpCounters()
        rmq.rmq_checked(h, i, j, c2)
        s.check(
            "checked_budget_within_bounds",
            c2.select <= 2 and c2.rmq <= 1 and c2.open <= 1 and c2.rank <= 2 and c2.bpselect == 0,
            f"q=({i},{j}) ops={c2.as_dict()}",
        )


# ---------------------------------------------------------------------------
# pda: fast formula vs definitional walk vs rightmost minimum depth
# ---------------------------------------------------------------------------


def suite_pda(seed, trees=500, pairs=100, max_size=200):
    s = _Suite("pda")
    rng = randgen.rng_for(seed, "pda")
    for _ in range(trees):
        n = rng.randint(2, max_size)
        t = randgen.random_tree(rng, n)
        df, _ = codec.dfuds_encode(t)
        for _ in range(pairs):
            pair = randgen.random_node_pair(rng, t)
            if pair is None:
                break
            v1, v2 = pair
            fast = rmq.pda_fast(t, df, v1, v2)
            definitional = duality.primal_dual_ancestor(t, v1, v2)
            _, brute = t.range_min_depth(v1, v2)
            s.check(
                "pda_three_ways_agree",
                fast == definitional == brute,
                f"n={n} pair=({v1},{v2}) fast={fast} def={definitional} brute={brute}",
            )
    return s.results()


# ---------------------------------------------------------------------------
# mliq: solver agreement incl. None cases, budgets, boundary monotonicity
# ---------------------------------------------------------------------------


def suite_mliq(seed, families=200, max_size=500, queries=10_000, budget_queries=1000):
    s = _Suite("mliq")
    rng = randgen.rng_for(seed, "mliq")
    per_family = max(1, queries // max(1, families))
    for _ in range(families):
        n = rng.randint(1, max_size)
        fam = mliq.build_intervals(randgen.random_intervals(rng, n))
        hi = fam.domain_max
        for _ in range(per_family):
            a = rng.randint(0, hi)
            b = rng.randint(a, hi)
            for strict in (False, True):
                want = mliq.mliq_bruteforce(fam, a, b, strict=strict)
                got_n = mliq.mliq_naive(fam, a, b, strict=strict)
                got_w = mliq.mliq_weighted(fam, a, b, strict=strict)
                s.check(
                    "solvers_agree_strict" if strict else "solvers_agree_closed",
                    want == got_n == got_w,
                    f"n={n} q=({a},{b}) brute={want} naive={got_n} weighted={got_w}",
                )
        # a-side boundary position never moves left as the budget grows
        probe = sorted(rng.randint(0, hi) for _ in range(8))
        bp_open, _ = fam.weighted_bps()
        marks = [bp_open.bpselect(x) for x in probe]
        s.check("weighted_boundary_monotone", marks == sorted(marks), f"n={n}")
    _check_budgets_mliq(s, rng, budget_queries)
    return s.results()


def _check_budgets_mliq(s, rng, budget_queries):
    fam = mliq.build_intervals(randgen.random_intervals(rng, 400))
    hi = fam.domain_max
    done = 0
    while done < budget_queries:
        a = rng.randint(1, hi)
        b = rng.randint(a, hi)
        if mliq.mliq_bruteforce(fam, a, b) is None:
            continue
        done += 1
        c = rmq.OpCounters()
        mliq.mliq_naive(fam, a, b, counters=c)
        s.check(
            "naive_budget_3rank_2sel_1rmq",
            (c.rank, c.select, c.rmq, c.open, c.bpselect) == (3, 2, 1, 0, 0),
            f"q=({a},{b}) ops={c.as_dict()}",
        )
        c2 = rmq.OpCounters()
        mliq.mliq_weighted(fam, a, b, counters=c2)
        s.check(
            "weighted_budget_2bpselect_1pda",
            (c2.bpselect, c2.select, c2.rmq, c2.rank, c2.open) == (2, 2, 1, 1, 0),
            f"q=({a},{b}) ops={c2.as_dict()}",
        )
    # None answers cost only the boundary location step.
    c_none = rmq.OpCounters()
    assert mliq.mliq_naive(fam, 0, hi, counters=c_none) is None
    s.check("naive_none_costs_two_ranks", (c_none.rank, c_none.select, c_none.rmq) == (2, 0, 0), str(c_none.as_dict()))
    c_none2 = rmq.OpCounters()
    assert mliq.mliq_weighted(fam, 0, hi, counters=c_none2) is None
    s.check("weighted_none_costs_two_bpselects", (c_none2.bpselect, c_none2.select, c_none2.rank) == (2, 0, 0), str(c_none2.as_dict()))


# ---------------------------------------------------------------------------
# join algebra: dual decomposition and quasi-subtree edge inclusion
# ---------------------------------------------------------------------------


def suite_join(seed, cases=300, max_size=120):
    s = _Suite("join")
    rng = randgen.rng_for(seed, "join")
    for _ in range(cases):
        t = _random_multi_subtree_root(rng, max_size)
        parts = [
            duality.dual(duality.root_prepend(t.root, t.subtree(c)))
            for c in t.children(t.root)
        ]
        s.check(
            "dual_decomposes_over_join",
            duality.join_all(parts) == duality.dual(t),
            f"n={t.n_nodes} subtrees={len(t.children(t.root))}",
        )
        # A fresh root's dual exposes its single child as a rightmost leaf.
        sub = t.subtree(rng.choice(t.children(t.root)))
        d = duality.dual(duality.root_prepend(t.root, sub))
        rmc = d.navigate(d.root, "rmc")
        s.check("prepended_root_dual_rmc_leaf", rmc is not None and not d.children(rmc), f"n={sub.n_nodes}")

    for _ in range(cases):
        n = rng.randint(2, max_size)
        t = randgen.random_tree(rng, n)
        if rng.random() < 0.5:
            v = t.node_at(rng.randint(1, t.n_nodes))
            a = t.subtree(v)
        else:
            keep = rng.randint(1, max(1, len(t.children(t.root))))
            a = _root_prefix(t, keep)
        s.check("subtree_is_quasi_subtree", duality.is_quasi_subtree(a, t), f"n={n} sub={a.n_nodes}")
        bad = duality.dual_edge_violations(a, t)
        s.check("quasi_subtree_dual_edges_included", not bad, f"n={n} sub={a.n_nodes} missing={bad[:3]}")
    return s.results()


def _random_multi_subtree_root(rng, max_size):
    while True:
        t = randgen.random_tree(rng, rng.randint(3, max_size))
        if len(t.children(t.root)) >= 2:
            return t


def _root_prefix(t, keep):
    """Root plus the subtrees of its first `keep` children (a quasi-subtree):
    the first 1 + (their sizes) ranks of the preorder, the root's size cut
    to that count."""
    size = t._size
    m = 1
    for _ in range(keep):
        m += size[m]
    return OrdinalTree(t._order[:m], t._parent[:m], t._depth[:m], [m, *size[1:m]])


# ---------------------------------------------------------------------------
# minheap extras folded into the identities suite runner
# ---------------------------------------------------------------------------


def suite_minheap(seed, arrays=200, max_size=300):
    s = _Suite("identities")
    rng = randgen.rng_for(seed, "minheap")
    for _ in range(arrays):
        n = rng.randint(1, max_size)
        values = randgen.random_array(rng, n)
        h = build_minheap(values)
        s.check("minheap_depth_first_is_array_order", [v for v in h.tree.nodes()][1:] == list(range(1, n + 1)), f"n={n}")
        ok = all(
            h.value(h.tree.parent(v)) <= h.value(v)
            for v in h.tree.nodes()
            if v != h.tree.root and h.tree.parent(v) != h.tree.root
        )
        s.check("minheap_parent_not_larger", ok, f"n={n}")
        distinct = randgen.random_distinct_array(rng, n)
        s.check("minheap_dual_is_reversed_array", reversal_dual_check(distinct), f"n={n}")
    return s.results()


# ---------------------------------------------------------------------------
# differential claims: printed, never asserted
# ---------------------------------------------------------------------------


def _enumerate_trees(max_nodes):
    """All ordered tree shapes with up to max_nodes nodes (labels 1..n by
    depth-first rank)."""

    def gen(n):
        if n == 1:
            yield {1: ()}
            return
        for split in _compositions(n - 1):
            for combo in product(*map(gen, split)):
                children = {1: ()}
                offset = 1
                roots = []
                for sub in combo:
                    relabeled = {k + offset: tuple(c + offset for c in v) for k, v in sub.items()}
                    children.update(relabeled)
                    roots.append(1 + offset)
                    offset += len(sub)
                children[1] = tuple(roots)
                yield children
        return

    for n in range(1, max_nodes + 1):
        for children in gen(n):
            yield OrdinalTree.from_children(1, children)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for tail in _compositions(n - head):
            yield (head,) + tail


def claim_reversal_commute(max_nodes=4):
    """Search for trees where reverse(dual(t)) != dual(reverse(t)).

    Returns (counterexamples, checked); the claim that the two compositions
    coincide fails already on 3 nodes, so this reports rather than asserts.
    """
    found = []
    checked = 0
    for t in _enumerate_trees(max_nodes):
        checked += 1
        lhs = duality.reversed_dual(t)
        rhs = duality.dual_of_reversed(t)
        if lhs != rhs:
            found.append((t, lhs, rhs))
    return found, checked


def claim_dfuds_mirror(max_nodes=4):
    """Search for trees where DFUDS(reverse(t)) != mirror(DFUDS(t)).

    The BP analogue always holds; the DFUDS analogue does not, which this
    check demonstrates with small counterexamples.
    """
    found = []
    checked = 0
    for t in _enumerate_trees(max_nodes):
        checked += 1
        lhs, _ = codec.dfuds_encode(duality.reverse(t))
        rhs = codec.mirror(codec.dfuds_encode(t)[0])
        bp_ok = codec.bp_encode(duality.reverse(t))[0] == codec.mirror(codec.bp_encode(t)[0])
        if not bp_ok:
            raise AssertionError("the BP mirror identity must hold")
        if lhs != rhs:
            found.append((t, lhs.to_string(), rhs.to_string()))
    return found, checked


CLAIMS = {
    "reversal-commute": claim_reversal_commute,
    "dfuds-mirror": claim_dfuds_mirror,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_suites(suites, seed, trees=300, queries=2000, max_size=120):
    """Run the named suites with CLI-scale corpus sizes; returns CheckResults."""
    results = []
    for name in suites:
        if name == "identities":
            results += suite_identities(seed, trees=trees, max_size=min(max_size, 200))
            results += suite_minheap(seed, arrays=max(20, trees // 5), max_size=min(max_size, 300))
        elif name == "rmq":
            results += suite_rmq(seed, arrays=max(10, trees // 4), max_size=max_size * 4, queries=queries)
        elif name == "pda":
            results += suite_pda(seed, trees=max(20, trees // 2), pairs=40, max_size=min(max_size, 200))
        elif name == "mliq":
            results += suite_mliq(seed, families=max(10, trees // 4), max_size=max_size * 2, queries=queries)
        elif name == "join":
            results += suite_join(seed, cases=trees, max_size=min(max_size, 120))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results

"""Command-line surface: build indexes, inspect and query them, verify identities, bench.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 query error.
Given one configuration and seed, `build`, `query` and `verify` print
byte-identical output across runs; `bench` rows are deterministic except for
the wall-clock queries/second column.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, dataclass

from . import index_io, mliq, randgen, rmq, verify
from .errors import ContractError, NotFoundError, ParseError, RangeError, ValidationError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_QUERY_ERROR = 3


def _default_seed():
    env = os.environ.get("DUALTREE_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise ValidationError(f"DUALTREE_SEED must be an integer, got {env!r}") from None


def build_parser():
    top = argparse.ArgumentParser(prog="dualtree", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index blob from an input file")
    b.add_argument("kind", choices=("array", "intervals"))
    b.add_argument("input")
    b.add_argument("-o", "--out", required=True, help="index blob path")
    b.add_argument("--format", choices=("text", "binary"), default="text", help="array file format")
    b.add_argument("--output", choices=("human", "tsv", "jsonl"), default="human")

    i = sub.add_parser("inspect", help="print an index blob's version, kind and sections, building nothing")
    i.add_argument("index")

    q = sub.add_parser("query", help="run one query against a built index")
    q.add_argument("index")
    q.add_argument("kind", choices=tuple(QUERY_KINDS))
    q.add_argument("left", type=int, help="i (rmq) or a (mliq)")
    q.add_argument("right", type=int, help="j (rmq) or b (mliq)")
    q.add_argument("--engine", default=None,
                   help="; ".join(f"{kind}: {'|'.join(qk.engines)}" for kind, qk in QUERY_KINDS.items()))
    q.add_argument("--strict", action="store_true", help="mliq: strict containment (a_i < a and b_i > b)")
    q.add_argument("--stats", action="store_true", help="print primitive-operation counts")
    q.add_argument("--output", choices=("human", "tsv", "jsonl"), default="human")

    v = sub.add_parser("verify", help="run randomized identity suites")
    v.add_argument("suite", nargs="?", default="all", choices=verify.SUITES + ("all",))
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trees", type=int, default=300)
    v.add_argument("--queries", type=int, default=2000)
    v.add_argument("--max-size", type=int, default=100)
    v.add_argument("--claim", choices=tuple(verify.CLAIMS), default=None,
                   help="run a differential claim check; prints counterexamples, never fails")
    v.add_argument("--output", choices=("human", "tsv", "jsonl"), default="human")

    be = sub.add_parser("bench", help="benchmark engines over a built index")
    be.add_argument("index")
    be.add_argument("kind", choices=tuple(QUERY_KINDS))
    be.add_argument("--engine", default="all", help="comma list of engines, or 'all'")
    be.add_argument("--queries", type=int, default=10_000)
    be.add_argument("--seed", type=int, default=None)
    be.add_argument("--strict", action="store_true")
    return top


# -- build -------------------------------------------------------------------------


def cmd_build(args):
    if args.kind == "array":
        reader = index_io.read_array_text if args.format == "text" else index_io.read_array_binary
        values = reader(args.input)
        from .minheap import build_minheap

        h = build_minheap(values)
        stats = index_io.save_array_index(args.out, h)
        stats = {"kind": "array", "n": h.n, **stats}
    else:
        s = index_io.read_intervals_text(args.input)
        stats = index_io.save_interval_index(args.out, s)
        stats = {"kind": "intervals", "n": s.n, **stats}
    stats["blob_bytes"] = os.path.getsize(args.out)
    if args.output == "jsonl":
        print(json.dumps(stats))
    elif args.output == "tsv":
        print("\t".join(stats))
        print("\t".join(str(v) for v in stats.values()))
    else:
        for k, v in stats.items():
            print(f"{k}: {v}")
    return EXIT_OK


# -- inspect -----------------------------------------------------------------------


def cmd_inspect(args):
    version, kind, sections = index_io._read_blob(args.index)
    print(f"version: {version}")
    print(f"kind: {index_io.KIND_NAMES[kind]}")
    for tag, payload in sections.items():
        print(f"{tag}: {len(payload)} bytes")
    return EXIT_OK


# -- query -------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryKind:
    """What the CLI knows of one query kind: its engines, each called as
    ``engine(index, left, right, strict, counters)``, the engine a query runs
    unless told, the engines ``bench`` runs for 'all', the blob kind its
    index comes from, and ``bounds(index)``, the least and the greatest
    bound of a query."""

    engines: dict
    default: str
    bench_all: tuple
    blob: str
    bounds: object


def _rmq_engine(name):
    """The rmq engine ``name`` as the CLI calls an engine; strict has no
    meaning for a range minimum."""
    return lambda h, i, j, strict, counters: rmq.range_min_index(h, i, j, engine=name, counters=counters)


QUERY_KINDS = {
    "rmq": QueryKind({name: _rmq_engine(name) for name in rmq.ENGINES}, "direct", rmq.ENGINES,
                     "array", lambda h: (1, h.n)),
    "mliq": QueryKind({"naive": mliq.mliq_naive, "weighted": mliq.mliq_weighted, "brute": mliq.mliq_bruteforce},
                      "naive", ("naive", "weighted"), "interval", lambda s: (0, s.domain_max)),
}


def _load_for(args, needs):
    """The table entry of the query kind ``args.kind`` and the index of the
    blob ``args.index``, which must be of the entry's blob kind;
    ValidationError ``<kind> <needs> an <blob> index blob`` otherwise. The
    kind is read from the header first, so a blob of the wrong kind is never
    loaded."""
    qk = QUERY_KINDS[args.kind]
    blob = "array" if index_io.read_kind(args.index) == index_io.KIND_ARRAY else "interval"
    if blob != qk.blob:
        raise ValidationError(f"{args.kind} {needs} an {qk.blob} index blob")
    load = index_io.load_array_index if blob == "array" else index_io.load_interval_index
    return qk, load(args.index)


def _engines(kind, names):
    """The engines of query ``kind`` called ``names``, in order;
    ContractError names an unknown one and lists the kind's engines."""
    engines = QUERY_KINDS[kind].engines
    for name in names:
        if name not in engines:
            raise ContractError(f"unknown {kind} engine {name!r}; expected one of {tuple(engines)}")
    return [engines[name] for name in names]


def cmd_query(args):
    qk, index = _load_for(args, "queries need")
    [engine] = _engines(args.kind, [args.engine or qk.default])
    counters = rmq.OpCounters()
    answer = engine(index, args.left, args.right, args.strict, counters)
    text_answer = "None" if answer is None else str(answer)
    if args.output == "jsonl":
        record = {"answer": answer}
        if args.stats:
            record["ops"] = counters.as_dict()
        print(json.dumps(record))
    elif args.output == "tsv":
        row = [text_answer]
        header = ["answer"]
        if args.stats:
            header += list(counters.as_dict())
            row += [str(v) for v in counters.as_dict().values()]
        print("\t".join(header))
        print("\t".join(row))
    else:
        print(text_answer)
        if args.stats:
            print("ops: " + " ".join(f"{k}={v}" for k, v in counters.as_dict().items()))
    return EXIT_OK


# -- verify -------------------------------------------------------------------------


def _check_non_negative(**counts):
    for flag, value in counts.items():
        if value < 0:
            raise ValidationError(f"--{flag} must be non-negative, got {value}")


def cmd_verify(args):
    _check_non_negative(trees=args.trees, queries=args.queries)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.claim:
        found, checked = verify.CLAIMS[args.claim](4)
        print(f"claim {args.claim}: {len(found)} counterexamples among {checked} trees")
        for t, lhs, rhs in found[:3]:
            print(f"  tree:  {_tree_text(t)}")
            lhs_text = _tree_text(lhs) if hasattr(lhs, "children_map") else lhs
            rhs_text = _tree_text(rhs) if hasattr(rhs, "children_map") else rhs
            print(f"    one way:   {lhs_text}")
            print(f"    other way: {rhs_text}")
        return EXIT_OK
    suites = verify.SUITES if args.suite == "all" else (args.suite,)
    needy = max(suites, key=verify.SMALLEST_SIZE.__getitem__)
    least = verify.SMALLEST_SIZE[needy]
    if args.max_size < least:
        raise ValidationError(f"--max-size must be at least {least} for the {needy} suite, got {args.max_size}")
    results = verify.run_suites(suites, seed, trees=args.trees, queries=args.queries, max_size=args.max_size)
    failed = 0
    for r in results:
        if args.output == "jsonl":
            print(json.dumps({"suite": r.suite, "check": r.name, "passed": r.passed,
                              "failed": r.failed, "failures": r.failures}))
        elif args.output == "tsv":
            print(f"{r.suite}\t{r.name}\t{r.passed}\t{r.failed}")
        else:
            print(r.line())
            for detail in r.failures:
                print(f"    failure: {detail}")
        failed += r.failed
    summary = f"RESULT: {'pass' if not failed else 'FAIL'} ({len(results)} checks, {failed} failures, seed {seed})"
    if args.output == "human":
        print(summary)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _tree_text(t):
    parts = []
    for v in t.nodes():
        kids = t.children(v)
        if kids:
            parts.append(f"{v}->[{','.join(str(c) for c in kids)}]")
    return " ".join(parts) if parts else f"single node {t.root}"


# -- bench --------------------------------------------------------------------------


def cmd_bench(args):
    _check_non_negative(queries=args.queries)
    seed = args.seed if args.seed is not None else _default_seed()
    qk, index = _load_for(args, "bench needs")
    names = qk.bench_all if args.engine == "all" else tuple(args.engine.split(","))
    engines = _engines(args.kind, names)
    queries = _workload(args.kind, *qk.bounds(index), seed, args.queries)

    cols = ["engine", "queries", "qps", "answers_sha256", *(f"mean_{op}" for op in rmq.OpCounters().as_dict())]
    print("\t".join(cols))
    if not queries:
        return EXIT_OK
    for name, engine in zip(names, engines):
        totals = rmq.OpCounters()
        digest = hashlib.sha256()
        t0 = time.perf_counter()
        for left, right in queries:
            ans = engine(index, left, right, args.strict, totals)
            digest.update(str(ans).encode())
        elapsed = time.perf_counter() - t0
        k = len(queries) or 1
        qps = f"{len(queries) / elapsed:.0f}" if elapsed > 0 and queries else "0"
        row = [name, str(len(queries)), qps, digest.hexdigest()[:12]]
        row += [f"{ops / k:.3f}" for ops in astuple(totals)]
        print("\t".join(row))
    return EXIT_OK


def _workload(kind, lo, hi, seed, count):
    """``count`` random queries (left, right), lo <= left <= right <= hi."""
    rng = randgen.rng_for(seed, f"bench-{kind}")
    out = []
    for _ in range(count):
        left = rng.randint(lo, hi)
        out.append((left, rng.randint(left, hi)))
    return out


# -- entry point ----------------------------------------------------------------------


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"build": cmd_build, "inspect": cmd_inspect, "query": cmd_query, "verify": cmd_verify,
                "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (ValidationError, ParseError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ContractError, RangeError, NotFoundError) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR


if __name__ == "__main__":
    sys.exit(main())

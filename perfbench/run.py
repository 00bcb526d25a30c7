"""Run one dualtree benchmark workload and print its metrics.

    python3 perfbench/run.py --workload array-random --seed 1 --seconds 6 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The report lists every figure by name with its unit, and the last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the workload first runs untraced once more, then traced,
and the metrics are the per-layer ones. A full record of the run, and the
spans of a traced one, are written under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Cycles of set-up, save and load per untraced run, with passes of the timed
# loop between them. Two set-ups make the median of set-up times their mean,
# which a host that swings between a fast and a slow state moves least.
CYCLES = 2

EXIT_NO_LIBRARY = 2
EXIT_BAD_METRICS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("array-random", "intervals-random", "trees-dual"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args):
    import workloads

    fn = workloads.WORKLOADS[args.workload]
    if args.trace:
        return workloads.run_traced(fn, args.seed, args.seconds)
    return fn(args.seed, args.seconds, cycles=CYCLES), None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import dualtree
    except ImportError as exc:
        print(f"run.py: cannot import dualtree from {src}: {exc}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    if not os.path.abspath(dualtree.__file__).startswith(src + os.sep):
        print(f"run.py: dualtree came from {dualtree.__file__}, not from {src}", file=sys.stderr)
        return EXIT_NO_LIBRARY

    res, rec = run(args)
    metrics = res.layers if args.trace else res.metrics
    missing = expected_metrics(args.trace) ^ set(metrics)
    if missing:
        print(f"run.py: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return EXIT_BAD_METRICS

    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "dualtree": dualtree.__version__}
    gate = res.gate
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "inputs": res.props, "metrics": metrics, "report": res.report,
              "end_to_end": res.metrics, "samples": res.samples, "failures": gate.notes,
              "attempted": gate.attempted, "failed": gate.failed}
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if rec is not None:
        rec.dump(os.path.join(out_dir, tag + "-spans"))

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    print("# inputs  " + "  ".join(f"{k}={v}" for k, v in res.props.items()))
    # a traced run's own rates are slowed by the tracing, so only untraced ones are shown
    if args.trace:
        shown = {**metrics, "index_bytes_per_elem": res.report["index_bytes_per_elem"]}
    else:
        shown = {**metrics, **res.report}
    for name, (value, unit) in shown.items():
        print(f"{name:28s} {value:>16.6g}  {unit}")
    print(f"{'failed_ratio':28s} {gate.ratio():>16.6g}  ratio ({gate.failed} of {gate.attempted} answers)")
    for note in gate.notes:
        print(f"# failure: {note}")
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m perf``: run, trace, reference and stability.

``run`` prints every metric by name with its unit, then, as the last
line of stdout, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of the traced layer run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from perf import WORKLOADS

#: seconds one run measures by default (BENCHMARK.json's run_seconds)
RUN_SECONDS = 15


def _emit(records: list[dict], json_path: str | None) -> None:
    from perf.bench import driver_line, render
    if json_path:
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(records if len(records) > 1 else records[0], f,
                      indent=1, sort_keys=True)
    for rec in records:
        for failure in rec["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(render(rec))
        print(driver_line(rec), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m perf",
        description="End-to-end and per-layer benchmark (perf/README.md).")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads end to end")
    run.add_argument("--workload", choices=WORKLOADS,
                     help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="measuring time, which sets the repeat count")
    run.add_argument("--repeats", type=int,
                     help="repeats per workload (overrides --seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced layer run instead")
    run.add_argument("--json", metavar="PATH",
                     help="also write the full record(s) here")

    tr = sub.add_parser("trace", help="the traced layer run; writes "
                        "perf/results/trace-*.json")
    tr.add_argument("--seed", type=int, default=1)
    tr.add_argument("--json", metavar="PATH")

    ref = sub.add_parser("reference", help="regenerate (or --check) "
                         "perf/reference.json from the tree engine")
    ref.add_argument("--check", action="store_true")

    st = sub.add_parser("stability", help="two sets of runs, compared "
                        "against BENCHMARK.json's bounds")
    st.add_argument("--runs", type=int, default=5,
                    help="runs (seeds) per workload per set")
    st.add_argument("--seconds", type=float, default=RUN_SECONDS)
    st.add_argument("--workload", action="append", choices=WORKLOADS)
    st.add_argument("--seed", type=int, default=1)
    st.add_argument("--baseline", metavar="PATH",
                    help="a saved stability record to use as set 1")

    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so running children are
    # killed and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from perf import bench
    try:
        if args.command == "reference":
            from perf import reference
            return reference.main(args.check)
        if args.command == "stability":
            from perf import stability
            return stability.main(args.workload or WORKLOADS, args.runs,
                                  args.seconds, args.seed, args.baseline)
        if args.command == "trace" or args.trace:
            rec = bench.trace(args.seed)
            print(f"trace written to {bench.write_result(rec, 'trace')}",
                  file=sys.stderr)
            _emit([rec], args.json)
            return 0
        if args.repeats is not None and args.repeats < 1:
            ap.error("--repeats must be at least 1")
        records = []
        for w in ([args.workload] if args.workload else WORKLOADS):
            n = args.repeats or bench.repeats_for(w, args.seconds)
            records.append(bench.run_workload(w, args.seed, n))
        _emit(records, args.json)
        return 0
    except (bench.ChildFailed, LookupError, OSError, ValueError) as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

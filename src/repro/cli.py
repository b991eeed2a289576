"""Command-line interface: a ccured-like driver.

Usage (also available as ``python -m repro``)::

    python -m repro cure prog.c            # report + instrumented C
    python -m repro cure prog.c --report   # analysis report only
    python -m repro run prog.c [args...]   # cure then execute
    python -m repro run --raw prog.c       # uncured (hardware) run
    python -m repro bench NAME             # measure one workload
    python -m repro bench [--quick]        # pinned steps/sec suite,
                                           # appended to the
                                           # BENCH_history.jsonl ledger
    python -m repro bench diff --baseline baselines/bench-baseline.json
                                           # perf regression gate
                                           # (counts exact, speedup
                                           # ratio with slack)
    python -m repro workloads              # list the benchmark suite
    python -m repro analyze prog.c         # per-function CFG/dataflow
                                           # and check-elimination stats
    python -m repro lint prog.c            # static must-fail
                                           # diagnostics (text/json/
                                           # sarif, blame-chain paths)
    python -m repro faults lint            # validate lint against the
                                           # fault campaign's variants
    python -m repro faults list            # list mutation classes
    python -m repro faults run --seed 1 --campaign smoke
                                           # fault-injection campaign
    python -m repro metrics --all-workloads --json
                                           # deterministic pipeline
                                           # metrics (checks, kinds,
                                           # per-site histograms)
    python -m repro metrics --workload NAME --timing
                                           # + wall seconds per phase
    python -m repro metrics --all-workloads --jobs 2 --trace out.json
                                           # one merged Chrome trace:
                                           # every worker's spans on
                                           # real pid/tid lanes
    python -m repro metrics diff --baseline old.json --fail-on-regress
                                           # CI regression gate
    python -m repro explain NAME|FILE      # blame chains + root-cause
                                           # ranking per pointer kind
    python -m repro explain diff --baseline a.json --current b.json
                                           # did the annotation
                                           # shrink WILD?
    python -m repro cache stats|clear      # the content-addressed
                                           # cure cache

Sweep-shaped commands (``metrics``, ``lint``, ``analyze``,
``faults run``, ``faults lint``) accept ``--jobs N|auto`` to shard
their workload loop across processes; ``--jobs 1`` (the default) runs
the same shards inline, so the output is byte-identical at every
``--jobs`` value, and all of them share the on-disk cure cache
(``REPRO_CACHE_DIR``; ``REPRO_CACHE=off`` disables it).  A selection
naming an unknown workload, campaign, mutation class or tool exits 2
with one message before any work starts.

The exit status of ``run`` is the program's exit status; memory-safety
failures exit with status 99 after printing the check that fired,
mirroring how a cured binary aborts with a check message.  Every
command prints one line on stderr and exits 3 when the front end
rejects a C file (``file:line:col: message``: a syntax error, a
preprocessing error or an unsupported construct), and exits 4 when a
run exceeds an interpreter limit (the step budget, the call depth,
the heap or the stdout size).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core import CureOptions, cure
from repro.core.options import OPTIMIZE_LEVELS
from pycparser.c_parser import ParseError

from repro.cpp import PreprocessError
from repro.frontend import UnsupportedCError, parse_program
from repro.interp import ENGINES, run_cured, run_raw
from repro.runtime.checks import (InterpreterLimitError,
                                  MemorySafetyError, ProgramAbort,
                                  SegmentationFault)
from repro.workloads import UnknownSelection

SAFETY_EXIT = 99
#: the front end rejected the C input
REJECT_EXIT = 3
#: a run exceeded an interpreter limit
LIMIT_EXIT = 4


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _optimize_level(args: argparse.Namespace) -> Optional[str]:
    # --no-optimize is the historical spelling of --optimize=none and
    # wins when both are given.
    if getattr(args, "no_optimize", False):
        return "none"
    return getattr(args, "optimize", None)


def _options(args: argparse.Namespace,
             provenance: bool = False) -> CureOptions:
    return CureOptions(
        use_physical=not args.no_physical,
        use_rtti=not args.no_rtti,
        trust_bad_casts=args.trust_bad_casts,
        all_split=args.all_split,
        optimize=_optimize_level(args),
        provenance=provenance,
        temporal=getattr(args, "temporal", False),
    )


def _add_engine_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=ENGINES, default="closures",
                   help="execution engine: the closure compiler "
                        "(default) or the tree-walking oracle")


def _jobs_value(text: str):
    """``--jobs`` values: a positive integer, or ``auto`` for one
    worker per core (:func:`repro.sweep.resolve_jobs` resolves it)."""
    s = text.strip().lower()
    if s == "auto":
        return "auto"
    try:
        n = int(s)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"invalid --jobs value {text!r} (a positive integer, "
            "or 'auto')")
    return n


def _shared_flags(*, jobs: bool = False, quiet: bool = False,
                  json_path: bool = False, json_const: bool = False,
                  progress: bool = False) -> argparse.ArgumentParser:
    """A parent parser carrying the flags every sweep-shaped command
    spells the same way: ``--jobs N|auto``, ``--quiet``, and
    ``--json PATH`` (``json_const`` selects the optional-PATH variant
    where a bare ``--json`` means stdout)."""
    p = argparse.ArgumentParser(add_help=False)
    if jobs:
        p.add_argument("--jobs", type=_jobs_value, default=None,
                       metavar="N",
                       help="parallel worker processes ('auto' = one "
                            "per core; default: serial)")
    if quiet:
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    if progress:
        p.add_argument("--progress", action="store_true",
                       help="live '[done/total shards] elapsed' line "
                            "on stderr (auto-disabled when stderr is "
                            "not a TTY; --quiet suppresses it)")
    if json_path:
        if json_const:
            p.add_argument("--json", nargs="?", const="-",
                           default=None, metavar="PATH",
                           help="emit deterministic JSON (to PATH, "
                                "or stdout when no PATH is given)")
        else:
            p.add_argument("--json", default=None, metavar="PATH",
                           help="write the JSON report here "
                                "('-' for stdout)")
    return p


def _progress_line(args: argparse.Namespace, total: int):
    """An active :class:`~repro.sweep.ProgressLine` when
    ``--progress`` was given (and ``--quiet`` was not), else None.
    The line itself writes to stderr only and auto-disables when
    stderr is not a TTY, so it can never contaminate stdout/JSON."""
    if not getattr(args, "progress", False) \
            or getattr(args, "quiet", False):
        return None
    from repro.sweep import ProgressLine
    return ProgressLine(total)


def _add_cure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-physical", action="store_true",
                   help="disable physical subtyping (upcasts go WILD)")
    p.add_argument("--no-rtti", action="store_true",
                   help="disable RTTI pointers (downcasts go WILD)")
    p.add_argument("--trust-bad-casts", action="store_true",
                   help="trust remaining bad casts instead of WILD")
    p.add_argument("--all-split", action="store_true",
                   help="use the compatible representation everywhere")
    p.add_argument("--temporal", action="store_true",
                   help="also emit lock-and-key temporal checks "
                        "(CHECK_ALIVE): use-after-free traps even "
                        "when the allocator recycles addresses")
    p.add_argument("--no-optimize", action="store_true",
                   help="keep redundant checks "
                        "(alias for --optimize=none)")
    p.add_argument("--optimize", choices=OPTIMIZE_LEVELS,
                   default=None, metavar="LEVEL",
                   help="check-elimination level: none, local "
                        "(straight-line), or flow (whole-function "
                        "dataflow, the default)")
    p.add_argument("-I", "--include", action="append", default=[],
                   metavar="DIR", help="extra include directory")


def cmd_cure(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    cured = cure(source, options=_options(args), name=args.file,
                 include_dirs=args.include or None)
    print(cured.report())
    if not args.report:
        print()
        print(cured.to_c(annotate_kinds=not args.plain))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    stdin = sys.stdin.read() if args.stdin else ""
    try:
        if args.raw:
            prog = parse_program(source, args.file,
                                 include_dirs=args.include or None)
            result = run_raw(prog, args=args.args, stdin=stdin,
                             engine=args.engine,
                             reuse_freed=args.reuse_freed)
        else:
            # provenance on: a trapping run explains the failing
            # pointer's kind with its blame chain
            cured = cure(source,
                         options=_options(args, provenance=True),
                         name=args.file,
                         include_dirs=args.include or None)
            result = run_cured(cured, args=args.args, stdin=stdin,
                               engine=args.engine,
                               reuse_freed=args.reuse_freed)
    except MemorySafetyError as exc:
        print(f"[{type(exc).__name__}] {exc}", file=sys.stderr)
        _print_blame(exc)
        return SAFETY_EXIT
    except (SegmentationFault, ProgramAbort) as exc:
        print(f"[{type(exc).__name__}] {exc}", file=sys.stderr)
        return SAFETY_EXIT
    sys.stdout.write(result.stdout)
    if args.stats:
        print(f"[exit {result.status}; {result.steps} steps; "
              f"{result.cycles} cycles]", file=sys.stderr)
    return result.status


def _print_blame(exc: BaseException) -> None:
    """Print the failing pointer's blame chain, if one was attached
    (failure forensics, stderr)."""
    failure = getattr(exc, "failure", None)
    if failure is None or not getattr(failure, "blame", None):
        return
    from repro.obs.blame import render_chain
    chain = {"kind": failure.pointer_kind or "?",
             "where": (f"pointer checked by {failure.check} "
                       f"in {failure.function}"),
             "steps": failure.blame}
    print("blame chain of the failing pointer:", file=sys.stderr)
    for ln in render_chain(chain):
        print("  " + ln, file=sys.stderr)


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_workloads
    for w in sorted(all_workloads(), key=lambda w: (w.category,
                                                    w.name)):
        print(f"{w.name:<18} [{w.category}] {w.description}")
        print(f"{'':18} -> {w.paper_row}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    if args.name == "diff":
        from repro.bench import (diff_bench, load_record,
                                 render_diff, run_bench)
        if not args.baseline:
            print("bench diff: --baseline is required",
                  file=sys.stderr)
            return 2
        try:
            baseline = load_record(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"bench diff: cannot read baseline "
                  f"{args.baseline!r}: {exc}", file=sys.stderr)
            return 2
        if args.current:
            current = load_record(args.current)
        else:
            current = run_bench(
                quick=args.quick,
                progress=(None if args.quiet else
                          lambda line: print(line,
                                             file=sys.stderr)))
        failures = diff_bench(baseline, current,
                              slack_pct=args.slack)
        print(render_diff(baseline, current, failures,
                          slack_pct=args.slack))
        return 2 if failures else 0

    if args.name is None:
        # suite mode: run the pinned micro-suite, append one record
        # to the trajectory ledger
        from repro.bench import (append_history, render_record,
                                 run_bench)
        record = run_bench(
            quick=args.quick,
            progress=(None if args.quiet else
                      lambda line: print(line, file=sys.stderr)))
        append_history(record, args.history)
        if args.json:
            text = json.dumps(record, indent=2, sort_keys=True)
            _emit_json(text + "\n", args.json, "bench record")
        print(render_record(record))
        print(f"record appended to {args.history}", file=sys.stderr)
        return 0

    from repro.bench import run_workload
    from repro.workloads import get
    w = get(args.name)
    tools = tuple(args.tools.split(",")) if args.tools else ("ccured",)
    row = run_workload(w, tools=tools, scale=args.scale,
                       engine=args.engine)
    print(f"{row.name}: {row.lines} LoC, kinds {row.sf_sq_w_rt()}")
    print(f"  raw      {row.raw.cycles:>12} cycles  1.00x")
    for tool in ("ccured", "purify", "valgrind"):
        tr = getattr(row, tool)
        if tr is not None:
            print(f"  {tool:<8} {tr.cycles:>12} cycles  "
                  f"{tr.ratio(row.raw):.2f}x")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import analyze_source, render_table
    reports = []
    if args.all_workloads or args.workload:
        from repro.sweep import sharded_analyze
        reports = sharded_analyze(
            _select_workloads(args.workload, args.all_workloads),
            scale=args.scale, jobs=args.jobs)
    else:
        if not args.file:
            print("analyze: give a FILE, --workload NAME or "
                  "--all-workloads", file=sys.stderr)
            return 2
        reports.append(analyze_source(
            _read_source(args.file), name=args.file,
            include_dirs=args.include or None))
    if args.json:
        payload = reports[0] if len(reports) == 1 else reports
        _emit_json(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   args.json, "stats")
    else:
        for i, r in enumerate(reports):
            if i:
                print()
            print(render_table(r))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (SEVERITIES, lint_source,
                                reports_json, reports_sarif)
    optimize = args.optimize or "flow"
    reports = []
    if args.all_workloads or args.workload:
        from repro.sweep import sharded_lint
        selected = _select_workloads(args.workload, args.all_workloads)
        pl = _progress_line(args, len(selected))
        show = not args.quiet and args.format == "text"
        try:
            reports = sharded_lint(
                selected, optimize=optimize, scale=args.scale,
                jobs=args.jobs,
                progress=(pl.tick if pl is not None else
                          _echo if show else None))
        finally:
            if pl is not None:
                pl.close()
    else:
        if not args.file:
            print("lint: give a FILE, --workload NAME[,NAME...] or "
                  "--all-workloads", file=sys.stderr)
            return 2
        # a report names its program without the ".c", as a
        # workload's does
        unit = (args.file[:-2] if args.file.endswith(".c")
                else args.file)
        reports.append(lint_source(
            _read_source(args.file), name=unit,
            optimize=optimize, temporal=args.temporal,
            include_dirs=args.include or None))
    if args.format == "json":
        text = reports_json(reports)
    elif args.format == "sarif":
        text = reports_sarif(reports)
    else:
        text = "\n".join(r.render() for r in reports) + "\n"
    if args.output == "-":
        print(text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"lint report written to {args.output}",
              file=sys.stderr)
    if args.fail_on != "never":
        threshold = SEVERITIES.index(args.fail_on)
        for r in reports:
            worst = r.worst_severity()
            if worst is not None \
                    and SEVERITIES.index(worst) >= threshold:
                return 1
    return 0


def _echo(line: str) -> None:
    """A progress line on stderr (stdout stays machine-readable)."""
    print(line, file=sys.stderr)


def _emit_json(text: str, path: str, what: str = "report") -> None:
    """Write a JSON document to ``path``, with ``-`` meaning stdout —
    the one spelling every ``--json PATH`` flag shares."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"{what} written to {path}", file=sys.stderr)


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import MUTATORS, report_to_json, \
        report_to_markdown
    if args.faults_command == "list":
        for name, builder in MUTATORS.items():
            import random
            spec = builder(random.Random(f"0:doc:{name}"))
            print(f"{name:<20} -> {spec.expected.__name__}")
            print(f"{'':20}    {spec.description}")
        return 0
    classes = args.classes.split(",") if args.classes else None
    if args.faults_command == "lint":
        from repro.sweep import sharded_lintval
        val = sharded_lintval(
            args.seed,
            workloads=_select_workloads(args.workloads,
                                        args.all_workloads) or None,
            classes=classes, optimize=args.optimize or "flow",
            scale=args.scale, jobs=args.jobs,
            progress=None if args.quiet else _echo)
        if args.json:
            _emit_json(val.dumps(), args.json)
        print(val.render())
        return 0 if val.ok else 2
    # faults run
    from repro.faults.campaign import select_campaign
    from repro.sweep import sharded_campaign
    workloads = (args.workloads.split(",") if args.workloads
                 else None)
    names, _ = select_campaign(args.campaign, workloads=workloads,
                               classes=classes)
    pl = _progress_line(args, len(names))
    try:
        report = sharded_campaign(
            args.seed, args.campaign, workloads=workloads,
            classes=classes, scale=args.scale,
            optimize=args.optimize, jobs=args.jobs,
            progress=(pl.tick if pl is not None else
                      None if args.quiet else _echo))
    finally:
        if pl is not None:
            pl.close()
    if args.json:
        _emit_json(report_to_json(report), args.json)
    print(report_to_markdown(report), end="")
    return 0 if report.ok else 2


def cmd_explain(args: argparse.Namespace) -> int:
    import os

    from repro.obs import (EXPLAIN_SCHEMA, diff_explain,
                           explain_report, load_json, render_explain,
                           render_explain_diff, stable_dumps)

    if args.target == "diff":
        if not (args.baseline and args.current):
            print("explain diff: --baseline and --current are "
                  "required", file=sys.stderr)
            return 2
        baseline = load_json(args.baseline)
        current = load_json(args.current)
        for side, payload in (("baseline", baseline),
                              ("current", current)):
            if payload.get("schema") != EXPLAIN_SCHEMA:
                print(f"explain diff: {side} has schema "
                      f"{payload.get('schema')!r}, expected "
                      f"{EXPLAIN_SCHEMA!r}", file=sys.stderr)
                return 2
        d = diff_explain(baseline, current)
        print(render_explain_diff(d))
        return 1 if d["verdict"] == "regressed" else 0

    target = args.target
    opts = _options(args, provenance=True)
    looks_like_file = (target.endswith(".c") or os.sep in target
                       or os.path.exists(target))
    if looks_like_file:
        try:
            source = _read_source(target)
        except OSError as exc:
            print(f"explain: cannot read {target!r}: {exc}",
                  file=sys.stderr)
            return 2
        cured = cure(source, options=opts, name=target,
                     include_dirs=args.include or None)
        name = target
    else:
        from repro.bench.harness import pristine_cure
        from repro.workloads import get
        w = get(target)
        # honor the workload's own trust default unless overridden
        opts.trust_bad_casts = (args.trust_bad_casts
                                or w.trust_bad_casts)
        cured = pristine_cure(w, options=opts, scale=args.scale)
        name = w.name
    report = explain_report(cured, name, function=args.function,
                            var=args.var)
    if args.json:
        _emit_json(stable_dumps(report), args.json, "explain report")
    else:
        print(render_explain(report, top=args.top))
    return 0


def _select_workloads(names: Optional[str], all_workloads: bool):
    """Resolve a ``--workload a,b``/``--all-workloads`` selection."""
    from repro.workloads import all_workloads as _all, get
    if all_workloads:
        return list(_all())
    selected = []
    for name in (names or "").split(","):
        name = name.strip()
        if not name:
            continue
        selected.append(get(name))
    return selected


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import (Thresholds, diff_reports, load_json,
                           render_diff, render_report, stable_dumps)
    from repro.sweep import sharded_metrics

    if getattr(args, "metrics_command", None) == "diff":
        baseline = load_json(args.baseline)
        if args.current:
            current = load_json(args.current)
        else:
            # Collect a fresh report under the baseline's own
            # configuration, over the full suite (so brand-new
            # workloads surface as notes).
            from repro.workloads import all_workloads
            report = sharded_metrics(
                list(all_workloads()),
                engine=baseline.get("engine", "closures"),
                optimize=baseline.get("optimize"),
                scale=baseline.get("scale"),
                jobs=args.jobs,
                progress=None if args.quiet else _echo)
            current = report.to_json()
        res = diff_reports(baseline, current, Thresholds(
            checks_pct=args.max_checks_pct,
            cycles_pct=args.max_cycles_pct,
            elided_drop=args.max_elided_drop,
            phase_pct=args.max_phase_pct))
        print(render_diff(res, verbose=args.verbose))
        if not res.ok:
            if args.fail_on_regress:
                print("metrics diff: regression gate FAILED",
                      file=sys.stderr)
                return 2
            return 1
        return 0

    # run mode: collect and emit a report
    selected = _select_workloads(args.workload, args.all_workloads)
    if not selected:
        print("metrics: give --workload NAME[,NAME...] or "
              "--all-workloads", file=sys.stderr)
        return 2
    trace_records: Optional[list] = [] if args.trace else None
    pl = _progress_line(args, len(selected))
    if pl is not None:
        progress = pl.tick
    elif args.quiet or not args.json:
        progress = None
    else:
        progress = _echo
    try:
        report = sharded_metrics(
            selected, engine=args.engine, optimize=args.optimize,
            scale=args.scale, timing=args.timing,
            provenance=args.provenance, temporal=args.temporal,
            trace=trace_records, jobs=args.jobs, progress=progress)
    finally:
        if pl is not None:
            pl.close()
    if args.trace:
        from repro.obs.tracer import write_chrome_trace
        write_chrome_trace(trace_records or [], args.trace)
        if args.trace != "-":
            print(f"chrome trace written to {args.trace} "
                  "(load in chrome://tracing or ui.perfetto.dev)",
                  file=sys.stderr)
    if args.json:
        _emit_json(stable_dumps(report.to_json(include_timing=args.timing)),
                   args.json, "metrics")
    else:
        print(render_report(report, top_sites=args.top))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import get_cache
    from repro.obs.serialize import stable_dumps
    disk = get_cache()
    if args.cache_command == "clear":
        removed = disk.clear()
        print(f"cure cache cleared: {removed} entries removed "
              f"({disk.root})")
        return 0
    # cache stats
    stats = disk.stats()
    session = disk.session
    if args.json:
        payload = stats.to_json()
        payload["session"] = {
            "hits": session.hits, "misses": session.misses,
            "stores": session.stores,
            "hit_rate_pct": session.hit_rate_pct}
        _emit_json(stable_dumps(payload), args.json, "cache stats")
        return 0

    def rate(s) -> str:
        pct = s.hit_rate_pct
        return "n/a (no lookups)" if pct is None else f"{pct:.1f}%"

    state = "enabled" if stats.enabled else "DISABLED (REPRO_CACHE)"
    print(f"cure cache at {stats.root} [{state}]")
    print(f"  entries     {stats.entries:>8}  "
          f"({stats.bytes / 1024:.0f} KiB)")
    print(f"  hits        {stats.hits:>8}")
    print(f"  misses      {stats.misses:>8}")
    print(f"  stores      {stats.stores:>8}")
    print(f"  invalidated {stats.invalidated:>8}")
    print(f"  hit rate    {rate(stats):>8}  (cross-process)")
    print(f"  session     {rate(session):>8}  (this process: "
          f"{session.hits} hits / {session.misses} misses)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CCured-in-the-Real-World reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cure = sub.add_parser("cure",
                            help="analyze + instrument a C file")
    p_cure.add_argument("file")
    p_cure.add_argument("--report", action="store_true",
                        help="print only the analysis report")
    p_cure.add_argument("--plain", action="store_true",
                        help="omit kind annotations in the output")
    _add_cure_flags(p_cure)
    p_cure.set_defaults(fn=cmd_cure)

    p_run = sub.add_parser("run", help="cure and execute a C file")
    p_run.add_argument("file")
    p_run.add_argument("args", nargs="*",
                       help="argv for the program")
    p_run.add_argument("--raw", action="store_true",
                       help="run uncured (hardware semantics)")
    p_run.add_argument("--stdin", action="store_true",
                       help="pass this process's stdin to the program")
    p_run.add_argument("--stats", action="store_true",
                       help="print steps/cycles to stderr")
    p_run.add_argument("--reuse-freed", action="store_true",
                       help="allocator recycles freed heap addresses "
                            "(pair with --temporal: the cured run "
                            "traps stale pointers a raw run reads "
                            "silently)")
    _add_engine_flag(p_run)
    _add_cure_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_wl = sub.add_parser("workloads",
                          help="list the benchmark workloads")
    p_wl.set_defaults(fn=cmd_workloads)

    p_bench = sub.add_parser(
        "bench",
        parents=[_shared_flags(quiet=True, json_path=True,
                               json_const=True)],
        help="measure one workload; with no NAME, run the pinned "
             "steps/sec micro-suite and append to the trajectory "
             "ledger; 'diff' gates against a baseline record")
    p_bench.add_argument("name", nargs="?", default=None,
                         help="a workload name, 'diff', or nothing "
                              "(= run the micro-suite)")
    p_bench.add_argument("--tools", default="ccured,valgrind",
                         help="comma list: ccured,purify,valgrind")
    p_bench.add_argument("--scale", type=int, default=None)
    p_bench.add_argument("--quick", action="store_true",
                         help="the CI smoke subset of the suite "
                              "(one workload, both modes)")
    p_bench.add_argument("--history", default="BENCH_history.jsonl",
                         metavar="PATH",
                         help="the append-only ledger "
                              "(default: BENCH_history.jsonl)")
    p_bench.add_argument("--baseline", default=None, metavar="PATH",
                         help="(diff) the committed baseline record")
    p_bench.add_argument("--current", default=None, metavar="PATH",
                         help="(diff) record to gate — a JSON file "
                              "or the last line of a .jsonl ledger "
                              "(omitted: measure one now)")
    p_bench.add_argument("--slack", type=float, default=50.0,
                         metavar="PCT",
                         help="(diff) allowed %% drop in the "
                              "closures-vs-tree speedup ratio "
                              "(default 50; steps/cycles/status are "
                              "always exact)")
    _add_engine_flag(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_an = sub.add_parser(
        "analyze",
        parents=[_shared_flags(jobs=True, json_path=True)],
        help="per-function CFG, dataflow-fact and check-elimination "
             "statistics")
    p_an.add_argument("file", nargs="?", default=None,
                      help="a C file to analyze")
    p_an.add_argument("--workload", default=None, metavar="NAMES",
                      help="analyze benchmark workload(s) "
                           "(comma list) instead")
    p_an.add_argument("--all-workloads", action="store_true",
                      help="analyze every benchmark workload")
    p_an.add_argument("--scale", type=int, default=None,
                      help="workload problem size")
    p_an.add_argument("-I", "--include", action="append", default=[],
                      metavar="DIR", help="extra include directory")
    p_an.set_defaults(fn=cmd_analyze)

    p_lint = sub.add_parser(
        "lint",
        parents=[_shared_flags(jobs=True, quiet=True,
                               progress=True)],
        help="cure-time static diagnostics: sites the must-analysis "
             "proves fail on every path (with blame-chain paths)")
    p_lint.add_argument("file", nargs="?", default=None,
                        help="a C file to lint")
    p_lint.add_argument("--workload", default=None, metavar="NAME",
                        help="lint benchmark workload(s) "
                             "(comma list) instead")
    p_lint.add_argument("--all-workloads", action="store_true",
                        help="lint every benchmark workload")
    p_lint.add_argument("--scale", type=int, default=None,
                        help="workload problem size")
    p_lint.add_argument("--optimize", choices=OPTIMIZE_LEVELS,
                        default=None, metavar="LEVEL",
                        help="check-elimination level to lint under "
                             "(default flow)")
    p_lint.add_argument("--temporal", action="store_true",
                        help="cure FILE with lock-and-key temporal "
                             "checking")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="output format (json is byte-"
                             "deterministic; see the CI lint gate)")
    p_lint.add_argument("-o", "--output", default="-", metavar="PATH",
                        help="write the report here ('-' for stdout)")
    p_lint.add_argument("--fail-on",
                        choices=("never", "warning", "error"),
                        default="error",
                        help="exit 1 when a diagnostic of at least "
                             "this severity is found")
    p_lint.add_argument("-I", "--include", action="append",
                        default=[], metavar="DIR",
                        help="extra include directory")
    p_lint.set_defaults(fn=cmd_lint)

    p_exp = sub.add_parser(
        "explain",
        help="explain pointer-kind inference: per-pointer blame "
             "chains and a root-cause ranking (the paper's 'CCured "
             "browser' workflow)")
    p_exp.add_argument("target",
                       help="a workload name, a C file path, or "
                            "'diff' to compare two explain reports "
                            "(exit 1 when WILD regressed)")
    p_exp.add_argument("--baseline", default=None, metavar="PATH",
                       help="(diff) explain JSON before the change")
    p_exp.add_argument("--current", default=None, metavar="PATH",
                       help="(diff) explain JSON after the change")
    p_exp.add_argument("--function", default=None, metavar="F",
                       help="only pointers declared in function F")
    p_exp.add_argument("--var", default=None, metavar="V",
                       help="only pointers named V")
    p_exp.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the deterministic JSON report (to "
                            "PATH, or stdout when no PATH is given)")
    p_exp.add_argument("--top", type=int, default=10, metavar="N",
                       help="root causes listed per state in table "
                            "output")
    p_exp.add_argument("--scale", type=int, default=None,
                       help="workload problem size")
    _add_cure_flags(p_exp)
    p_exp.set_defaults(fn=cmd_explain)

    p_met = sub.add_parser(
        "metrics",
        parents=[_shared_flags(jobs=True, quiet=True,
                               json_path=True, json_const=True,
                               progress=True)],
        help="pipeline observability: per-phase timings, check-site "
             "histograms, pointer-kind distributions, and regression "
             "diffs")
    p_met.add_argument("--workload", default=None, metavar="NAMES",
                       help="comma list of workloads to measure")
    p_met.add_argument("--all-workloads", action="store_true",
                       help="measure every benchmark workload")
    p_met.add_argument("--scale", type=int, default=None,
                       help="workload problem size")
    p_met.add_argument("--optimize", choices=OPTIMIZE_LEVELS,
                       default=None, metavar="LEVEL",
                       help="check-elimination level (default: flow)")
    p_met.add_argument("--timing", action="store_true",
                       help="also collect per-phase wall times "
                            "(non-deterministic; excluded from the "
                            "regression gate)")
    p_met.add_argument("--trace", default=None, metavar="PATH",
                       help="write pipeline spans as Chrome "
                            "trace_event JSON (load in "
                            "chrome://tracing or ui.perfetto.dev)")
    p_met.add_argument("--provenance", action="store_true",
                       help="record blame provenance and include "
                            "per-state root-cause counts in the "
                            "report (gated by `metrics diff`)")
    p_met.add_argument("--temporal", action="store_true",
                       help="also cure+run each workload with "
                            "lock-and-key temporal checking and "
                            "include its CHECK_ALIVE counts and "
                            "cycle overhead (gated by "
                            "`metrics diff`)")
    p_met.add_argument("--top", type=int, default=5, metavar="N",
                       help="hottest check sites listed per workload "
                            "in table output")
    _add_engine_flag(p_met)
    p_met.set_defaults(fn=cmd_metrics, metrics_command=None)
    msub = p_met.add_subparsers(dest="metrics_command")
    p_mdiff = msub.add_parser(
        "diff",
        parents=[_shared_flags(jobs=True, quiet=True)],
        help="compare a metrics report against a baseline and gate "
             "on regressions")
    p_mdiff.add_argument("--baseline", required=True, metavar="PATH",
                         help="the committed baseline report")
    p_mdiff.add_argument("--current", default=None, metavar="PATH",
                         help="a freshly collected report (omitted: "
                              "collect one now under the baseline's "
                              "configuration)")
    p_mdiff.add_argument("--fail-on-regress", action="store_true",
                         help="exit 2 on any regression (the CI "
                              "gate); without this, regressions "
                              "still exit 1")
    p_mdiff.add_argument("--max-checks-pct", type=float, default=0.0,
                         metavar="PCT",
                         help="allowed %% growth in checks executed "
                              "or surviving per workload (default 0)")
    p_mdiff.add_argument("--max-cycles-pct", type=float, default=0.0,
                         metavar="PCT",
                         help="allowed %% growth in cured cycles per "
                              "workload (default 0)")
    p_mdiff.add_argument("--max-elided-drop", type=int, default=0,
                         metavar="N",
                         help="allowed drop in statically elided "
                              "checks per workload (default 0)")
    p_mdiff.add_argument("--max-phase-pct", type=float, default=50.0,
                         metavar="PCT",
                         help="allowed %% growth in per-phase wall "
                              "time when both reports carry timings")
    p_mdiff.add_argument("--verbose", action="store_true",
                         help="print improvements and notes, not "
                              "just regressions")
    p_mdiff.set_defaults(fn=cmd_metrics)

    p_faults = sub.add_parser(
        "faults", help="seeded fault-injection campaigns")
    fsub = p_faults.add_subparsers(dest="faults_command",
                                   required=True)
    p_flist = fsub.add_parser("list",
                              help="list the mutation classes")
    p_flist.set_defaults(fn=cmd_faults)
    p_frun = fsub.add_parser(
        "run",
        parents=[_shared_flags(jobs=True, quiet=True,
                               json_path=True, progress=True)],
        help="inject faults and assert the cured runs trap")
    p_frun.add_argument("--seed", type=int, default=1337,
                        help="campaign seed (same seed, same report)")
    p_frun.add_argument("--campaign", default="smoke",
                        choices=("smoke", "full"),
                        help="smoke: 4 workloads; full: all 27")
    p_frun.add_argument("--workloads", default=None,
                        help="comma list overriding the campaign's "
                             "workload set")
    p_frun.add_argument("--classes", default=None,
                        help="comma list of mutation classes "
                             "(default: all)")
    p_frun.add_argument("--scale", type=int, default=None)
    p_frun.add_argument("--optimize", choices=OPTIMIZE_LEVELS,
                        default=None, metavar="LEVEL",
                        help="check-elimination level of the cured "
                             "side (none, local, flow)")
    p_frun.set_defaults(fn=cmd_faults)
    p_flint = fsub.add_parser(
        "lint",
        parents=[_shared_flags(jobs=True, quiet=True,
                               json_path=True)],
        help="validate repro lint against the campaign's "
             "variants (static precision/recall)")
    p_flint.add_argument("--seed", type=int, default=1,
                         help="campaign seed")
    p_flint.add_argument("--workloads", default=None,
                         help="comma list of workloads "
                              "(default: all 27)")
    p_flint.add_argument("--all-workloads", action="store_true",
                         help="validate over every workload "
                              "(the default)")
    p_flint.add_argument("--classes", default=None,
                         help="comma list of mutation classes "
                              "(default: all 13)")
    p_flint.add_argument("--optimize", choices=OPTIMIZE_LEVELS,
                         default=None, metavar="LEVEL")
    p_flint.add_argument("--scale", type=int, default=None)
    p_flint.set_defaults(fn=cmd_faults)

    p_cache = sub.add_parser(
        "cache", help="the content-addressed cure cache")
    csub = p_cache.add_subparsers(dest="cache_command",
                                  required=True)
    p_cstats = csub.add_parser(
        "stats",
        parents=[_shared_flags(json_path=True)],
        help="hit/miss/store counters and entry census")
    p_cstats.set_defaults(fn=cmd_cache)
    p_cclear = csub.add_parser(
        "clear", help="delete every entry and reset the counters")
    p_cclear.set_defaults(fn=cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnknownSelection as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCError as exc:
        print(f"{exc.where}: {exc.message}" if exc.where else exc,
              file=sys.stderr)
        return REJECT_EXIT
    except (ParseError, PreprocessError) as exc:
        # both already read ``file:line[:col]: message``
        print(exc, file=sys.stderr)
        return REJECT_EXIT
    except InterpreterLimitError as exc:
        print(f"[InterpreterLimitError] {exc}", file=sys.stderr)
        return LIMIT_EXIT


if __name__ == "__main__":
    sys.exit(main())

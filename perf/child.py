"""One repeat of one benchmark workload, in a fresh interpreter.

:mod:`perf.bench` writes a JSON spec and runs ``python -m perf.child
SPEC T_SPAWN``.  The child runs the workload's ops, checks each op's
output against its known answer (:mod:`perf.reference`), and writes a
JSON result to ``spec["out"]``.  It calls only the public functions
the matching CLI command calls.

Set-up runs from the spawn (``T_SPAWN``, read from CLOCK_MONOTONIC,
which every process on the machine shares) to the first op:
interpreter start, imports, registries, and a workload's own warm-up.
The body runs from the first op to the last.

Modes: ``plain`` is the measured repeat; ``prime`` fills the cure
cache and times nothing; ``timers`` is the plain body under the
workload's layer timers (:data:`perf.layers.WRAPPED`); ``profile`` is
the body under cProfile, around execution only.
"""

from __future__ import annotations

import cProfile
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Optional

from perf import layers
from perf.reference import check_exec, check_metrics, load, summarize

#: fault_campaign's programs, one per suite category.  The set is
#: fixed so every seed does the same amount of work (a seeded draw
#: from the suite moves the wall time by more than the bound); the
#: seed is the campaign seed.
FAULT_PROGRAMS = ("spec_compress", "olden_em3d", "ptrdist_anagram",
                  "apache_urlcount", "bind_like")
#: lint passes per frontend_cold repeat; the in-process cache is
#: cleared between passes, so each pass re-runs the whole front end
FRONTEND_PASSES = 3
#: the pool size of the traced run's sweep_cold (the machine has 2
#: cores).  The measured sweep is serial: at jobs=2 its wall time
#: varied by 12% between runs even speed-normalized
TRACE_SWEEP_JOBS = 2
#: the traced layer run keeps every third exec_warm program and the
#: first two fault_campaign programs (all their classes)
TRACE_EXEC_STRIDE = 3
TRACE_FAULT_PROGRAMS = 2
#: exec_warm programs the traced run re-runs on the tree engine
TREE_PROGRAMS = 3


#: the calibration kernel's time at the reference speed (its median on
#: the 2-core machine the bounds were set on): normalized times read as
#: seconds at that speed
REF_KERNEL_S = 0.0012


def kernel_s() -> float:
    """Seconds one fixed pure-Python loop takes now: the machine's
    current speed, which drifts by 20% or more within a minute on a
    shared host."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


class Body:
    """Times the body as consecutive segments and checks each op's
    output.

    The calibration kernel runs when the body begins and after every
    segment; an op is one segment.  A segment's time is normalized to
    the reference speed by the median of the three kernel times around
    it (before the previous segment, before it, after it), so a drift
    in machine speed cancels while one slow kernel run does not.  An op
    sample may span several segments (a sweep's results arrive at
    segment ends, counted from its start)."""

    def __init__(self, profile: Optional[cProfile.Profile] = None):
        self.cal: list[float] = []
        self.segments: list[float] = []
        #: (first segment, last segment) of each op sample
        self.samples: list[tuple[int, int]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.tally: Counter = Counter()
        self.profile = profile
        self.t_first = 0.0
        self._t0 = 0.0

    def begin(self) -> None:
        self.t_first = time.monotonic()
        self._reopen()

    def _reopen(self) -> None:
        self.cal.append(kernel_s())
        self._t0 = time.perf_counter()

    def _close(self) -> int:
        self.segments.append(time.perf_counter() - self._t0)
        return len(self.segments) - 1

    def cut(self) -> int:
        """End the current segment; returns its index."""
        k = self._close()
        self._reopen()
        return k

    def record(self, label: str, first: int, last: int,
               why: Optional[str]) -> None:
        self.attempted += 1
        self.samples.append((first, last))
        if why is not None:
            self.failures.append(f"{label}: {why}")

    def op(self, label: str, thunk: Callable,
           check: Callable[[object], Optional[str]]):
        if self.profile is not None:
            self.profile.enable()
        out = None
        try:
            out = thunk()
            why = None
        except Exception as exc:    # an op that raises is a failed op
            why = f"{type(exc).__name__}: {exc}"
        finally:
            if self.profile is not None:
                self.profile.disable()
        k = self._close()
        self.record(label, k, k, check(out) if why is None else why)
        self._reopen()
        return out

    def factor(self, segment: int) -> float:
        """Reference speed / speed around ``segment``."""
        return REF_KERNEL_S / statistics.median(
            self.cal[max(0, segment - 1):segment + 2])

    def normalized(self) -> dict:
        seg = [s * self.factor(i) for i, s in enumerate(self.segments)]
        return {
            "op_ms": [1e3 * sum(seg[a:b + 1]) for a, b in self.samples],
            "wall_s": sum(seg), "wall_raw_s": sum(self.segments),
            "speed": REF_KERNEL_S / statistics.median(self.cal),
        }


def _geomean_ratio(pairs: dict[str, tuple[int, int]]) -> float:
    """Geometric mean of cured/raw cycles, summed in name order so the
    float is bit-identical however the ops were ordered."""
    logs = [math.log(cured / raw) for _, (raw, cured)
            in sorted(pairs.items())]
    return math.exp(math.fsum(logs) / len(logs))


class Workload:
    """Defaults shared by the four workloads.

    Ops run in a fixed order, the CLI's (names sorted): an op's time
    depends on its position in the process, and a seeded order moved
    ``op_ms_p50`` by 8% from seed to seed (perf/README.md, finding
    (d))."""

    def __init__(self, spec: dict, ref: dict):
        self.ref = ref
        self.seed = spec["seed"]
        self.mode = spec["mode"]
        self.trace = spec["trace"]
        #: keep only the first ``limit`` programs (ops for
        #: fault_campaign) — the self-test's small runs
        self.limit = spec.get("limit")
        self.exact: dict = {}
        self.extras: dict = {}

    def names(self) -> list[str]:
        from repro.workloads import all_workloads
        return sorted(w.name for w in all_workloads())[:self.limit]

    def prime(self, plan) -> None:
        pass

    def warm_up(self, plan) -> None:
        pass

    def after(self, plan) -> None:
        """Traced-run extras measured after the body."""


class ExecWarm(Workload):
    """``repro metrics --all-workloads``, serial, on a primed cache."""

    def plan(self) -> list[str]:
        names = self.names()
        return names[::TRACE_EXEC_STRIDE] if self.trace else names

    def _trees(self, name: str):
        from repro.bench import harness
        from repro.core import CureOptions
        from repro.workloads import get
        w = get(name)
        prog = harness.pristine_parse(w)
        cured = harness.pristine_cure(
            w, options=CureOptions(trust_bad_casts=w.trust_bad_casts))
        return w, prog, cured

    def prime(self, plan) -> None:
        for name in plan:
            self._trees(name)

    def _program(self, name: str) -> dict:
        import repro.interp as interp
        w, prog, cured = self._trees(name)
        args = list(w.args) or None
        raw = interp.run_raw(prog, args=args, stdin=w.stdin)
        cur = interp.run_cured(cured, args=args, stdin=w.stdin,
                               site_hits=Counter())
        return {"raw": summarize(raw), "cured": summarize(cur)}

    def body(self, plan, body: Body) -> None:
        pairs = {}
        for name in plan:
            out = body.op(name, lambda: self._program(name),
                          lambda got: check_exec(
                              got, self.ref["programs"].get(name)))
            if out is not None:
                pairs[name] = (out["raw"]["cycles"],
                               out["cured"]["cycles"])
        if len(pairs) == len(plan):
            self.exact["cycle_ratio_geomean"] = _geomean_ratio(pairs)

    def after(self, plan) -> None:
        """A few cured runs on the tree engine, the oracle."""
        from repro.interp import run_cured
        tree_s = 0.0
        tree_steps = 0
        for name in plan[:TREE_PROGRAMS]:
            w, _prog, cured = self._trees(name)
            t0 = time.perf_counter()
            cur = run_cured(cured, args=list(w.args) or None,
                            stdin=w.stdin, engine="tree")
            tree_s += time.perf_counter() - t0
            tree_steps += cur.steps
        self.extras.update(tree_s=tree_s, tree_steps=tree_steps)


class FrontendCold(Workload):
    """``repro lint --all-workloads`` with the cure cache off."""

    def plan(self) -> list[list[str]]:
        return [self.names()] * (1 if self.trace else FRONTEND_PASSES)

    def body(self, plan, body: Body) -> None:
        from repro.analysis import lint_workload
        from repro.bench.harness import clear_program_cache
        from repro.workloads import get
        want = self.ref["lint_diagnostics"]
        for order in plan:
            for name in order:
                body.op(name, lambda: lint_workload(get(name)),
                        lambda r: None if len(r.diagnostics) == want
                        else f"{len(r.diagnostics)} diagnostics")
            clear_program_cache()
            body.cut()


class SweepCold(Workload):
    """CI's first ``repro metrics --all-workloads``: an empty cure
    cache, parse + cure + store + execute, serial (the traced run uses
    the 2-worker pool).  Its input is the whole suite, so the seed
    changes nothing (``sharded_metrics`` orders it by name).  An op is one
    program's result; its time runs from the sweep's start to the
    result reaching the caller, and each result ends a segment."""

    def plan(self) -> list[str]:
        return self.names()

    def body(self, plan, body: Body) -> None:
        from repro.sweep import sharded_metrics
        from repro.workloads import get
        ws = [get(name) for name in plan]
        arrived: dict[str, int] = {}        # name -> segment it ended
        spans = [] if self.mode == "timers" else None
        jobs = TRACE_SWEEP_JOBS if self.trace else 1

        def progress(line: str) -> None:
            arrived[line.split()[0]] = body.cut()

        try:
            report = sharded_metrics(ws, jobs=jobs, progress=progress,
                                     trace=spans)
        except Exception as exc:    # the whole sweep failed
            end = body.cut()
            for name in plan:
                body.record(name, 0, end, f"{type(exc).__name__}: {exc}")
            return
        end = body.cut()
        got = {wm.name: wm for wm in report.workloads}
        pairs = {}
        for name in plan:
            wm = got.get(name)
            why = ("missing from the report" if wm is None else
                   check_metrics(wm, self.ref["programs"].get(name)))
            body.record(name, 0, arrived.get(name, end), why)
            if wm is not None:
                pairs[name] = (wm.raw_cycles, wm.cured_cycles)
        if len(pairs) == len(plan):
            self.exact["cycle_ratio_geomean"] = _geomean_ratio(pairs)
        if spans is not None:
            from repro.cache import get_cache
            stats = get_cache().stats()
            stores = [s for s in spans if s.name == "cache"
                      and s.attrs.get("op") == "store"]
            self.extras.update(
                first_result_s=body.segments[0],
                serial_work_s=sum(s.duration for s in spans
                                  if s.name == "shard"),
                jobs=jobs, store_s=sum(s.duration for s in stores),
                stores=stats.stores, misses=stats.misses,
                stored_bytes=stats.bytes)


class FaultCampaign(Workload):
    """``repro faults run`` over :data:`FAULT_PROGRAMS` x every
    mutation class, seeded by the benchmark seed.  The cure cache is
    off and the programs are parsed before the first op: with a primed
    cache the run hits the Varinfo-id collision described in
    perf/README.md, finding (a)."""

    def plan(self) -> list[tuple[str, str]]:
        from repro.faults.mutators import MUTATORS
        programs = FAULT_PROGRAMS[:TRACE_FAULT_PROGRAMS] if self.trace \
            else FAULT_PROGRAMS
        ops = [(name, m) for name in programs for m in MUTATORS]
        return ops[:self.limit]

    def warm_up(self, plan) -> None:
        from repro.bench.harness import pristine_parse
        from repro.workloads import get
        for name in sorted({name for name, _ in plan}):
            pristine_parse(get(name))

    def body(self, plan, body: Body) -> None:
        from repro.faults.campaign import run_variant
        from repro.faults.mutators import make_variant
        from repro.workloads import get
        expected = self.ref["fault_expected"]

        def check(vr) -> Optional[str]:
            body.tally["caught"] += vr.caught
            body.tally["engines_agree"] += vr.engines_agree
            if vr.expected != expected.get(vr.mclass):
                return (f"expects {vr.expected}, known answer "
                        f"{expected.get(vr.mclass)}")
            if not vr.caught:
                return "not caught: " + "; ".join(
                    f"{r.tool} {r.outcome} {r.error}" for r in vr.runs)
            if not vr.engines_agree:
                return "engines disagree"
            return None

        for name, mclass in plan:
            body.op(f"{name}/{mclass}",
                    lambda: run_variant(get(name), make_variant(
                        name, mclass, self.seed)), check)


WORKLOADS = {"exec_warm": ExecWarm, "frontend_cold": FrontendCold,
             "sweep_cold": SweepCold, "fault_campaign": FaultCampaign}


def _import_program() -> None:
    """Every module the ops call, so no op pays for an import."""
    import repro.analysis          # noqa: F401
    import repro.bench.harness     # noqa: F401
    import repro.cache             # noqa: F401
    import repro.faults.campaign   # noqa: F401
    import repro.interp            # noqa: F401
    import repro.sweep             # noqa: F401
    import repro.workloads         # noqa: F401


def _peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run(spec: dict, t_spawn: float, ref: Optional[dict] = None) -> dict:
    """Run the spec'd repeat; ``ref`` replaces perf/reference.json."""
    t0 = time.perf_counter()
    _import_program()
    import_s = time.perf_counter() - t0
    wl = WORKLOADS[spec["workload"]](spec, ref if ref is not None
                                     else load())
    plan = wl.plan()
    if wl.mode == "prime":
        wl.prime(plan)
        return {"mode": "prime"}
    wl.warm_up(plan)
    profile = cProfile.Profile() if wl.mode == "profile" else None
    rec = layers.Recorder()
    wraps: tuple = ()
    make = rec.timer
    if wl.mode == "timers":
        wraps = layers.WRAPPED.get(spec["workload"], ())
    elif profile is not None and spec["workload"] == "exec_warm":
        wraps = tuple(w for w in layers.WRAPPED["exec_warm"]
                      if w.key in ("interp.raw", "interp.cured"))
        make = layers.profiling(profile)
    body = Body(profile if spec["workload"] == "fault_campaign" else None)
    with layers.patched(wraps, make):
        body.begin()
        wl.body(plan, body)
    if wl.mode == "timers":
        wl.after(plan)
    setup_raw = body.t_first - t_spawn
    out = {"mode": wl.mode, "workload": spec["workload"],
           "setup_s": setup_raw * body.factor(0),
           "setup_raw_s": setup_raw, "import_s": import_s,
           **body.normalized(),
           "attempted": body.attempted, "failures": body.failures,
           "tally": dict(body.tally), "exact": wl.exact,
           "extras": wl.extras, "peak_rss_mb": _peak_rss_mb()}
    if wl.mode == "timers":
        out["layers"] = rec.to_json()
    if profile is not None:
        out["profile"] = layers.fold_profile(profile)
    return out


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    result = run(spec, float(argv[2]))
    with open(spec["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

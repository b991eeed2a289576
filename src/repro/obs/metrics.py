"""Per-workload pipeline metrics: where the time, the checks and the
pointer kinds go.

One :func:`collect_workload_metrics` call runs a workload raw and
cured on the selected engine and produces a :class:`WorkloadMetrics`
holding everything the paper's Figure-8-style evaluation reports,
plus the per-check-site accounting CCured itself never had:

* the static side — pointer-kind distribution, checks emitted by the
  instrumenter (by kind), checks removed by the selected elimination
  level, surviving check sites;
* the dynamic side — deterministic cycle counts for raw and cured
  runs, executed checks by kind, and a per-site hit histogram (site
  id, enclosing function, check kind, hit count) collected by both
  engines through ``site_hits``;
* optionally the wall-clock side — per-phase tracer times (parse,
  cure, solve, dataflow, exec per engine and mode, cache load and
  store), which are real seconds and therefore excluded from
  deterministic serializations by default.

Everything except the ``phases`` timings is a pure function of the
program and the options, so a :class:`MetricsReport` serializes
byte-identically across runs — the property the CI regression gate
(:mod:`repro.obs.diff`) is built on.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cil import stmt as S
from repro.cil.program import GFun, Program

#: schema tag stamped into every serialized report, so the diff tool
#: can refuse mismatched formats instead of mis-reading them.
SCHEMA = "repro.obs.metrics/1"


@dataclass
class SiteStat:
    """One surviving check site and its run-time hit count."""

    site: int           # stable statement id assigned by the curer
    function: str       # enclosing function
    kind: str           # CheckKind value, e.g. "CHECK_SEQ_BOUNDS"
    hits: int           # times the check executed (0 = never reached)

    def to_json(self) -> dict:
        return {"site": self.site, "function": self.function,
                "kind": self.kind, "hits": self.hits}


@dataclass
class WorkloadMetrics:
    """The full static + dynamic accounting of one workload."""

    name: str
    category: str
    scale: Optional[int]
    lines: int
    engine: str
    optimize: str
    kind_pct: dict[str, float]
    checks_emitted: dict[str, int]      # by kind, pre-elimination
    checks_removed: int                 # statically elided
    checks_surviving: int               # sites left in the program
    raw_cycles: int
    cured_cycles: int
    raw_steps: int
    cured_steps: int
    checks_executed: int
    check_events: dict[str, int]        # executed, by kind
    sites: list[SiteStat] = field(default_factory=list)
    function_hits: dict[str, int] = field(default_factory=dict)
    #: wall seconds per phase (keyed by ``tracer.phase_key``, e.g.
    #: ``exec:closures:cured``); non-deterministic, empty unless the
    #: collection ran with timing enabled
    phases: dict[str, float] = field(default_factory=dict)
    #: per-state root-cause node counts from the blame graph
    #: (``{"WILD": {"bad-cast: ...": 3}, ...}``); None unless the
    #: collection ran with provenance enabled, and omitted from JSON
    #: then — the committed baseline stays byte-identical
    root_causes: Optional[dict[str, dict[str, int]]] = None
    #: temporal-check overhead: a second cure/run of the same workload
    #: with ``CureOptions.temporal`` on (lock-and-key liveness checks)
    #: — emitted/surviving/executed ``CHECK_ALIVE`` counts, the
    #: temporal run's cycles, and its %% overhead over the spatial-only
    #: cured run.  None unless the collection ran with ``temporal``
    #: enabled, and omitted from JSON then — the committed baseline
    #: stays byte-identical
    temporal: Optional[dict] = None

    @property
    def ccured_ratio(self) -> float:
        if not self.raw_cycles:
            return 0.0
        return self.cured_cycles / self.raw_cycles

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "name": self.name,
            "category": self.category,
            "scale": self.scale,
            "lines": self.lines,
            "engine": self.engine,
            "optimize": self.optimize,
            "kind_pct": dict(self.kind_pct),
            "checks_emitted": dict(self.checks_emitted),
            "checks_removed": self.checks_removed,
            "checks_surviving": self.checks_surviving,
            "raw_cycles": self.raw_cycles,
            "cured_cycles": self.cured_cycles,
            "raw_steps": self.raw_steps,
            "cured_steps": self.cured_steps,
            "ccured_ratio": self.ccured_ratio,
            "checks_executed": self.checks_executed,
            "check_events": dict(self.check_events),
            "sites": [s.to_json() for s in self.sites],
            "function_hits": dict(self.function_hits),
        }
        if include_timing and self.phases:
            out["phases"] = dict(self.phases)
        if self.root_causes is not None:
            out["root_causes"] = {
                state: dict(per)
                for state, per in sorted(self.root_causes.items())}
        if self.temporal is not None:
            out["temporal"] = dict(self.temporal)
        return out


@dataclass
class MetricsReport:
    """A set of workload metrics collected under one configuration."""

    engine: str
    optimize: str
    scale: Optional[int]
    workloads: list[WorkloadMetrics] = field(default_factory=list)

    def totals(self) -> dict:
        keys = ("checks_executed", "checks_removed",
                "checks_surviving", "raw_cycles", "cured_cycles")
        out = {k: sum(getattr(w, k) for w in self.workloads)
               for k in keys}
        out["checks_emitted"] = sum(
            sum(w.checks_emitted.values()) for w in self.workloads)
        return out

    def to_json(self, include_timing: bool = False) -> dict:
        return {"schema": SCHEMA,
                "engine": self.engine,
                "optimize": self.optimize,
                "scale": self.scale,
                "totals": self.totals(),
                "workloads": [w.to_json(include_timing)
                              for w in self.workloads]}


# -- site table --------------------------------------------------------------


def _checks_of_block(b: S.Block) -> Iterable[S.Check]:
    for s in b.stmts:
        if isinstance(s, S.InstrStmt):
            for i in s.instrs:
                if isinstance(i, S.Check):
                    yield i
        elif isinstance(s, S.Block):
            yield from _checks_of_block(s)
        elif isinstance(s, S.If):
            yield from _checks_of_block(s.then)
            yield from _checks_of_block(s.els)
        elif isinstance(s, S.Loop):
            yield from _checks_of_block(s.body)


def site_table(prog: Program) -> dict[int, tuple[str, str]]:
    """``site id -> (function, check kind)`` for every surviving
    check of an instrumented program."""
    table: dict[int, tuple[str, str]] = {}
    for g in prog.globals:
        if not isinstance(g, GFun):
            continue
        for c in _checks_of_block(g.fundec.body):
            if c.site is not None:
                table[c.site] = (g.fundec.name, c.kind.value)
    return table


# -- collection --------------------------------------------------------------


def collect_workload_metrics(w, *, engine: str = "closures",
                             optimize: Optional[str] = None,
                             scale: Optional[int] = None,
                             timing: bool = False,
                             provenance: bool = False,
                             temporal: bool = False
                             ) -> WorkloadMetrics:
    """Measure one workload raw + cured and assemble its metrics.

    Uses the bench harness's pristine parse/cure caches, so repeated
    collections (and collections sharing trees with benchmark tests)
    pay the pipeline once.  The work runs inside one ``workload``
    span.  With ``timing=True`` the tracer captures per-phase wall
    seconds around the same calls.  With ``provenance=True`` the cure
    records blame provenance and the metrics carry per-state
    root-cause counts.
    With ``temporal=True`` the workload is cured and run a second
    time with lock-and-key liveness checking on, and the metrics
    carry its CHECK_ALIVE counts and cycle overhead; the main columns
    stay spatial-only, comparable against the committed baseline.
    """
    from repro.bench.harness import (cached_source, count_lines,
                                     pristine_cure, pristine_parse)
    from repro.core.options import CureOptions
    from repro.interp import run_cured, run_raw
    from repro.obs.tracer import TRACER, phase_seconds_of

    opts = CureOptions(trust_bad_casts=w.trust_bad_casts,
                       optimize=optimize, provenance=provenance)
    args = list(w.args) or None

    # Timing joins a live capture (a traced shard) instead of nesting
    # its own, which would hide these spans from the enclosing one.
    fresh = timing and not TRACER.enabled
    with TRACER.capture() if fresh else nullcontext():
        start = len(TRACER.records)
        with TRACER.span("workload", name=w.name):
            prog = pristine_parse(w, scale)
            cured = pristine_cure(w, options=opts, scale=scale)
            raw_res = run_raw(prog, args=args, stdin=w.stdin,
                              engine=engine)
            hits: Counter[int] = Counter()
            cured_res = run_cured(cured, args=args, stdin=w.stdin,
                                  engine=engine, site_hits=hits)
        phases = (phase_seconds_of(TRACER.records[start:]) if timing
                  else {})

    root_causes: Optional[dict[str, dict[str, int]]] = None
    if provenance:
        from repro.obs.blame import BlameGraph
        root_causes = BlameGraph.from_cured(cured).root_cause_counts()

    temporal_stats: Optional[dict] = None
    if temporal:
        t_opts = CureOptions(trust_bad_casts=w.trust_bad_casts,
                             optimize=optimize, temporal=True)
        t_cured = pristine_cure(w, options=t_opts, scale=scale)
        t_res = run_cured(t_cured, args=args, stdin=w.stdin,
                          engine=engine)
        t_table = site_table(t_cured.prog)
        alive = S.CheckKind.ALIVE.value
        base_cycles = cured_res.cycles
        overhead = (0.0 if not base_cycles else
                    (t_res.cycles - base_cycles) / base_cycles * 100)
        temporal_stats = {
            "checks_alive_emitted":
                t_cured.check_counts.get(S.CheckKind.ALIVE, 0),
            "checks_alive_surviving":
                sum(1 for _, kind in t_table.values()
                    if kind == alive),
            "checks_alive_executed":
                t_res.cost.check_events().get(alive, 0),
            "cured_cycles": t_res.cycles,
            "overhead_pct": round(overhead, 4),
        }

    table = site_table(cured.prog)
    sites = [SiteStat(site, fn, kind, hits.get(site, 0))
             for site, (fn, kind) in sorted(table.items())]
    function_hits: dict[str, int] = {}
    for s in sites:
        function_hits[s.function] = (function_hits.get(s.function, 0)
                                     + s.hits)

    return WorkloadMetrics(
        name=w.name,
        category=w.category,
        scale=scale if scale is not None else w.scale,
        lines=count_lines(cached_source(w)),
        engine=engine,
        optimize=cured.optimize_level,
        kind_pct=cured.kind_percentages(),
        checks_emitted={k.value: v
                        for k, v in sorted(cured.check_counts.items(),
                                           key=lambda kv: kv[0].value)},
        checks_removed=cured.checks_removed,
        checks_surviving=len(table),
        raw_cycles=raw_res.cycles,
        cured_cycles=cured_res.cycles,
        raw_steps=raw_res.steps,
        cured_steps=cured_res.steps,
        checks_executed=cured_res.checks_executed,
        check_events={k: v for k, v in
                      sorted(cured_res.cost.check_events().items())},
        sites=sites,
        function_hits=function_hits,
        phases=phases,
        root_causes=root_causes,
        temporal=temporal_stats,
    )


# -- rendering ---------------------------------------------------------------


def render_report(report: MetricsReport, top_sites: int = 5) -> str:
    """A fixed-width per-workload table plus, per workload, its
    hottest check sites — the Figure-8 reading of the data."""
    header = (f"{'workload':<18} {'lines':>6} {'sf/sq/w/rt':<14} "
              f"{'ratio':>6} {'emitted':>8} {'elided':>7} "
              f"{'survive':>8} {'executed':>9}")
    lines = [f"engine: {report.engine}   optimize: {report.optimize}",
             header, "-" * len(header)]
    for wm in report.workloads:
        p = wm.kind_pct
        sq = p.get("seq", 0.0) + p.get("fseq", 0.0)
        kinds = (f"{p.get('safe', 0.0) * 100:.0f}/{sq * 100:.0f}/"
                 f"{p.get('wild', 0.0) * 100:.0f}/"
                 f"{p.get('rtti', 0.0) * 100:.0f}")
        lines.append(
            f"{wm.name:<18} {wm.lines:>6} {kinds:<14} "
            f"{wm.ccured_ratio:>6.2f} "
            f"{sum(wm.checks_emitted.values()):>8} "
            f"{wm.checks_removed:>7} {wm.checks_surviving:>8} "
            f"{wm.checks_executed:>9}")
    t = report.totals()
    lines.append("-" * len(header))
    lines.append(f"{'TOTAL':<18} {'':>6} {'':<14} {'':>6} "
                 f"{t['checks_emitted']:>8} {t['checks_removed']:>7} "
                 f"{t['checks_surviving']:>8} "
                 f"{t['checks_executed']:>9}")
    if top_sites > 0:
        lines.append("")
        lines.append(f"hottest {top_sites} check sites per workload:")
        for wm in report.workloads:
            hot = sorted(wm.sites, key=lambda s: (-s.hits, s.site))
            hot = [s for s in hot if s.hits > 0][:top_sites]
            if not hot:
                continue
            lines.append(f"  {wm.name}:")
            for s in hot:
                lines.append(f"    site {s.site:>4}  "
                             f"{s.kind:<22} {s.function:<20} "
                             f"{s.hits:>9} hits")
    if any(wm.temporal for wm in report.workloads):
        lines.append("")
        thdr = (f"{'workload':<18} {'alive emit':>10} "
                f"{'survive':>8} {'executed':>9} "
                f"{'cycles':>12} {'overhead':>9}")
        lines.append("temporal checking (CureOptions.temporal):")
        lines.append(thdr)
        lines.append("-" * len(thdr))
        for wm in report.workloads:
            t = wm.temporal
            if not t:
                continue
            lines.append(
                f"{wm.name:<18} {t['checks_alive_emitted']:>10} "
                f"{t['checks_alive_surviving']:>8} "
                f"{t['checks_alive_executed']:>9} "
                f"{t['cured_cycles']:>12} "
                f"{t['overhead_pct']:>8.2f}%")
    if any(wm.phases for wm in report.workloads):
        lines.append("")
        lines.append("per-phase wall time (seconds, non-deterministic):")
        agg: dict[str, float] = {}
        for wm in report.workloads:
            for k, v in wm.phases.items():
                agg[k] = agg.get(k, 0.0) + v
        for k in sorted(agg):
            lines.append(f"  {k:<20} {agg[k]:8.3f}s")
    return "\n".join(lines)

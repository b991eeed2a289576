"""Drivers for every sweep the CLI runs, plus the ``repro sweep``
matrix driver.

Each ``sharded_*`` function builds one ``(kind, kwargs)`` task per
workload, hands the list to :func:`repro.sweep.runner.run_sharded`
and merges the results in task order.  There is no serial twin:
``jobs=1`` runs the same tasks inline, so the serialized output is
byte-identical at every ``jobs`` value (the property the CI
determinism steps ``cmp``), progress fires once per finished shard
with the same line, and the drivers ``run_sweep`` calls take a
``trace`` list that receives every shard's spans.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.sweep.runner import resolve_jobs, run_sharded

Progress = Optional[Callable[[str], None]]


def _sweep(tasks: list, jobs, progress: Progress,
           line: Callable[[dict, Any], str],
           trace: Optional[list]) -> list:
    """Run ``tasks`` on the pool; ``line(kwargs, result)`` is the
    progress message of one finished shard."""
    note = (None if progress is None else
            lambda kind, kwargs, result: progress(line(kwargs, result)))
    return run_sharded(tasks, jobs, note, span_sink=trace)


# -- per-command drivers -----------------------------------------------------


def sharded_metrics(workloads: Sequence, *, engine: str = "closures",
                    optimize: Optional[str] = None,
                    scale: Optional[int] = None,
                    timing: bool = False, provenance: bool = False,
                    temporal: bool = False,
                    trace: Optional[list] = None,
                    jobs=None, progress: Progress = None):
    """A :class:`~repro.obs.metrics.MetricsReport` over ``workloads``
    (ordered by name), one workload per shard.  ``trace`` collects
    every shard's span records, merged onto this process's timeline
    (:func:`~repro.sweep.runner.run_task_traced`); the report bytes
    never depend on it."""
    from repro.obs.metrics import MetricsReport
    tasks = [("metrics", dict(name=w.name, engine=engine,
                              optimize=optimize, scale=scale,
                              timing=timing, provenance=provenance,
                              temporal=temporal))
             for w in sorted(workloads, key=lambda w: w.name)]
    report = MetricsReport(
        engine=engine,
        optimize=optimize if optimize is not None else "flow",
        scale=scale)
    report.workloads = _sweep(
        tasks, jobs, progress,
        lambda kw, wm: (f"{wm.name:>18}  ratio {wm.ccured_ratio:5.2f}x"
                        f"  checks {wm.checks_executed}"),
        trace)
    return report


def sharded_lint(workloads: Sequence, *, optimize: str = "flow",
                 scale: Optional[int] = None, jobs=None,
                 progress: Progress = None,
                 trace: Optional[list] = None) -> list:
    """Per-workload :class:`LintReport`s in input order."""
    tasks = [("lint", dict(name=w.name, optimize=optimize,
                           scale=scale)) for w in workloads]
    return _sweep(tasks, jobs, progress,
                  lambda kw, r: f"linted {kw['name']}", trace)


def sharded_campaign(seed: int, campaign: str = "smoke", *,
                     workloads: Optional[Sequence[str]] = None,
                     classes: Optional[Sequence[str]] = None,
                     scale: Optional[int] = None,
                     optimize: Optional[str] = None,
                     jobs=None, progress: Progress = None,
                     trace: Optional[list] = None):
    """A :class:`CampaignReport`, one workload per shard (every
    mutation class of that workload runs in its shard).  A bad
    selection raises before any shard runs."""
    from repro.faults.campaign import CampaignReport, select_campaign
    names, mclasses = select_campaign(campaign, workloads=workloads,
                                      classes=classes)
    tasks = [("campaign", dict(name=name, seed=seed, classes=mclasses,
                               scale=scale, optimize=optimize))
             for name in names]
    report = CampaignReport(seed=seed, campaign=campaign, scale=scale,
                            classes=mclasses, optimize=optimize)
    for variants in _sweep(
            tasks, jobs, progress,
            lambda kw, vs: (f"{kw['name']:>18} "
                            f"{sum(v.caught for v in vs)}/{len(vs)} "
                            "caught"),
            trace):
        report.variants.extend(variants)
    return report


def sharded_analyze(workloads: Sequence, *,
                    scale: Optional[int] = None, jobs=None,
                    progress: Progress = None,
                    trace: Optional[list] = None) -> list[dict]:
    """Per-workload ``repro analyze`` stats dicts in input order."""
    tasks = [("analyze", dict(name=w.name, scale=scale))
             for w in workloads]
    return _sweep(tasks, jobs, progress,
                  lambda kw, r: f"analyzed {kw['name']}", trace)


def sharded_lintval(seed: int = 1, *,
                    workloads: Optional[Sequence] = None,
                    classes: Optional[Sequence[str]] = None,
                    optimize: str = "flow",
                    scale: Optional[int] = None, jobs=None,
                    progress: Progress = None):
    """The lint-validation differential over ``workloads`` (default:
    all), one workload per shard.  The selection is checked like a
    campaign's, before any shard runs."""
    from repro.faults.campaign import select_campaign
    from repro.faults.lintval import aggregate_validation
    names, cs = select_campaign(
        None, classes=classes,
        workloads=(None if workloads is None
                   else [w.name for w in workloads]))
    tasks = [("lintval", dict(name=name, classes=cs, seed=seed,
                              optimize=optimize, scale=scale))
             for name in names]
    results = _sweep(
        tasks, jobs, progress,
        lambda kw, vs: (f"lintval {kw['name']}: "
                        f"{sum(v.hit for v in vs)} hits"),
        None)
    return aggregate_validation(seed, optimize, cs,
                                [v for vs in results for v in vs])


# -- the full-matrix driver (`repro sweep`) ----------------------------------


@dataclass
class SweepArtifact:
    """One artifact of a matrix sweep (one output file)."""

    name: str                # e.g. "metrics-closures-flow"
    kind: str                # metrics | lint | campaign | analyze
    seconds: float
    ok: bool
    detail: str
    path: Optional[str] = None

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "seconds": round(self.seconds, 3), "ok": self.ok,
                "detail": self.detail, "path": self.path}


@dataclass
class SweepSummary:
    """Everything ``repro sweep`` ran, plus cache traffic."""

    jobs: int
    artifacts: list[SweepArtifact] = field(default_factory=list)
    cache: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.artifacts)

    def to_json(self) -> dict:
        return {"jobs": self.jobs, "ok": self.ok,
                "artifacts": [a.to_json() for a in self.artifacts],
                "cache": self.cache}

    def render(self) -> str:
        lines = [f"sweep: {len(self.artifacts)} artifacts, "
                 f"jobs={self.jobs}, "
                 f"{'ok' if self.ok else 'FAILURES'}"]
        width = max((len(a.name) for a in self.artifacts),
                    default=4)
        for a in self.artifacts:
            mark = "ok " if a.ok else "FAIL"
            lines.append(f"  {a.name:<{width}}  {mark} "
                         f"{a.seconds:7.2f}s  {a.detail}")
        if self.cache is not None:
            c = self.cache
            lines.append(f"  cure cache: {c['hits']} hits, "
                         f"{c['misses']} misses, "
                         f"{c['stores']} stores this sweep")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Cell:
    """One artifact of the matrix: a driver call awaiting ``jobs``,
    ``progress`` and ``trace``, and how to read its result."""

    name: str                # artifact name
    kind: str                # metrics | lint | campaign | analyze
    shards: int
    run: Callable[..., Any]
    dumps: Callable[[Any], str]                 # the artifact's text
    verdict: Callable[[Any], tuple[bool, str]]  # (ok, detail)


def _sweep_cells(targets: Sequence[str], engines: Sequence[str],
                 levels: Sequence[Optional[str]], *, seed: int = 1337,
                 campaign: str = "smoke",
                 scale: Optional[int] = None) -> list[_Cell]:
    """The matrix, enumerated once: one cell per artifact, in run
    order.  An unknown target or campaign raises here, before any
    cell runs."""
    import json

    from repro.analysis import reports_json
    from repro.faults.campaign import select_campaign
    from repro.faults.report import report_to_json
    from repro.obs.serialize import stable_dumps
    from repro.workloads import UnknownSelection, all_workloads

    ws = list(all_workloads())
    cells: list[_Cell] = []
    for target in targets:
        if target == "metrics":
            cells += [_Cell(
                f"metrics-{engine}-{level or 'flow'}", "metrics",
                len(ws),
                partial(sharded_metrics, ws, engine=engine,
                        optimize=level, scale=scale),
                lambda r: stable_dumps(r.to_json()),
                lambda r: (True, f"{len(r.workloads)} workloads"))
                for engine in engines for level in levels]
        elif target == "lint":
            cells += [_Cell(
                f"lint-{level or 'flow'}", "lint", len(ws),
                partial(sharded_lint, ws, optimize=level or "flow",
                        scale=scale),
                reports_json,
                lambda rs: (True, f"{sum(len(r.diagnostics) for r in rs)}"
                                  " findings"))
                for level in levels]
        elif target == "campaign":
            names, _ = select_campaign(campaign)
            cells += [_Cell(
                f"faults-{campaign}-{level or 'flow'}", "campaign",
                len(names),
                partial(sharded_campaign, seed, campaign, scale=scale,
                        optimize=level),
                report_to_json,
                lambda r: (r.ok, f"{r.caught}/{r.injected} caught"))
                for level in levels]
        elif target == "analyze":
            cells.append(_Cell(
                "analyze", "analyze", len(ws),
                partial(sharded_analyze, ws, scale=scale),
                lambda stats: json.dumps(stats, indent=2,
                                         sort_keys=True) + "\n",
                lambda stats: (True, f"{len(stats)} workloads")))
        else:
            raise UnknownSelection(
                f"unknown sweep target {target!r} (known: metrics, "
                "lint, campaign, analyze)")
    return cells


def count_sweep_shards(*, targets: Sequence[str],
                       engines: Sequence[str],
                       levels: Sequence[Optional[str]],
                       campaign: str = "smoke") -> int:
    """How many shard tasks :func:`run_sweep` will dispatch for this
    selection — the denominator of a live progress line."""
    return sum(c.shards for c in _sweep_cells(targets, engines, levels,
                                              campaign=campaign))


def run_sweep(*, targets: Sequence[str] = ("metrics", "lint",
                                           "campaign"),
              engines: Sequence[str] = ("closures",),
              levels: Sequence[Optional[str]] = ("flow",),
              jobs=None, out_dir: Optional[str] = None,
              seed: int = 1337, campaign: str = "smoke",
              scale: Optional[int] = None,
              progress: Progress = None,
              shard_progress: Progress = None,
              trace: Optional[list] = None) -> SweepSummary:
    """Run the workload × engine × optimize matrix for the selected
    targets, sharding every sweep across ``jobs`` workers, and write
    one deterministic JSON artifact per matrix cell.

    ``shard_progress`` fires once per completed shard (per workload
    cell) — the hook the CLI's ``--progress`` line hangs off.  With
    ``trace`` a list, the whole sweep runs under span capture: the
    parent contributes one ``dispatch`` span per artifact and every
    shard ships its pipeline spans back (real pid/tid lanes), so one
    Chrome trace shows dispatch, per-shard parse/cure/exec, and cache
    hit/miss events across the entire pool."""
    from repro.cache import get_cache
    from repro.obs.tracer import TRACER

    cells = _sweep_cells(targets, engines, levels, seed=seed,
                         campaign=campaign, scale=scale)
    n = resolve_jobs(jobs)
    summary = SweepSummary(jobs=n)
    # Cache traffic is measured through the persistent (cross-
    # process) counters so shard traffic counts under jobs > 1.
    disk = get_cache()
    base = disk._read_counters()

    def emit(name: str, text: str) -> Optional[str]:
        if out_dir is None:
            return None
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def body() -> None:
        for cell in cells:
            t0 = time.perf_counter()
            with TRACER.span("dispatch", artifact=cell.name, jobs=n):
                result = cell.run(jobs=n, progress=shard_progress,
                                  trace=trace)
            dt = time.perf_counter() - t0
            ok, detail = cell.verdict(result)
            summary.artifacts.append(SweepArtifact(
                name=cell.name, kind=cell.kind, seconds=dt, ok=ok,
                detail=detail, path=emit(cell.name, cell.dumps(result))))
            if progress is not None:
                progress(f"{cell.name}: {dt:.2f}s")

    if trace is None:
        body()
    else:
        # Dispatch spans record into the parent's capture; every
        # shard's spans arrive through the drivers' span sinks,
        # rebased onto the same tracer epoch — one merged timeline.
        with TRACER.capture() as parent_records:
            body()
        trace.extend(parent_records)

    after = disk._read_counters()
    summary.cache = {k: after.get(k, 0) - base.get(k, 0)
                     for k in ("hits", "misses", "stores")}
    return summary

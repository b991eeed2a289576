"""Drivers for every sweep the CLI runs.

Each ``sharded_*`` function builds one ``(kind, kwargs)`` task per
workload, hands the list to :func:`repro.sweep.runner.run_sharded`
and merges the results in task order.  There is no serial twin:
``jobs=1`` runs the same tasks inline, so the serialized output is
byte-identical at every ``jobs`` value (the property the CI
determinism steps ``cmp``), and progress fires once per finished
shard with the same line.  :func:`sharded_metrics` also takes a
``trace`` list that receives every shard's spans (``repro metrics
--trace``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.sweep.runner import run_sharded

Progress = Optional[Callable[[str], None]]


def _sweep(tasks: list, jobs, progress: Progress,
           line: Callable[[dict, Any], str],
           trace: Optional[list] = None) -> list:
    """Run ``tasks`` on the pool; ``line(kwargs, result)`` is the
    progress message of one finished shard."""
    note = (None if progress is None else
            lambda kind, kwargs, result: progress(line(kwargs, result)))
    return run_sharded(tasks, jobs, note, span_sink=trace)


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
                 progress: Progress = None) -> list:
    """Per-workload :class:`LintReport`s in input order."""
    tasks = [("lint", dict(name=w.name, optimize=optimize,
                           scale=scale)) for w in workloads]
    return _sweep(tasks, jobs, progress,
                  lambda kw, r: f"linted {kw['name']}")


def sharded_campaign(seed: int, campaign: str = "smoke", *,
                     workloads: Optional[Sequence[str]] = None,
                     classes: Optional[Sequence[str]] = None,
                     scale: Optional[int] = None,
                     optimize: Optional[str] = None,
                     jobs=None, progress: Progress = None):
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
                            "caught")):
        report.variants.extend(variants)
    return report


def sharded_analyze(workloads: Sequence, *,
                    scale: Optional[int] = None, jobs=None,
                    progress: Progress = None) -> list[dict]:
    """Per-workload ``repro analyze`` stats dicts in input order."""
    tasks = [("analyze", dict(name=w.name, scale=scale))
             for w in workloads]
    return _sweep(tasks, jobs, progress,
                  lambda kw, r: f"analyzed {kw['name']}")


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
                        f"{sum(v.hit for v in vs)} hits"))
    return aggregate_validation(seed, optimize, cs,
                                [v for vs in results for v in vs])

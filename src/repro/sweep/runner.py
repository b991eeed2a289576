"""The multiprocess shard pool: picklable tasks, ordered results.

A sweep is a list of ``(kind, kwargs)`` tasks — one per workload —
dispatched to a :class:`concurrent.futures.ProcessPoolExecutor`.
Everything about the machinery is chosen for determinism:

* task functions are module-level (picklable under every start
  method) and take only plain data, so a shard re-runs identically in
  any process;
* results land in a list indexed by submission order, so the merge
  never sees completion order — a sweep's serialized output is
  byte-identical at every ``jobs`` value;
* every shard shares the content-addressed cure cache
  (:mod:`repro.cache`), so N workers curing the same 27 workloads pay
  each parse/cure once across the whole pool.

``jobs <= 1`` bypasses the pool and runs the same task functions
inline, with the same progress and span-sink callbacks — there is no
separate serial path.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Optional, Sequence, Union

Task = tuple[str, dict]


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalize a ``--jobs`` value: ``None`` → 1 (serial),
    ``"auto"``/0 → every core, numeric strings pass through."""
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        s = jobs.strip().lower()
        if s in ("auto", ""):
            jobs = 0
        else:
            jobs = int(s)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# -- shard bodies ------------------------------------------------------------
#
# One function per sweep kind.  Each takes plain data (workload names,
# option scalars), resolves it inside the worker, and returns picklable
# results; the parent merges them in submission order.


def _task_metrics(name: str, engine: str, optimize: Optional[str],
                  scale: Optional[int], timing: bool,
                  provenance: bool, temporal: bool) -> Any:
    from repro.obs.metrics import collect_workload_metrics
    from repro.workloads import get
    return collect_workload_metrics(
        get(name), engine=engine, optimize=optimize, scale=scale,
        timing=timing, provenance=provenance, temporal=temporal)


def _task_lint(name: str, optimize: str,
               scale: Optional[int]) -> Any:
    from repro.analysis import lint_workload
    from repro.workloads import get
    return lint_workload(get(name), optimize=optimize, scale=scale)


def _task_campaign(name: str, seed: int, classes: Sequence[str],
                   scale: Optional[int],
                   optimize: Optional[str]) -> Any:
    from repro.faults.campaign import campaign_workload
    from repro.workloads import get
    return campaign_workload(get(name), classes, seed, scale=scale,
                             optimize=optimize)


def _task_analyze(name: str, scale: Optional[int]) -> Any:
    from repro.analysis import analyze_workload
    from repro.workloads import get
    return analyze_workload(get(name), scale=scale)


def _task_lintval(name: str, classes: Sequence[str], seed: int,
                  optimize: str, scale: Optional[int]) -> Any:
    from repro.faults.lintval import validate_workload
    from repro.workloads import get
    return validate_workload(get(name), classes, seed,
                             optimize=optimize, scale=scale)


_TASKS: dict[str, Callable[..., Any]] = {
    "metrics": _task_metrics,
    "lint": _task_lint,
    "campaign": _task_campaign,
    "analyze": _task_analyze,
    "lintval": _task_lintval,
}


def run_task(kind: str, kwargs: dict) -> Any:
    """Execute one shard (also the pool's remote entry point)."""
    return _TASKS[kind](**kwargs)


def run_task_traced(kind: str, kwargs: dict) -> tuple[Any, list]:
    """Execute one shard under span capture (the pool's remote entry
    point when the parent is collecting a cross-process trace).

    Every span the shard's pipeline emits — parse, cure, solve,
    dataflow, exec, cache load/store — is captured and shipped back in
    wire form (absolute wall-clock starts, real pid/tid), wrapped in
    one ``shard`` span so the worker's task boundary is visible on the
    merged timeline.  Tracing happens *around* the task function, so a
    traced shard returns byte-identical results to an untraced one."""
    from repro.obs.tracer import TRACER, spans_to_wire
    with TRACER.capture() as records:
        with TRACER.span("shard", kind=kind,
                         name=kwargs.get("name")):
            result = run_task(kind, kwargs)
    wire = spans_to_wire(records)
    name = kwargs.get("name")
    if name is not None:
        for w in wire:
            w["attrs"].setdefault("workload", name)
    return result, wire


def _mp_context():
    """Prefer ``fork`` (cheap workers that inherit warm in-process
    caches); fall back to ``spawn`` where fork is unavailable.  The
    start method can never affect results — shards return pure data —
    so ``REPRO_MP_START=spawn|fork|forkserver`` may force one (tests
    exercise the spawn path on platforms whose default is fork)."""
    methods = multiprocessing.get_all_start_methods()
    forced = os.environ.get("REPRO_MP_START", "").strip().lower()
    if forced in methods:
        return multiprocessing.get_context(forced)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _ensure_child_path() -> None:
    """Make sure spawned workers can import ``repro`` even when the
    parent got it from a bare ``sys.path`` entry (pytest, editors)."""
    import repro
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)


def run_sharded(tasks: Sequence[Task], jobs: Union[int, str, None],
                progress: Optional[Callable[[str, dict, Any], None]]
                = None,
                span_sink: Optional[list] = None) -> list:
    """Run every task, ``jobs`` at a time, returning results in task
    order (never completion order).  A shard that raises aborts the
    sweep with the original exception; ``progress`` fires once per
    completed shard.

    With ``span_sink`` a list, every shard runs under span capture
    (:func:`run_task_traced`) — serial and pooled alike — and the
    captured records land in the sink in *task order*, rebased onto
    this process's tracer epoch, so a merged Chrome trace covers every
    worker with real pid/tid lanes.  Tracing never changes results:
    the sink only adds observability on the side."""
    if not tasks:
        return []
    from repro.obs.tracer import TRACER, spans_from_wire
    n = min(resolve_jobs(jobs), len(tasks))
    anchor = TRACER.epoch_wall() if span_sink is not None else 0.0
    if n <= 1:
        out = []
        for kind, kwargs in tasks:
            if span_sink is not None:
                result, wire = run_task_traced(kind, kwargs)
                span_sink.extend(spans_from_wire(wire, anchor))
            else:
                result = run_task(kind, kwargs)
            if progress is not None:
                progress(kind, kwargs, result)
            out.append(result)
        return out
    _ensure_child_path()
    results: list = [None] * len(tasks)
    wires: list = [None] * len(tasks)
    entry = run_task if span_sink is None else run_task_traced
    with ProcessPoolExecutor(max_workers=n,
                             mp_context=_mp_context()) as pool:
        futures = {pool.submit(entry, kind, kwargs): i
                   for i, (kind, kwargs) in enumerate(tasks)}
        for fut in as_completed(futures):
            i = futures[fut]
            got = fut.result()
            if span_sink is not None:
                results[i], wires[i] = got
            else:
                results[i] = got
            if progress is not None:
                kind, kwargs = tasks[i]
                progress(kind, kwargs, results[i])
    if span_sink is not None:
        for wire in wires:
            if wire:
                span_sink.extend(spans_from_wire(wire, anchor))
    return results

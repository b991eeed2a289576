"""The parent side of the benchmark: spawn one fresh child per repeat,
pool what the children measured, and print every metric by name with
its unit.

A run of a workload primes what the workload needs (exec_warm's cure
cache), then runs its repeats, each in a new interpreter
(:mod:`perf.child`).  The traced layer run (:func:`trace`) runs each
workload once plain, once under the layer timers and, for exec_warm
and fault_campaign, once under cProfile; the per-layer metrics and the
timers' overhead come from those children.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Optional

from perf import RESULTS_DIR, ROOT, SRC, WORK_DIR, WORKLOADS

RECORD_SCHEMA = "perf.record/1"

#: end-to-end metrics: name -> unit (all lower-is-better)
E2E = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms",
       "op_ms_p90": "ms", "peak_rss_mb": "MB"}

#: per-layer metrics of the traced run: name -> unit
LAYER = {
    "cpp.preprocess_s": "s", "cpp.out_kb": "KiB", "harness.copy_s": "s",
    "frontend.parse_s": "s", "frontend.lower_s": "s",
    "core.constraints_s": "s", "core.solve_s": "s", "core.split_s": "s",
    "core.instrument_s": "s", "core.checks_emitted": "count",
    "analysis.flow_s": "s", "analysis.checks_removed": "count",
    "analysis.elision_ratio": "ratio", "analysis.lint_s": "s",
    "analysis.diagnostics": "count",
    "cache.load_s": "s", "cache.hits": "count", "cache.misses": "count",
    "cache.store_s": "s", "cache.stores": "count",
    "cache.stored_kb": "KiB",
    "interp.run_s": "s", "interp.compile_s": "s", "interp.steps": "count",
    "interp.steps_per_s": "1/s", "interp.tree_steps_per_s": "1/s",
    "interp.cycles_raw": "count", "interp.cycles_cured": "count",
    "interp.checks_executed": "count",
    "prof.interp.compile_pct": "%", "prof.interp.compile_calls": "count",
    "prof.interp.host_pct": "%", "prof.interp.host_calls": "count",
    "prof.runtime.memory_pct": "%", "prof.runtime.memory_calls": "count",
    "prof.runtime.values_pct": "%", "prof.runtime.values_calls": "count",
    "prof.runtime.libc_pct": "%", "prof.runtime.libc_calls": "count",
    "prof.runtime.cost_pct": "%", "prof.runtime.cost_calls": "count",
    "prof.builtins_pct": "%", "prof.builtins_calls": "count",
    "faults.copy_s": "s", "faults.graft_s": "s", "faults.cure_s": "s",
    "faults.run_closures_s": "s", "faults.run_tree_s": "s",
    "faults.run_raw_s": "s", "faults.caught": "count",
    "faults.engines_agree": "count", "prof.copy_pct": "%",
    "sweep.first_result_s": "s", "sweep.serial_work_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "proc.import_s": "s", "trace_overhead_pct": "%",
}

#: cProfile fold key (perf.layers.module_of) of each prof.* metric
PROF_MODULES = {"interp.compile": "interp.compile",
                "interp.host": "interp.interp",
                "runtime.memory": "runtime.memory",
                "runtime.values": "runtime.values",
                "runtime.libc": "runtime.libc",
                "runtime.cost": "runtime.cost",
                "builtins": "builtins"}

#: seconds one repeat takes on the reference machine (2 cores); with
#: ``--seconds T`` a run makes round(T / nominal) repeats
NOMINAL_S = {"exec_warm": 6.5, "frontend_cold": 4.7, "sweep_cold": 7.0,
             "fault_campaign": 5.9}
#: enough repeats for >= 100 op samples, so that p90 has at least ten
#: samples beyond it, and a median of at least three (five where a
#: few long ops made a median of three move by 11%)
MIN_REPEATS = {"exec_warm": 5, "frontend_cold": 3, "sweep_cold": 4,
               "fault_campaign": 5}
#: workloads that run with the cure cache off
CACHE_OFF = ("frontend_cold", "fault_campaign")
CHILD_TIMEOUT_S = 150
#: fingerprint fields that must match for two records to be compared
COMPARABLE = ("python", "implementation", "platform", "nproc", "cpu")


class ChildFailed(RuntimeError):
    """A child exited non-zero or timed out; no result is printed."""


def repeats_for(workload: str, seconds: float) -> int:
    return max(MIN_REPEATS[workload], round(seconds / NOMINAL_S[workload]))


# -- fingerprint -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> Optional[str]:
    """HEAD's commit, read from .git without running git (the
    benchmark's checkout need not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "git_rev": _git_rev(),
            "loadavg": list(os.getloadavg())}


def check_comparable(a: dict, b: dict) -> None:
    """Refuse to compare records measured on different machines or
    interpreters (git rev and load average may differ)."""
    diff = [k for k in COMPARABLE if a.get(k) != b.get(k)]
    if diff:
        raise ValueError("records have different fingerprints ("
                         + ", ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}"
                                     for k in diff)
                         + "); refusing to compare them")


# -- children ----------------------------------------------------------------


class Workspace:
    """A run's scratch directory under perf/.work, removed on exit."""

    def __init__(self) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.path = os.path.join(WORK_DIR, f"{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.path)
        self.n = 0

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def new_cache(self) -> str:
        self.n += 1
        return os.path.join(self.path, f"cache-{self.n}")

    def spawn(self, workload: str, seed: int, mode: str, cache_dir: str,
              trace: bool = False, limit: Optional[int] = None) -> dict:
        """Run one child to completion and return its result."""
        self.n += 1
        spec_path = os.path.join(self.path, f"spec-{self.n}.json")
        spec = {"workload": workload, "seed": seed, "mode": mode,
                "trace": trace, "limit": limit,
                "out": os.path.join(self.path, f"out-{self.n}.json")}
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC         # this checkout's program only
        env["REPRO_CACHE_DIR"] = cache_dir
        env.pop("REPRO_MP_START", None)
        if workload in CACHE_OFF:
            env["REPRO_CACHE"] = "off"
        else:
            env.pop("REPRO_CACHE", None)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perf.child", spec_path,
             repr(t_spawn)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise ChildFailed(f"{workload} {mode} child timed out after "
                              f"{CHILD_TIMEOUT_S}s") from None
        finally:
            _kill_group(proc.pid)       # pool workers it may have left
        if proc.returncode != 0:
            raise ChildFailed(f"{workload} {mode} child exited "
                              f"{proc.returncode}:\n{err[-3000:]}")
        with open(spec["out"], encoding="utf-8") as f:
            return json.load(f)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- end-to-end runs ---------------------------------------------------------


def quantile(samples: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p``-quantile: the mean of
    all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass over each one's slot.  Where ops of different programs leave
    gaps in the sorted samples it moves smoothly, instead of jumping
    between the two samples beside ``p`` (which moved exec_warm's p90
    by 12% between runs)."""
    x = sorted(samples)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    steps = 64 * n                  # midpoint rule, 64 points per slot
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k // 64] += math.exp(log_norm + (a - 1) * math.log(t)
                                     + (b - 1) * math.log1p(-t))
    return math.fsum(w * v for w, v in zip(weights, x)) / math.fsum(weights)


def _checked(children: list[dict]) -> tuple[int, list[str]]:
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    return attempted, failures


def _exact_of(children: list[dict]) -> tuple[dict, list[str]]:
    """The exact metrics, which every repeat must reproduce, and the
    complaint when one does not."""
    values = {json.dumps(c["exact"], sort_keys=True) for c in children}
    if len(values) > 1:
        return {}, [f"exact metrics differ between repeats: "
                    f"{sorted(values)}"]
    return dict(children[0]["exact"]), []


def run_workload(workload: str, seed: int, repeats: int,
                 limit: Optional[int] = None) -> dict:
    """Measure ``repeats`` fresh-process repeats of one workload."""
    with Workspace() as ws:
        cache = ws.new_cache()
        if workload == "exec_warm":
            ws.spawn(workload, seed, "prime", cache, limit=limit)
        children = []
        for _ in range(repeats):
            if workload == "sweep_cold":
                cache = ws.new_cache()
            children.append(ws.spawn(workload, seed, "plain", cache,
                                     limit=limit))
    return aggregate(workload, seed, children)


def aggregate(workload: str, seed: int, children: list[dict]) -> dict:
    """One run's record from its repeats' child results."""
    pooled = [ms for c in children for ms in c["op_ms"]]
    attempted, failures = _checked(children)
    exact, differ = _exact_of(children)
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": statistics.median(c["wall_s"] for c in children),
        "op_ms_p50": quantile(pooled, 0.5),
        "op_ms_p90": quantile(pooled, 0.9),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"]
                                         for c in children),
    }
    exact["failed_ops_pct"] = 100.0 * len(failures) / max(attempted, 1)
    return {"schema": RECORD_SCHEMA, "kind": "run", "workload": workload,
            "seed": seed, "repeats": len(children),
            "fingerprint": fingerprint(),
            "metrics": {k: {"value": v, "unit": E2E[k]}
                        for k, v in values.items()},
            "op_samples": len(pooled), "exact": exact,
            "attempted": attempted, "failed": len(failures),
            "failures": (differ + failures)[:20],
            "correct": not (failures or differ),
            "raw": {"setup_s": statistics.median(
                        c["setup_raw_s"] for c in children),
                    "wall_s": statistics.median(
                        c["wall_raw_s"] for c in children)},
            "per_repeat": [{k: c[k] for k in
                            ("setup_s", "setup_raw_s", "wall_s",
                             "wall_raw_s", "speed", "peak_rss_mb",
                             "import_s")} for c in children]}


# -- the traced layer run ----------------------------------------------------


def _need(table: dict, key: str, where: str):
    """A measured value that must exist: a wrapped entry point that
    never ran fails the traced run instead of reading 0."""
    try:
        return table[key]
    except KeyError:
        raise LookupError(f"{where}: {key!r} was never measured; did a "
                          "wrapped function stop being called?") from None


def layer_metrics(sections: dict) -> dict:
    """Every per-layer metric, from the traced children's results
    (``sections[workload][mode]``)."""
    out: dict = {}
    timed = {w: sec["timers"] for w, sec in sections.items()}
    fe = timed["frontend_cold"]["layers"]
    s, c = fe["seconds"], fe["counts"]
    where = "frontend_cold"
    out["cpp.preprocess_s"] = _need(s, "cpp.preprocess", where)
    out["cpp.out_kb"] = _need(c, "cpp.preprocess.out_bytes", where) / 1024
    out["frontend.parse_s"] = _need(s, "frontend.parse", where)
    out["frontend.lower_s"] = _need(s, "frontend.lower", where)
    out["harness.copy_s"] = _need(s, "harness.copy", where)
    for stage in ("constraints", "solve", "split", "instrument"):
        out[f"core.{stage}_s"] = _need(s, f"core.{stage}", where)
    emitted = _need(c, "core.instrument.checks", where)
    removed = _need(c, "analysis.flow.removed", where)
    out["core.checks_emitted"] = emitted
    out["analysis.flow_s"] = _need(s, "analysis.flow", where)
    out["analysis.checks_removed"] = removed
    out["analysis.elision_ratio"] = removed / emitted
    out["analysis.lint_s"] = _need(s, "analysis.lint", where)
    out["analysis.diagnostics"] = _need(c, "analysis.lint.diagnostics",
                                        where)

    ex = timed["exec_warm"]
    s, c, x = ex["layers"]["seconds"], ex["layers"]["counts"], ex["extras"]
    where = "exec_warm"
    out["cache.load_s"] = _need(s, "cache.load", where)
    out["cache.hits"] = _need(c, "cache.load.hits", where)
    out["cache.misses"] = _need(c, "cache.load.misses", where)
    run_s = _need(s, "interp.raw", where) + _need(s, "interp.cured", where)
    compile_s = _need(s, "interp.compile", where)
    steps = (_need(c, "interp.raw.steps", where)
             + _need(c, "interp.cured.steps", where))
    out["interp.run_s"] = run_s
    out["interp.compile_s"] = compile_s
    out["interp.steps"] = steps
    out["interp.steps_per_s"] = steps / (run_s - compile_s)
    out["interp.tree_steps_per_s"] = x["tree_steps"] / x["tree_s"]
    out["interp.cycles_raw"] = _need(c, "interp.raw.cycles", where)
    out["interp.cycles_cured"] = _need(c, "interp.cured.cycles", where)
    out["interp.checks_executed"] = _need(c, "interp.cured.checks", where)
    prof = sections["exec_warm"]["profile"]["profile"]
    for name, module in PROF_MODULES.items():
        entry = _need(prof, module, "exec_warm profile")
        out[f"prof.{name}_pct"] = entry["pct"]
        out[f"prof.{name}_calls"] = entry["calls"]

    fa = timed["fault_campaign"]
    s = fa["layers"]["seconds"]
    where = "fault_campaign"
    for part in ("copy", "graft", "cure", "run_closures", "run_tree",
                 "run_raw"):
        out[f"faults.{part}_s"] = _need(s, f"faults.{part}", where)
    out["faults.caught"] = fa["tally"].get("caught", 0)
    out["faults.engines_agree"] = fa["tally"].get("engines_agree", 0)
    out["prof.copy_pct"] = _need(
        sections["fault_campaign"]["profile"]["profile"], "copy",
        "fault_campaign profile")["pct"]

    sw = timed["sweep_cold"]
    x = sw["extras"]
    out["sweep.first_result_s"] = x["first_result_s"]
    out["sweep.serial_work_s"] = x["serial_work_s"]
    out["sweep.parallel_efficiency"] = (x["serial_work_s"]
                                        / (x["jobs"] * sw["wall_raw_s"]))
    out["cache.store_s"] = x["store_s"]
    out["cache.stores"] = x["stores"]
    out["cache.stored_kb"] = x["stored_bytes"] / 1024

    plain = [sec["plain"] for sec in sections.values()]
    out["proc.import_s"] = statistics.median(c["import_s"] for c in plain)
    # the jobs=2 sweep varies by 10% between runs, more than any
    # overhead, so the overhead is taken over the single-process ones
    single = [w for w in sections if w != "sweep_cold"]
    plain_wall = sum(sections[w]["plain"]["wall_s"] for w in single)
    timed_wall = sum(timed[w]["wall_s"] for w in single)
    out["trace_overhead_pct"] = (100.0 * (timed_wall - plain_wall)
                                 / plain_wall)
    missing = set(LAYER) - set(out)
    if missing:
        raise LookupError(f"layer metrics not derived: {sorted(missing)}")
    return out


def trace(seed: int) -> dict:
    """The traced layer run: every workload at its traced size, once
    plain and once under the timers, then exec_warm and fault_campaign
    once under cProfile."""
    from perf.layers import dependencies
    sections: dict = {}
    with Workspace() as ws:
        for workload in WORKLOADS:
            cache = ws.new_cache()
            if workload == "exec_warm":
                ws.spawn(workload, seed, "prime", cache)
            modes = ["plain", "timers"]
            if workload in ("exec_warm", "fault_campaign"):
                modes.append("profile")
            sec = {}
            for mode in modes:
                if workload == "sweep_cold":
                    cache = ws.new_cache()
                sec[mode] = ws.spawn(workload, seed, mode, cache, trace=True)
            sections[workload] = sec
    children = [c for sec in sections.values() for c in sec.values()]
    attempted, failures = _checked(children)
    values = layer_metrics(sections)
    return {"schema": RECORD_SCHEMA, "kind": "trace", "seed": seed,
            "fingerprint": fingerprint(), "depends_on": dependencies(),
            "metrics": {k: {"value": values[k], "unit": LAYER[k]}
                        for k in LAYER},
            "attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "correct": not failures,
            "sections": {w: {m: {k: v for k, v in c.items()
                                 if k != "op_ms"}
                             for m, c in sec.items()}
                         for w, sec in sections.items()}}


# -- output ------------------------------------------------------------------


def driver_line(record: dict) -> str:
    """The one-line JSON result (the last line of stdout)."""
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def render(record: dict) -> str:
    if record["kind"] == "trace":
        lines = [f"traced layer run  seed={record['seed']}"]
    else:
        lines = [f"{record['workload']}  seed={record['seed']}  "
                 f"repeats={record['repeats']}  "
                 f"op samples={record['op_samples']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, value in record.get("raw", {}).items():
        lines.append(f"  {name + ' (raw)':<28} {value:>14.6g} s")
    for name, value in record.get("exact", {}).items():
        unit = "%" if name.endswith("_pct") else "ratio"
        lines.append(f"  {name:<28} {value!r:>14} {unit} (exact)")
    lines.append(f"  ops checked: {record['attempted']}, failed: "
                 f"{record['failed']}")
    return "\n".join(lines)


def write_result(record, prefix: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, time.strftime(
        f"{prefix}-%Y%m%d-%H%M%S.json"))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path

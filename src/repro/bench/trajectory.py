"""The benchmark-trajectory ledger: a pinned micro-suite, an
append-only history, and a noise-tolerant regression gate.

``repro bench`` re-runs the same pinned steps/sec micro-suite the
benchmark tests use (same workloads, same scales, same pristine-tree
machinery, both engines on both raw and cured programs) and appends
one schema-tagged record per run to ``BENCH_history.jsonl`` — a
trajectory, not a point.

``repro bench diff`` then gates a current record against a committed
baseline with the split the metrics gate taught us:

* **counts are exact** — steps, cycles, and exit status come from the
  deterministic cost model, so any drift is a real semantic change
  and fails outright;
* **wall ratios get slack** — absolute steps/sec depends on the
  machine, so the gate checks the *closures-vs-tree speedup ratio*
  (machine-normalized: both engines ran on the same box seconds
  apart) and only fails when it falls more than ``slack_pct`` below
  the baseline's.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Optional, Sequence

from repro.interp import Interpreter

#: schema tag stamped into every ledger record.
BENCH_SCHEMA = "repro.bench.trajectory/1"

#: the pinned micro-suite: (workload, scale) — pointer-heavy and
#: arithmetic-heavy representatives, scales matching
#: benchmarks/test_engine_speed.py so trees share the cure cache.
SUITE: tuple[tuple[str, int], ...] = (
    ("spec_compress", 3),
    ("spec_go", 2),
)

#: the CI smoke subset (one workload, both modes): fast enough for a
#: per-push gate, still covering cure + both engines.
QUICK_SUITE: tuple[tuple[str, int], ...] = (("spec_compress", 3),)

#: default ledger path (repo root) and committed baseline.
HISTORY_PATH = "BENCH_history.jsonl"
BASELINE_PATH = os.path.join("baselines", "bench-baseline.json")

MODES = ("cured", "raw")


def measure_cell(w, mode: str, engine: str,
                 scale: Optional[int]) -> dict:
    """One measurement: ``w`` under ``mode`` (raw/cured) on
    ``engine``, on the shared pristine tree (interpretation never
    mutates the IR, so both engines measure the same program and the
    cure/parse cost stays out of the timed region)."""
    from repro.bench.harness import pristine_cure, pristine_parse
    if mode == "cured":
        cured = pristine_cure(w, scale=scale)
        ip = Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                         engine=engine)
    else:
        prog = pristine_parse(w, scale)
        ip = Interpreter(prog, stdin=w.stdin, engine=engine)
    t0 = time.perf_counter()
    res = ip.run(list(w.args) or None)
    dt = time.perf_counter() - t0
    return {"seconds": round(dt, 4), "steps": res.steps,
            "cycles": res.cost.cycles, "status": res.status,
            "steps_per_sec": round(res.steps / dt) if dt else 0}


def run_suite_cells(suite: Sequence[tuple[str, int]], *,
                    progress=None) -> dict[str, dict]:
    """Measure every (workload × mode) cell of ``suite`` on both
    engines; keys are ``name:mode``, values carry both engine
    measurements plus the machine-normalized speedup ratio."""
    from repro.workloads import get
    cells: dict[str, dict] = {}
    for name, scale in suite:
        w = get(name)
        for mode in MODES:
            # closures first warms the compile cache; a second run
            # measures the steady state the gate cares about
            measure_cell(w, mode, "closures", scale)
            clos = measure_cell(w, mode, "closures", scale)
            tree = measure_cell(w, mode, "tree", scale)
            speedup = (tree["seconds"] / clos["seconds"]
                       if clos["seconds"] else float("inf"))
            key = f"{name}:{mode}"
            cells[key] = {"tree": tree, "closures": clos,
                          "speedup": round(speedup, 2)}
            if progress is not None:
                progress(f"{key}: {speedup:.2f}x")
    return cells


def bench_record(cells: dict[str, dict], *,
                 suite: Sequence[tuple[str, int]],
                 quick: bool = False,
                 unix_ts: Optional[float] = None) -> dict:
    """Assemble one schema-tagged ledger record."""
    return {"schema": BENCH_SCHEMA,
            "quick": quick,
            "suite": [[name, scale] for name, scale in suite],
            "unix_ts": round(unix_ts if unix_ts is not None
                             else time.time(), 3),
            "cells": cells}


def run_bench(*, quick: bool = False,
              progress=None) -> dict:
    """Run the pinned suite (or the quick subset) into a record."""
    suite = QUICK_SUITE if quick else SUITE
    cells = run_suite_cells(suite, progress=progress)
    return bench_record(cells, suite=suite, quick=quick)


# -- the ledger --------------------------------------------------------------


def append_history(record: dict,
                   path: str = HISTORY_PATH) -> None:
    """Append one record as a compact JSON line (the ledger is
    append-only; each line stands alone)."""
    line = json.dumps(record, sort_keys=True,
                      separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")


def read_history(path: str = HISTORY_PATH) -> list[dict]:
    """Every record in the ledger, oldest first (blank lines
    skipped)."""
    if not os.path.exists(path):
        return []
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def load_record(path: str) -> dict:
    """One record from a JSON file *or* the last line of a ``.jsonl``
    ledger."""
    if path.endswith(".jsonl"):
        records = read_history(path)
        if not records:
            raise FileNotFoundError(f"no records in {path}")
        return records[-1]
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# -- the gate ----------------------------------------------------------------


def diff_bench(baseline: dict, current: dict, *,
               slack_pct: float = 50.0) -> list[str]:
    """Compare ``current`` against ``baseline``; each returned string
    is one gate failure (empty list = pass).

    Steps, cycles, and status are exact per cell and engine; the
    closures-vs-tree speedup ratio may not fall more than
    ``slack_pct`` percent below the baseline's.  Cells the baseline
    has but the current run lacks fail (suite shrank); new cells
    pass (suite grew)."""
    failures: list[str] = []
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for key in sorted(base_cells):
        base = base_cells[key]
        cur = cur_cells.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current run")
            continue
        for engine in ("tree", "closures"):
            b, c = base.get(engine, {}), cur.get(engine, {})
            for exact in ("steps", "cycles", "status"):
                if b.get(exact) != c.get(exact):
                    failures.append(
                        f"{key} [{engine}] {exact}: "
                        f"{b.get(exact)} -> {c.get(exact)} "
                        "(exact counter drifted)")
        floor = base.get("speedup", 0.0) * (1 - slack_pct / 100.0)
        got = cur.get("speedup", 0.0)
        if got < floor:
            failures.append(
                f"{key} speedup: {got:.2f}x < floor {floor:.2f}x "
                f"(baseline {base.get('speedup'):.2f}x "
                f"- {slack_pct:.0f}% slack)")
    return failures


# -- rendering ---------------------------------------------------------------


def render_record(record: dict) -> str:
    """A fixed-width table of one ledger record."""
    head = (f"{'cell':<24} {'steps':>10} {'tree s/s':>10} "
            f"{'clos s/s':>10} {'speedup':>8}")
    lines = [head, "-" * len(head)]
    for key in sorted(record.get("cells", {})):
        c = record["cells"][key]
        lines.append(
            f"{key:<24} {c['closures']['steps']:>10} "
            f"{c['tree']['steps_per_sec']:>10} "
            f"{c['closures']['steps_per_sec']:>10} "
            f"{c['speedup']:>7.2f}x")
    return "\n".join(lines)


def render_diff(baseline: dict, current: dict,
                failures: Sequence[str], *,
                slack_pct: float) -> str:
    """The gate verdict plus a per-cell speedup comparison."""
    lines = [f"bench gate: slack {slack_pct:.0f}% on speedup, "
             "exact on steps/cycles/status"]
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for key in sorted(base_cells):
        b = base_cells[key].get("speedup")
        c = cur_cells.get(key, {}).get("speedup")
        cs = f"{c:.2f}x" if c is not None else "missing"
        lines.append(f"  {key:<24} baseline {b:.2f}x -> {cs}")
    if failures:
        lines.append(f"FAIL ({len(failures)}):")
        lines.extend(f"  {f}" for f in failures)
    else:
        lines.append("ok: within thresholds")
    return "\n".join(lines)

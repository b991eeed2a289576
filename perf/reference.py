"""Known answers for every benchmark op, and the checks against them.

``python -m perf reference`` regenerates ``perf/reference.json`` from
the **tree-walker oracle** — a fresh parse and cure of every suite
program with the cure cache off, run raw and cured on the tree engine
— never from the closure engine the benchmark times.  ``--check``
recomputes the answers and fails on any difference.

The answers per program are exit status, a sha256 of stdout, cost-model
cycles, interpreter steps and (cured) checks executed; raw and cured
stdout must also be equal.  The lint answer is the E13 contract (no
diagnostic on a pristine program) and the fault answer is each
mutation class's expected error with both engines agreeing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Optional

from perf import REFERENCE_PATH, SRC

SCHEMA = "perf.reference/1"


def summarize(res) -> dict:
    """The checked facts of one :class:`repro.interp.ExecResult`."""
    return {"status": res.status,
            "stdout_sha256": hashlib.sha256(
                res.stdout.encode("utf-8", "surrogateescape")).hexdigest(),
            "cycles": res.cycles, "steps": res.steps,
            "checks_executed": res.checks_executed}


def check_exec(got: dict, want: Optional[dict]) -> Optional[str]:
    """Why a program's ``{"raw": ..., "cured": ...}`` summaries miss
    the known answer, or None when they match."""
    if want is None:
        return "no known answer"
    if got["raw"]["stdout_sha256"] != got["cured"]["stdout_sha256"]:
        return "raw and cured stdout differ"
    for side in ("raw", "cured"):
        for key, value in want[side].items():
            if got[side][key] != value:
                return (f"{side} {key} {got[side][key]!r} != known "
                        f"{value!r}")
    return None


def check_metrics(wm, want: Optional[dict]) -> Optional[str]:
    """The same check for a :class:`WorkloadMetrics` from a sweep (it
    carries cycles, steps and checks, not stdout)."""
    if want is None:
        return "no known answer"
    pairs = (("raw_cycles", want["raw"]["cycles"]),
             ("cured_cycles", want["cured"]["cycles"]),
             ("raw_steps", want["raw"]["steps"]),
             ("cured_steps", want["cured"]["steps"]),
             ("checks_executed", want["cured"]["checks_executed"]))
    for attr, value in pairs:
        if getattr(wm, attr) != value:
            return f"{attr} {getattr(wm, attr)!r} != known {value!r}"
    return None


def load(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        ref = json.load(f)
    if ref.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {ref.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    return ref


def generate() -> dict:
    """Compute every known answer (about a minute: the tree engine is
    ~3.5x slower than the closure engine)."""
    os.environ["REPRO_CACHE"] = "off"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.core import CureOptions
    from repro.faults.mutators import MUTATORS, make_variant
    from repro.interp import run_cured, run_raw
    from repro.workloads import all_workloads

    programs = {}
    for w in sorted(all_workloads(), key=lambda w: w.name):
        args = list(w.args) or None
        cured = w.cure(CureOptions(trust_bad_casts=w.trust_bad_casts))
        raw = run_raw(w.parse(), args=args, stdin=w.stdin,
                      engine="tree")
        cur = run_cured(cured, args=args, stdin=w.stdin, engine="tree")
        entry = {"raw": summarize(raw), "cured": summarize(cur)}
        if raw.stdout != cur.stdout:
            raise AssertionError(f"{w.name}: the oracle's raw and "
                                 "cured stdout differ")
        programs[w.name] = entry
    return {
        "schema": SCHEMA,
        "oracle": "tree engine, fresh parse + cure, REPRO_CACHE=off",
        "cure_options": "CureOptions(trust_bad_casts=<workload's>), "
                        "optimize=flow",
        "programs": programs,
        "lint_diagnostics": 0,
        "fault_expected": {m: make_variant("perf", m, 1).expected.__name__
                           for m in MUTATORS},
    }


def dumps(ref: dict) -> str:
    return json.dumps(ref, indent=1, sort_keys=True) + "\n"


def main(check: bool) -> int:
    fresh = dumps(generate())
    if not check:
        with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
            f.write(fresh)
        print(f"wrote {REFERENCE_PATH}")
        return 0
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        committed = f.read()
    if committed == fresh:
        print("reference.json matches the tree-engine oracle")
        return 0
    print("reference.json differs from the tree-engine oracle; "
          "regenerate it with `python -m perf reference` if the change "
          "is intended", file=sys.stderr)
    return 1

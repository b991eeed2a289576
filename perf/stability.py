"""Two sets of runs back to back, compared against the bounds in
``BENCHMARK.json``.

Each set runs every selected workload ``runs`` times with seeds
``seed, seed+1, ...``.  Per (workload, metric) the table gives each
set's median and spread (the interquartile range as a share of the
median, from ``statistics.quantiles(values, n=4)``) and how much worse
the second median is than the first.  A metric is stable when each
spread is within its bound (``setup_s`` is exempt) and the second
median is no worse than the first by more than the bound; the aim is
spreads below a third of the bound.  The exact metrics must be
identical seed by seed, and no op may fail.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Optional

from perf import BENCHMARK_PATH
from perf.bench import (E2E, RECORD_SCHEMA, check_comparable,
                        fingerprint, repeats_for, run_workload,
                        write_result)


def bounds() -> dict[str, float]:
    with open(BENCHMARK_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run_set(workloads, runs: int, seconds: float, seed: int) -> dict:
    out = {"fingerprint": fingerprint(), "runs": {}}
    for w in workloads:
        out["runs"][w] = []
        for i in range(runs):
            t0 = time.perf_counter()
            rec = run_workload(w, seed + i, repeats_for(w, seconds))
            out["runs"][w].append(rec)
            print(f"  {w} seed={seed + i}: "
                  f"wall {rec['metrics']['wall_s']['value']:.3f}s, "
                  f"{rec['failed']} failed "
                  f"({time.perf_counter() - t0:.0f}s)", file=sys.stderr)
    return out


def compare(first: dict, second: dict) -> tuple[list[dict], bool]:
    """Rows of the stability table and whether every check passed."""
    check_comparable(first["fingerprint"], second["fingerprint"])
    limit = bounds()
    rows = []
    ok = True
    for w, b_runs in second["runs"].items():
        a_runs = first["runs"].get(w)
        if not a_runs:
            continue
        for metric in E2E:
            a = [r["metrics"][metric]["value"] for r in a_runs]
            b = [r["metrics"][metric]["value"] for r in b_runs]
            ma, mb = statistics.median(a), statistics.median(b)
            row = {"workload": w, "metric": metric, "bound": limit[metric],
                   "median_1": ma, "spread_1": spread(a),
                   "median_2": mb, "spread_2": spread(b),
                   "worse": (mb - ma) / ma}
            gated = [row["worse"]] + ([] if metric == "setup_s" else
                                      [row["spread_1"], row["spread_2"]])
            row["ok"] = max(gated) <= row["bound"]
            row["steady"] = metric == "setup_s" or max(
                row["spread_1"], row["spread_2"]) < row["bound"] / 3
            ok = ok and row["ok"]
            rows.append(row)
        by_seed = {r["seed"]: r for r in a_runs}
        for r in b_runs:
            twin = by_seed.get(r["seed"])
            same = twin is None or twin["exact"] == r["exact"]
            clean = r["failed"] == 0 and (twin is None
                                          or twin["failed"] == 0)
            if not (same and clean):
                ok = False
                rows.append({"workload": w, "metric": "exact",
                             "seed": r["seed"], "ok": False,
                             "detail": [r["exact"], twin and twin["exact"],
                                        r["failures"][:3]]})
    return rows, ok


def render(rows: list[dict]) -> str:
    head = (f"{'workload':<15} {'metric':<12} {'median 1':>10} "
            f"{'spread 1':>9} {'median 2':>10} {'spread 2':>9} "
            f"{'worse':>8} {'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        if r["metric"] == "exact":
            lines.append(f"{r['workload']:<15} exact metrics differ or "
                         f"ops failed at seed {r['seed']}: {r['detail']}")
            continue
        verdict = ("ok" if r["ok"] else "OUT OF BOUND") + (
            "" if r["steady"] else " (spread above bound/3)")
        lines.append(
            f"{r['workload']:<15} {r['metric']:<12} "
            f"{r['median_1']:>10.4g} {r['spread_1']:>8.1%} "
            f"{r['median_2']:>10.4g} {r['spread_2']:>8.1%} "
            f"{r['worse']:>+8.1%} {r['bound']:>6.0%}  {verdict}")
    return "\n".join(lines)


def main(workloads, runs: int, seconds: float, seed: int,
         baseline: Optional[str]) -> int:
    sets = []
    if baseline is not None:
        with open(baseline, encoding="utf-8") as f:
            saved = json.load(f)
        if saved.get("schema") != RECORD_SCHEMA \
                or saved.get("kind") != "stability":
            print(f"{baseline}: not a stability record", file=sys.stderr)
            return 2
        sets.append(saved["sets"][-1])
        check_comparable(sets[0]["fingerprint"], fingerprint())
    while len(sets) < 2:
        print(f"set {len(sets) + 1}:", file=sys.stderr)
        sets.append(run_set(workloads, runs, seconds, seed))
    rows, ok = compare(sets[0], sets[1])
    print(render(rows))
    path = write_result({"schema": RECORD_SCHEMA, "kind": "stability",
                         "ok": ok, "rows": rows, "sets": sets},
                        "stability")
    print(f"{'stable' if ok else 'NOT stable'}; record written to {path}")
    return 0 if ok else 1

"""Self-test of the benchmark: ``pytest perf`` (outside tier-1's
``testpaths``).  Small runs only — three programs, one repeat."""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from perf import BENCHMARK_PATH, PERF_DIR, SRC, WORKLOADS, bench, layers

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke() -> dict:
    """A 1-repeat, 3-program run of every workload."""
    return {w: bench.run_workload(w, seed=1, repeats=1, limit=3)
            for w in WORKLOADS}


@pytest.fixture
def in_process(monkeypatch, tmp_path):
    """Import the program in this process, with its cure cache under
    ``tmp_path``."""
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(smoke, workload):
    rec = smoke[workload]
    assert rec["correct"], rec["failures"]
    assert rec["attempted"] >= 3 and rec["failed"] == 0
    assert list(rec["metrics"]) == list(bench.E2E)
    for name, m in rec["metrics"].items():
        assert m["unit"] == bench.E2E[name]
        assert m["value"] > 0, name
    line = json.loads(bench.driver_line(rec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.E2E
    assert layer == bench.LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert len(set(e2e) | set(layer)) == len(e2e) + len(layer)


def test_exact_metrics_repeat_across_runs(smoke):
    for workload in ("exec_warm", "sweep_cold"):
        again = bench.run_workload(workload, seed=1, repeats=1, limit=3)
        assert again["exact"] == smoke[workload]["exact"]
        assert "cycle_ratio_geomean" in again["exact"]


def test_corrupted_reference_fails_ops(in_process):
    from perf import child, reference
    ref = copy.deepcopy(reference.load())
    spec = {"workload": "exec_warm", "seed": 1, "mode": "plain",
            "trace": False, "limit": 3}
    victim = child.ExecWarm(spec, ref).plan()[0]
    ref["programs"][victim]["cured"]["cycles"] += 1
    result = child.run(spec, time.monotonic(), ref=ref)
    rec = bench.aggregate("exec_warm", 1, [result])
    assert rec["exact"]["failed_ops_pct"] > 0
    assert not rec["correct"]
    assert any(victim in f and "cycles" in f for f in rec["failures"])


def test_every_wrapped_function_resolves(in_process):
    names = layers.resolve_all()
    assert "repro.core.curer.solve" in names
    for section, wraps in layers.WRAPPED.items():
        before = [layers._chain(w.module, w.attr)[-1] for w in wraps]
        with layers.patched(wraps, layers.Recorder().timer):
            during = [layers._chain(w.module, w.attr)[-1] for w in wraps]
            assert all(a is not b for a, b in zip(before, during))
        after = [layers._chain(w.module, w.attr)[-1] for w in wraps]
        assert all(a is b for a, b in zip(before, after)), section


def test_stale_name_fails_loudly(in_process):
    with pytest.raises(LookupError):
        layers._chain("repro.core.curer", "no_such_pass")
    with pytest.raises(LookupError, match="never measured"):
        bench._need({}, "core.solve", "frontend_cold")


def test_records_from_other_machines_are_refused():
    fp = bench.fingerprint()
    other = dict(fp, cpu="some other cpu")
    bench.check_comparable(fp, dict(fp, loadavg=[9.0, 9.0, 9.0]))
    with pytest.raises(ValueError, match="fingerprints"):
        bench.check_comparable(fp, other)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and perf/, the run exits non-zero
    without printing a result."""
    shutil.copy(BENCHMARK_PATH, tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns(
        ".work", "results", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--workload", "exec_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Sweep drivers: byte-identity between ``jobs=1`` (the shards run
inline) and a real two-worker process pool.

Every assertion here compares serialized artifacts with ``==`` on the
full text — the same check CI's determinism step performs with
``cmp`` — because the sweep's contract is not "equivalent results"
but "the same bytes".
"""

import json
from functools import partial

import pytest

from repro.cli import main
from repro.obs.serialize import stable_dumps
from repro.sweep import (resolve_jobs, run_sharded, sharded_analyze,
                         sharded_campaign, sharded_lint, sharded_lintval,
                         sharded_metrics)
from repro.workloads import UnknownSelection, all_workloads, get

SOME = sorted(all_workloads(), key=lambda w: w.name)[:4]


# -- resolve_jobs ------------------------------------------------------------


def test_resolve_jobs_values():
    import os
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs("5") == 5
    cores = os.cpu_count() or 1
    assert resolve_jobs("auto") == cores
    assert resolve_jobs(0) == cores
    assert resolve_jobs(-2) == cores


def test_run_sharded_preserves_task_order():
    tasks = [("analyze", {"name": w.name, "scale": None})
             for w in SOME]
    serial = run_sharded(tasks, 1)
    pooled = run_sharded(tasks, 2)
    assert [r["program"] for r in pooled] \
        == [r["program"] for r in serial] \
        == [w.name for w in SOME]


def test_run_sharded_propagates_worker_errors():
    with pytest.raises(KeyError):
        run_sharded([("analyze", {"name": "no-such", "scale": None}),
                     ("analyze", {"name": SOME[0].name,
                                  "scale": None})], 2)


# -- per-driver: one path, the same bytes and ticks at jobs 1 and 2 ---------


def _at_jobs_1_and_2(driver, dumps, shards):
    """Run ``driver(jobs=, progress=)`` at jobs 1 and 2: the output is
    byte-identical, and progress fires once per shard with the same
    lines (in completion order under the pool).  Returns the jobs=1
    progress lines."""
    texts, ticks = [], []
    for jobs in (1, 2):
        lines: list = []
        texts.append(dumps(driver(jobs=jobs, progress=lines.append)))
        ticks.append(lines)
    assert texts[0] == texts[1]
    assert len(ticks[0]) == shards
    assert sorted(ticks[0]) == sorted(ticks[1])
    return ticks[0]


def test_sharded_metrics_byte_identical():
    lines = _at_jobs_1_and_2(partial(sharded_metrics, SOME),
                             lambda r: stable_dumps(r.to_json()),
                             len(SOME))
    # perf/child.py reads the workload name off the front of the line
    assert [line.split()[0] for line in lines] == [w.name for w in SOME]


def test_sharded_lint_byte_identical():
    from repro.analysis import reports_json
    _at_jobs_1_and_2(partial(sharded_lint, SOME), reports_json,
                     len(SOME))


def test_sharded_campaign_byte_identical():
    from repro.faults.report import report_to_json
    names = ["olden_power", "ptrdist_anagram"]
    _at_jobs_1_and_2(partial(sharded_campaign, 11, "smoke",
                             workloads=names, optimize="local"),
                     report_to_json, len(names))


def _no_shards(*args, **kwargs):
    raise AssertionError("a shard ran for a bad selection")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sharded_campaign_rejects_unknown_selection(jobs, monkeypatch):
    monkeypatch.setattr("repro.sweep.drivers.run_sharded", _no_shards)
    with pytest.raises(UnknownSelection):
        sharded_campaign(1, "no-such-campaign", jobs=jobs)
    with pytest.raises(UnknownSelection):
        sharded_campaign(1, "smoke", classes=["no-such-class"],
                         jobs=jobs)
    with pytest.raises(UnknownSelection):
        sharded_campaign(1, "smoke",
                         workloads=["olden_power", "no-such-workload"],
                         jobs=jobs)


def test_sharded_analyze_byte_identical():
    _at_jobs_1_and_2(partial(sharded_analyze, SOME),
                     lambda r: json.dumps(r, indent=2, sort_keys=True),
                     len(SOME))


def test_sharded_lintval_byte_identical():
    ws = [get("olden_power"), get("ftpd")]
    cs = ["null-deref", "double-free"]
    _at_jobs_1_and_2(partial(sharded_lintval, 3, workloads=ws,
                             classes=cs),
                     lambda v: v.dumps(), len(ws))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sharded_lintval_rejects_unknown_class(jobs, monkeypatch):
    monkeypatch.setattr("repro.sweep.drivers.run_sharded", _no_shards)
    with pytest.raises(UnknownSelection):
        sharded_lintval(1, workloads=[get("olden_power")],
                        classes=["null-deref", "no-such-class"],
                        jobs=jobs)


# -- CLI ---------------------------------------------------------------------


def test_cli_metrics_jobs_byte_identical(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    sel = "olden_power,ptrdist_anagram"
    assert main(["metrics", "--workload", sel, "--quiet",
                 "--json", str(serial)]) == 0
    assert main(["metrics", "--workload", sel, "--quiet",
                 "--jobs", "2", "--json", str(pooled)]) == 0
    capsys.readouterr()
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_metrics_timing_trace_keeps_pipeline_spans(jobs, tmp_path,
                                                       capsys):
    """--timing's own span capture must not hide the pipeline spans
    from the shard capture the trace is built from."""
    from repro.bench.harness import clear_program_cache
    clear_program_cache()
    trace = tmp_path / "trace.json"
    assert main(["metrics", "--workload", "olden_power,ptrdist_anagram",
                 "--timing", "--trace", str(trace), "--jobs", jobs,
                 "--quiet"]) == 0
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"shard", "workload", "parse", "cure", "exec"} <= names


BAD_SELECTIONS = [
    (["faults", "lint", "--workloads", "olden_power",
      "--classes", "nope"], "unknown mutation class 'nope'"),
    (["faults", "run", "--classes", "nope"],
     "unknown mutation class 'nope'"),
    (["faults", "run", "--workloads", "nope"], "unknown workload 'nope'"),
    (["faults", "lint", "--workloads", "nope"],
     "unknown workload 'nope'"),
    (["faults", "run", "--workloads", "olden_power,nope"],
     "unknown workload 'nope'"),
    (["lint", "--workload", "nope"], "unknown workload 'nope'"),
    (["metrics", "--workload", "nope"], "unknown workload 'nope'"),
    (["analyze", "--workload", "nope"], "unknown workload 'nope'"),
    (["bench", "olden_bisort", "--scale", "2", "--tools",
      "ccured,purfy"], "unknown tool 'purfy'"),
    (["bench", "olden_bisort", "--tools", "valgrnd"],
     "unknown tool 'valgrnd'"),
]


@pytest.mark.parametrize("argv, message", BAD_SELECTIONS,
                         ids=[" ".join(a) for a, _ in BAD_SELECTIONS])
def test_cli_bad_selection_exits_2_before_any_work(argv, message,
                                                   monkeypatch,
                                                   capsys):
    monkeypatch.setattr("repro.sweep.runner.run_task", _no_shards)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"{argv[0]}: ") and message in err
    assert err.count("\n") == 1                 # one line, no traceback
    assert out == ""


def test_cli_genuine_keyerror_keeps_its_traceback(monkeypatch):
    from repro.sweep import runner

    def bug(**kwargs):
        raise KeyError("a bug, not a selection")

    monkeypatch.setitem(runner._TASKS, "lint", bug)
    with pytest.raises(KeyError, match="a bug"):
        main(["lint", "--workload", "olden_power", "--quiet"])


def test_cli_rejects_invalid_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--workload", "olden_power",
              "--jobs", "nope"])
    assert exc.value.code == 2
    assert "invalid --jobs" in capsys.readouterr().err


def test_cli_sweep_and_cache_stats(capsys):
    assert main(["lint", "--workload", "olden_power,ptrdist_anagram",
                 "--jobs", "2", "--quiet", "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["cache", "stats"]) == 0
    assert "cure cache at" in capsys.readouterr().out
    assert main(["cache", "stats", "--json", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["enabled"] in (True, False)
    assert stats["entries"] >= 0


# -- PR 10: cross-process span capture ---------------------------------------


def test_run_sharded_span_sink_merges_worker_spans():
    from repro.sweep import run_sharded
    tasks = [("lint", {"name": w.name, "optimize": "flow",
                       "scale": None}) for w in SOME]
    sink: list = []
    import os
    plain = run_sharded(tasks, 2)
    traced = run_sharded(tasks, 2, span_sink=sink)
    # tracing never changes results
    assert [r.to_json() for r in traced] \
        == [r.to_json() for r in plain]
    pids = {r.pid for r in sink}
    assert len(pids) >= 2 and os.getpid() not in pids
    # one shard span per task, tagged with its workload (pipeline
    # spans inside vary with cache warmth; the boundary never does)
    shard_tags = {r.attrs.get("workload") for r in sink
                  if r.name == "shard"}
    assert shard_tags == {w.name for w in SOME}


def test_run_sharded_span_sink_serial_path():
    from repro.sweep import run_sharded
    import os
    sink: list = []
    run_sharded([("analyze", {"name": SOME[0].name,
                              "scale": None})], 1, span_sink=sink)
    assert sink and {r.pid for r in sink} == {os.getpid()}
    assert "shard" in {r.name for r in sink}


def test_run_sharded_under_spawn_context(monkeypatch):
    """Worker span capture under the spawn start method: fresh
    interpreters must import repro (the PYTHONPATH fallback), capture
    spans, and merge byte-identically to the serial path."""
    from repro.sweep import run_sharded
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    tasks = [("lint", {"name": w.name, "optimize": "flow",
                       "scale": None}) for w in SOME[:2]]
    sink: list = []
    pooled = run_sharded(tasks, 2, span_sink=sink)
    monkeypatch.delenv("REPRO_MP_START")
    serial = run_sharded(tasks, 1)
    assert [r.to_json() for r in pooled] \
        == [r.to_json() for r in serial]
    import os
    pids = {r.pid for r in sink}
    assert pids and os.getpid() not in pids


def test_mp_context_env_override(monkeypatch):
    from repro.sweep.runner import _mp_context
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert _mp_context().get_start_method() == "spawn"
    monkeypatch.setenv("REPRO_MP_START", "no-such-method")
    assert _mp_context().get_start_method() in ("fork", "spawn")


def test_ensure_child_path_exports_repro_dir(monkeypatch):
    import os
    import repro
    from repro.sweep.runner import _ensure_child_path
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    monkeypatch.delenv("PYTHONPATH", raising=False)
    _ensure_child_path()
    assert os.environ["PYTHONPATH"].split(os.pathsep)[0] == src
    # idempotent: a second call does not duplicate the entry
    _ensure_child_path()
    assert os.environ["PYTHONPATH"].split(os.pathsep).count(src) == 1


def test_sharded_metrics_traced_output_byte_identical():
    """The satellite guarantee: enabling tracing changes nothing
    about the report bytes, sharded or serial."""
    from repro.bench.harness import clear_program_cache
    ws = SOME[:3]
    sink: list = []
    plain = sharded_metrics(ws, jobs=1)
    # cold in-process memos: the forked workers must really cure (the
    # disk cache answers, emitting cache spans), so the trace shows
    # the per-shard pipeline — while the report bytes cannot move
    clear_program_cache()
    traced = sharded_metrics(ws, jobs=2, trace=sink)
    assert stable_dumps(plain.to_json()) \
        == stable_dumps(traced.to_json())
    names = {r.name for r in sink}
    assert {"shard", "cure", "exec", "cache"} <= names
    events = {r.attrs.get("event") for r in sink
              if r.name == "cache"}
    assert events & {"hit", "miss"}


def test_cli_sweep_trace_chrome_file(tmp_path, capsys):
    """A sharded sweep's --trace file is one merged Chrome timeline:
    each worker's spans on its own named lane."""
    trace = tmp_path / "sweep-trace.json"
    assert main(["metrics", "--workload", "olden_power,ptrdist_anagram",
                 "--jobs", "2", "--quiet", "--trace", str(trace)]) == 0
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    assert doc["displayTimeUnit"] == "ms"
    xs = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert len({e["pid"] for e in xs}) >= 2
    assert {e["name"] for e in xs} >= {"shard", "workload"}
    lanes = [e for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"]
    assert sum("worker" in m["args"]["name"] for m in lanes) >= 2


# -- PR 10: the --progress line ----------------------------------------------


class _FakeTTY:
    def __init__(self):
        self.text = ""

    def write(self, s):
        self.text += s

    def flush(self):
        pass

    def isatty(self):
        return True


def test_progress_line_draws_only_on_tty():
    from repro.sweep import ProgressLine
    import io
    plain = io.StringIO()          # not a TTY -> silent
    pl = ProgressLine(4, stream=plain)
    pl.tick()
    pl.close()
    assert plain.getvalue() == ""
    tty = _FakeTTY()
    pl = ProgressLine(4, stream=tty)
    pl.tick("ignored message")
    pl.tick()
    pl.close()
    assert "[2/4 shards]" in tty.text
    assert "elapsed" in tty.text
    assert tty.text.endswith("\n")


def test_progress_line_clamps_overshoot():
    from repro.sweep import ProgressLine
    tty = _FakeTTY()
    pl = ProgressLine(2, stream=tty)
    for _ in range(5):
        pl.tick()
    pl.close()
    assert "[2/2 shards]" in tty.text
    assert "[5/2" not in tty.text


def test_cli_progress_never_contaminates_stdout(capsys):
    """--progress with non-TTY stderr (the capsys case) must leave
    stdout parseable JSON and stderr empty of progress bytes."""
    names = ",".join(w.name for w in SOME[:2])
    assert main(["metrics", "--workload", names, "--jobs", "2",
                 "--progress", "--json", "-"]) == 0
    out, err = capsys.readouterr()
    json.loads(out)                      # stdout is pure JSON
    assert "\r" not in out and "shards]" not in out
    assert "shards]" not in err          # non-TTY stderr: suppressed

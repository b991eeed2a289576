"""The phase profiler: deterministic per-phase counts, sharded ==
serial byte-identity, and the ``repro profile`` CLI."""

import json

from repro.cli import main
from repro.obs import stable_dumps
from repro.obs.profile import (PROFILE_SCHEMA, ProfileReport,
                               collect_profile, fold_spans,
                               phase_key, profile_workload,
                               render_profile)
from repro.obs.tracer import SpanRecord
from repro.workloads import all_workloads, get

SOME = sorted(all_workloads(), key=lambda w: w.name)[:3]


class TestFolding:
    def test_phase_key_splits_exec_cache_optimize(self):
        assert phase_key(SpanRecord(
            "exec", 0, 0, 0, {"engine": "tree", "mode": "raw"})) \
            == "exec:tree:raw"
        assert phase_key(SpanRecord(
            "cache", 0, 0, 0, {"op": "load", "event": "hit"})) \
            == "cache:load"
        assert phase_key(SpanRecord(
            "optimize", 0, 0, 0, {"level": "flow"})) \
            == "optimize:flow"
        assert phase_key(SpanRecord("solve", 0, 0, 0, {})) == "solve"

    def test_fold_counts_and_seconds(self):
        stats = fold_spans([
            SpanRecord("parse", 0, 0.0, 1.0, {}),
            SpanRecord("parse", 0, 2.0, 0.5, {}),
            SpanRecord("solve", 1, 0.1, 0.2, {}),
        ])
        assert stats["parse"].count == 2
        assert abs(stats["parse"].seconds - 1.5) < 1e-9
        assert stats["solve"].count == 1

    def test_cache_phases_excluded_from_gated_serialization(self):
        report = ProfileReport(engine="closures", optimize="flow",
                               scale=None)
        report.workloads["w"] = fold_spans([
            SpanRecord("parse", 0, 0.0, 1.0, {}),
            SpanRecord("cache", 1, 0.0, 0.1, {"op": "load"}),
        ])
        gated = report.to_json()
        assert "cache:load" not in gated["workloads"]["w"]
        assert "cache:load" not in gated["totals"]
        timed = report.to_json(include_timing=True)
        assert "cache:load" in timed["workloads"]["w"]
        assert "seconds" in timed["workloads"]["w"]["parse"]
        assert "seconds" not in gated["workloads"]["w"]["parse"]


class TestCollection:
    def test_fresh_pipeline_span_counts(self):
        w = get("olden_power")
        records = profile_workload(w)
        stats = fold_spans(records)
        # one full pipeline: every phase ran exactly once
        for phase in ("parse", "preprocess", "cure", "constraints",
                      "solve", "split", "instrument", "dataflow",
                      "exec:closures:raw", "exec:closures:cured"):
            assert stats[phase].count == 1, phase

    def test_collect_profile_two_runs_byte_identical(self):
        a = collect_profile(SOME)
        b = collect_profile(SOME)
        assert stable_dumps(a.to_json()) == stable_dumps(b.to_json())

    def test_collect_profile_sharded_byte_identical(self):
        ticks: tuple[list, list] = ([], [])
        serial = collect_profile(SOME, jobs=1, progress=ticks[0].append)
        pooled = collect_profile(SOME, jobs=2, progress=ticks[1].append)
        assert stable_dumps(serial.to_json()) \
            == stable_dumps(pooled.to_json())
        # one progress line per shard, the same lines at both jobs
        assert len(ticks[0]) == len(SOME)
        assert sorted(ticks[0]) == sorted(ticks[1])

    def test_collect_profile_trace_sink_and_progress(self):
        sink: list = []
        seen: list = []
        collect_profile(SOME[:2], trace=sink,
                        progress=seen.append)
        assert {r.name for r in sink} >= {"workload", "parse",
                                          "cure"}
        assert len(seen) == 2

    def test_render_profile_counts_only_by_default(self):
        report = collect_profile(SOME[:1])
        text = render_profile(report)
        assert "count" in text and "wall" not in text
        timed = render_profile(report, include_timing=True)
        assert "wall" in timed


class TestProfileCLI:
    def test_json_deterministic_across_runs(self, tmp_path, capsys):
        names = ",".join(w.name for w in SOME[:2])
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for p in paths:
            assert main(["profile", "--workload", names,
                         "--json", p, "--quiet"]) == 0
        capsys.readouterr()
        a, b = (open(p).read() for p in paths)
        assert a == b
        assert json.loads(a)["schema"] == PROFILE_SCHEMA

    def test_sharded_cli_matches_serial(self, tmp_path, capsys):
        names = ",".join(w.name for w in SOME[:2])
        serial = str(tmp_path / "serial.json")
        pooled = str(tmp_path / "pooled.json")
        assert main(["profile", "--workload", names,
                     "--json", serial, "--quiet"]) == 0
        assert main(["profile", "--workload", names, "--jobs", "2",
                     "--json", pooled, "--quiet"]) == 0
        capsys.readouterr()
        assert open(serial).read() == open(pooled).read()

    def test_table_output_and_timing_flag(self, capsys):
        assert main(["profile", "--workload", "olden_power"]) == 0
        out = capsys.readouterr().out
        assert "exec:closures:cured" in out
        assert main(["profile", "--workload", "olden_power",
                     "--timing"]) == 0
        assert "wall" in capsys.readouterr().out

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["profile", "--workload", "olden_power",
                     "--json", "-", "--trace", str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "X"}
        assert "workload" in names and "parse" in names

    def test_unknown_and_missing_selection(self, capsys):
        assert main(["profile", "--workload", "no_such"]) == 2
        assert main(["profile"]) == 2

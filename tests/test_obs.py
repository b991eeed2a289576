"""Tests for the observability layer: tracer, metrics, diff, CLI."""

import copy
import json

import pytest

from repro.cli import main
from repro.core import CureOptions, cure
from repro.interp import ENGINES, run_cured
from repro.obs import (SCHEMA, TRACER, Thresholds,
                       collect_workload_metrics, diff_reports,
                       render_diff, render_report, round_floats,
                       site_table, stable_dumps)
from repro.obs.tracer import (SpanRecord, Tracer, phase_key,
                              phase_seconds_of)
from repro.sweep import sharded_metrics
from repro.workloads import get

LOOPY = r'''
int main(void) {
  int a[8];
  int *p = a;
  int i;
  int sum = 0;
  for (i = 0; i < 8; i++) p[i] = i;
  for (i = 0; i < 8; i++) sum = sum + p[i];
  return sum == 28 ? 0 : 1;
}
'''


class TestTracer:
    def test_disabled_span_is_shared_singleton(self):
        t = Tracer()
        assert t.span("a") is t.span("b")
        with t.span("c"):
            pass
        assert t.records == []

    def test_enabled_spans_record_and_nest(self):
        t = Tracer()
        t.enable()
        with t.span("outer", tag=1):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        names = [(r.name, r.depth) for r in t.records]
        # children close (and record) before their parent
        assert names == [("inner", 1), ("inner", 1), ("outer", 0)]
        assert t.records[-1].attrs == {"tag": 1}
        assert all(r.duration >= 0 for r in t.records)

    def test_name_keyword_is_an_attribute(self):
        # span name is positional-only, so name= is a legal attr
        t = Tracer()
        t.enable()
        with t.span("parse", name="prog"):
            pass
        assert t.records[0].attrs == {"name": "prog"}

    def test_set_attaches_mid_span_attributes(self):
        t = Tracer()
        t.enable()
        with t.span("dataflow") as sp:
            sp.set(removed=7)
        assert t.records[0].attrs["removed"] == 7

    def test_span_recorded_even_when_body_raises(self):
        t = Tracer()
        t.enable()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError
        assert [r.name for r in t.records] == ["boom"]

    def test_capture_isolates_and_restores(self):
        t = Tracer()
        with t.capture() as records:
            with t.span("x"):
                pass
        assert [r.name for r in records] == ["x"]
        assert t.enabled is False
        assert t.records == []

    def test_phase_seconds_aggregation(self):
        t = Tracer()
        t.enable()
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("a"):
            pass
        secs = phase_seconds_of(t.records)
        assert set(secs) == {"a", "b"}
        # a parent's time includes its children
        assert secs["a"] >= secs["b"] >= 0

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

    def test_phase_seconds_of_folds_by_phase_key(self):
        secs = phase_seconds_of([
            SpanRecord("parse", 0, 0.0, 1.0, {}),
            SpanRecord("parse", 0, 2.0, 0.5, {}),
            SpanRecord("solve", 1, 0.1, 0.2, {}),
            SpanRecord("exec", 1, 0.0, 0.25,
                       {"engine": "tree", "mode": "raw"}),
            SpanRecord("exec", 1, 0.0, 0.5,
                       {"engine": "tree", "mode": "cured"}),
            SpanRecord("cache", 2, 0.0, 0.125, {"op": "load"}),
        ])
        assert secs == {"parse": 1.5, "solve": 0.2,
                        "exec:tree:raw": 0.25, "exec:tree:cured": 0.5,
                        "cache:load": 0.125}

    def test_pipeline_emits_expected_phases(self):
        with TRACER.capture() as records:
            cure(LOOPY, options=CureOptions(optimize="flow"))
        names = {r.name for r in records}
        assert {"parse", "preprocess", "cure", "constraints",
                "solve", "split", "instrument", "optimize",
                "dataflow"} <= names

    def test_global_tracer_disabled_by_default(self):
        assert TRACER.enabled is False


class TestSiteHits:
    def test_site_hits_agree_across_engines(self):
        counts = {}
        for engine in ENGINES:
            cured = cure(LOOPY, options=CureOptions(optimize="none"))
            hits: dict[int, int] = {}
            res = run_cured(cured, engine=engine, site_hits=hits)
            assert res.status == 0
            assert sum(hits.values()) == res.checks_executed
            counts[engine] = hits
        assert counts["closures"] == counts["tree"]

    def test_site_table_covers_all_hit_sites(self):
        cured = cure(LOOPY, options=CureOptions(optimize="none"))
        hits: dict[int, int] = {}
        run_cured(cured, site_hits=hits)
        table = site_table(cured.prog)
        assert set(hits) <= set(table)
        assert all(fn == "main" for fn, _kind in table.values())

    def test_raw_run_counts_nothing(self):
        # a raw run of the *instrumented* tree skips its checks and
        # must not count any sites either
        from repro.interp.interp import Interpreter
        cured = cure(LOOPY, options=CureOptions(optimize="none"))
        hits: dict[int, int] = {}
        ip = Interpreter(cured.prog, cured=None, site_hits=hits)
        res = ip.run(None)
        assert res.status == 0
        assert hits == {}


class TestMetrics:
    @pytest.fixture(scope="class")
    def power_metrics(self):
        return collect_workload_metrics(get("olden_power"))

    def test_workload_metrics_consistency(self, power_metrics):
        wm = power_metrics
        assert wm.name == "olden_power"
        assert wm.checks_surviving == len(wm.sites)
        assert wm.checks_executed == sum(s.hits for s in wm.sites)
        assert wm.checks_executed == sum(wm.check_events.values())
        assert sum(wm.checks_emitted.values()) == (
            wm.checks_removed + wm.checks_surviving)
        assert wm.ccured_ratio > 1.0
        assert wm.phases == {}  # timing off by default

    def test_collection_is_deterministic(self):
        ws = [get("olden_power"), get("olden_treeadd")]
        blobs = []
        for _ in range(2):
            report = sharded_metrics(ws)
            blobs.append(stable_dumps(report.to_json()))
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["schema"] == SCHEMA
        assert [w["name"] for w in payload["workloads"]] == [
            "olden_power", "olden_treeadd"]

    def test_timing_reports_every_phase_of_a_fresh_pipeline(
            self, monkeypatch):
        """With the memo cleared and the cure cache off, every phase
        of the pipeline runs once, and --timing reports each one under
        its phase key: exec per engine and mode, optimize per level."""
        from repro.bench.harness import clear_program_cache
        monkeypatch.setenv("REPRO_CACHE", "off")
        clear_program_cache()
        wm = collect_workload_metrics(get("olden_power"), timing=True)
        assert sorted(wm.phases) == [
            "constraints", "cure", "dataflow", "exec:closures:cured",
            "exec:closures:raw", "instrument", "optimize:flow", "parse",
            "preprocess", "solve", "split", "workload"]

    def test_timing_excluded_from_default_serialization(self):
        wm = collect_workload_metrics(get("olden_power"), timing=True)
        assert wm.phases  # captured...
        assert "phases" not in wm.to_json()  # ...but not serialized
        assert "phases" in wm.to_json(include_timing=True)

    def test_render_report_table(self):
        report = sharded_metrics([get("olden_power")])
        out = render_report(report)
        assert "olden_power" in out
        assert "TOTAL" in out
        assert "hottest" in out

    def test_round_floats(self):
        obj = {"a": [1.23456789, {"b": 2.0}], "c": "s"}
        assert round_floats(obj) == {"a": [1.234568, {"b": 2.0}],
                                     "c": "s"}

    def test_stable_dumps_sorted_with_newline(self):
        s = stable_dumps({"b": 1, "a": 2})
        assert s.index('"a"') < s.index('"b"')
        assert s.endswith("\n")


class TestDiff:
    @pytest.fixture(scope="class")
    def report_json(self):
        report = sharded_metrics([get("olden_power"),
                                  get("olden_treeadd")])
        return report.to_json()

    def test_identical_reports_are_clean(self, report_json):
        res = diff_reports(report_json, report_json)
        assert res.ok
        assert res.findings == []
        assert "0 regression(s)" in render_diff(res)

    def test_checks_regression_detected(self, report_json):
        cur = copy.deepcopy(report_json)
        cur["workloads"][0]["checks_executed"] += 1
        res = diff_reports(report_json, cur)
        assert not res.ok
        assert any(f.metric == "checks_executed"
                   for f in res.regressions)

    def test_threshold_allows_small_growth(self, report_json):
        cur = copy.deepcopy(report_json)
        base = cur["workloads"][0]["checks_executed"]
        cur["workloads"][0]["checks_executed"] = int(base * 1.04)
        th = Thresholds(checks_pct=5.0)
        assert diff_reports(report_json, cur, th).ok
        th = Thresholds(checks_pct=1.0)
        assert not diff_reports(report_json, cur, th).ok

    def test_improvement_is_not_a_regression(self, report_json):
        cur = copy.deepcopy(report_json)
        cur["workloads"][0]["cured_cycles"] -= 1
        res = diff_reports(report_json, cur)
        assert res.ok
        assert any(f.severity == "improve" for f in res.findings)

    def test_elision_drop_regresses(self, report_json):
        cur = copy.deepcopy(report_json)
        cur["workloads"][0]["checks_removed"] -= 1
        res = diff_reports(report_json, cur)
        assert any(f.metric == "checks_removed"
                   for f in res.regressions)
        assert diff_reports(report_json, cur,
                            Thresholds(elided_drop=1)).ok

    def test_missing_workload_regresses(self, report_json):
        cur = copy.deepcopy(report_json)
        del cur["workloads"][0]
        res = diff_reports(report_json, cur)
        assert any(f.metric == "missing-workload"
                   for f in res.regressions)

    def test_new_workload_is_a_note(self, report_json):
        base = copy.deepcopy(report_json)
        del base["workloads"][0]
        res = diff_reports(base, report_json)
        assert res.ok
        assert any(f.metric == "new-workload" for f in res.findings)

    def test_new_check_site_is_a_note(self, report_json):
        cur = copy.deepcopy(report_json)
        cur["workloads"][0]["sites"].append(
            {"site": 999, "function": "brand_new",
             "kind": "CHECK_NULL", "hits": 0})
        res = diff_reports(report_json, cur,
                           Thresholds(checks_pct=100.0))
        assert any(f.metric == "new-check-site" for f in res.findings)

    def test_schema_mismatch_short_circuits(self, report_json):
        bad = copy.deepcopy(report_json)
        bad["schema"] = "something/else"
        res = diff_reports(report_json, bad)
        assert [f.metric for f in res.regressions] == ["schema"]

    def test_phase_gate_needs_both_sides(self, report_json):
        base = copy.deepcopy(report_json)
        cur = copy.deepcopy(report_json)
        cur["workloads"][0]["phases"] = {"cure": 1.0}
        assert diff_reports(base, cur).ok  # baseline has no timings
        base["workloads"][0]["phases"] = {"cure": 0.1}
        res = diff_reports(base, cur)
        assert any(f.metric == "phase:cure" for f in res.regressions)


class TestMetricsCLI:
    def test_table_output(self, capsys):
        assert main(["metrics", "--workload", "olden_power",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "olden_power" in out and "TOTAL" in out

    def test_json_deterministic_across_invocations(self, tmp_path,
                                                   capsys):
        paths = [str(tmp_path / f"m{i}.json") for i in range(2)]
        for p in paths:
            assert main(["metrics", "--workload", "olden_power",
                         "--json", p, "--quiet"]) == 0
        capsys.readouterr()
        a, b = (open(p).read() for p in paths)
        assert a == b
        assert json.loads(a)["schema"] == SCHEMA

    def test_unknown_workload_fails(self, capsys):
        assert main(["metrics", "--workload", "no_such"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_diff_gate_passes_then_fails(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        assert main(["metrics", "--workload", "olden_power",
                     "--json", base, "--quiet"]) == 0
        assert main(["metrics", "diff", "--baseline", base,
                     "--current", base, "--fail-on-regress"]) == 0
        payload = json.load(open(base))
        payload["workloads"][0]["checks_executed"] += 50
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["metrics", "diff", "--baseline", base,
                     "--current", str(regressed),
                     "--fail-on-regress"]) == 2
        out = capsys.readouterr()
        assert "REGRESS" in out.out
        assert "FAILED" in out.err
        # without the gate flag, regressions exit 1
        assert main(["metrics", "diff", "--baseline", base,
                     "--current", str(regressed)]) == 1


class TestCrossProcessSpans:
    """PR 10: pid/tid on records, the wall-clock wire format, and
    multi-process Chrome trace lanes."""

    def test_records_carry_pid_and_tid(self):
        import os
        import threading
        t = Tracer()
        with t.capture() as records:
            with t.span("parse"):
                pass
        assert records[0].pid == os.getpid()
        assert records[0].tid == threading.get_native_id()

    def test_wire_round_trip_rebases_onto_anchor(self):
        from repro.obs.tracer import spans_from_wire, spans_to_wire
        t = Tracer()
        with t.capture() as records:
            with t.span("cure", name="w"):
                pass
        wire = spans_to_wire(records, t)
        # rebasing onto the producing tracer's own epoch must
        # reproduce the original relative starts (within fp noise)
        back = spans_from_wire(wire, t.epoch_wall())
        assert len(back) == 1
        assert back[0].name == "cure"
        assert back[0].attrs == {"name": "w"}
        assert back[0].pid == records[0].pid
        assert back[0].tid == records[0].tid
        assert abs(back[0].start - records[0].start) < 0.05
        assert back[0].duration == records[0].duration

    def test_wire_tolerates_legacy_records(self):
        from repro.obs.tracer import SpanRecord, spans_from_wire
        back = spans_from_wire(
            [{"name": "exec", "depth": 0, "wall": 12.5,
              "duration": 0.25}], epoch_wall=10.0)
        assert back == [SpanRecord("exec", 0, 2.5, 0.25, {}, 0, 0)]

    def test_chrome_trace_renders_one_lane_per_process(self):
        import os
        from repro.obs.tracer import SpanRecord, chrome_trace
        here = os.getpid()
        records = [
            SpanRecord("dispatch", 0, 0.0, 1.0, {}, here, 7),
            SpanRecord("shard", 0, 0.1, 0.4, {}, 4242, 9),
            SpanRecord("cure", 1, 0.2, 0.2, {}, 4242, 9),
            SpanRecord("shard", 0, 0.1, 0.4, {}, 4243, 11),
        ]
        doc = chrome_trace(records)
        metas = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        by_pid = {m["pid"]: m["args"]["name"] for m in metas}
        assert set(by_pid) == {here, 4242, 4243}
        assert by_pid[here] == "repro"
        assert by_pid[4242] == "repro worker 4242"
        # the exporting process sorts first
        sort = {e["pid"]: e["args"]["sort_index"]
                for e in doc["traceEvents"]
                if e["ph"] == "M"
                and e["name"] == "process_sort_index"}
        assert sort[here] == 0
        # X events land on their recording pid/tid lane
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {(e["pid"], e["tid"]) for e in xs} \
            == {(here, 7), (4242, 9), (4243, 11)}

    def test_chrome_trace_single_process_keeps_plain_label(self):
        import os
        from repro.obs.tracer import SpanRecord, chrome_trace
        doc = chrome_trace([SpanRecord("parse", 0, 0.0, 0.1, {},
                                       os.getpid(), 3)])
        metas = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert [m["args"]["name"] for m in metas] == ["repro"]

"""Tests for inference provenance: blame graphs, explain, forensics.

The soundness property under test: with ``CureOptions.provenance`` on,
*every* non-SAFE pointer node has a complete blame chain — a walk over
recorded provenance that ends at a seed cause — and every spread step
names a constraint edge that actually exists in the constraint graph.
"""

import json

import pytest

from repro.cli import main
from repro.core import CureOptions, cure
from repro.frontend import parse_program
from repro.interp import run_cured
from repro.obs import (SEED_CAUSES, BlameGraph, diff_explain,
                       explain_report, stable_dumps)
from repro.obs.provenance import SPREAD_CAUSES, Provenance, describe
from repro.obs.tracer import Tracer, chrome_trace
from repro.runtime.checks import CheckFailure, MemorySafetyError
from repro.workloads import PROGRAM_DIR, all_workloads, get

from helpers import cure_src

#: a bad cast (char* -> struct) seeding WILD that spreads via compat
EVIL = r'''
struct blob { int a; int b; };
int main(void) {
  char buf[16];
  char *c = buf;
  struct blob *p = (struct blob *)c;
  struct blob *q = p;
  return q == p ? 0 : 1;
}
'''

#: in-bounds loop followed by one off-the-end write: SEQ bound trap
OOB = r'''
int main(void) {
  int a[4];
  int *p = a;
  int i;
  for (i = 0; i <= 4; i++) p[i] = i;
  return 0;
}
'''


def _cure_prov(src, name="t", **opts):
    opts.setdefault("provenance", True)
    return cure_src(src, name, **opts)


def _same_groups(nodes):
    """Union-find over ``same`` edges, recomputed independently of the
    solver, to validate ``via=group`` provenance steps."""
    parent = {i: i for i in nodes}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for n in nodes.values():
        for m in n.same:
            if m.id in parent:
                parent[find(n.id)] = find(m.id)
    return find


def _assert_edge_exists(graph, node, p):
    """A spread record's ``via`` edge must exist in the constraint
    graph between ``node`` and its ``src``."""
    src = graph.nodes.get(p.src)
    assert src is not None, (
        f"node {node.id}: src {p.src} not in blame graph")
    ids = lambda lst: {m.id for m in lst}  # noqa: E731
    if p.via in ("compat", "cast"):
        assert (src.id in ids(node.compat)
                or node.id in ids(src.compat)), (node.id, p)
    elif p.via == "same":
        assert (src.id in ids(node.same)
                or node.id in ids(src.same)), (node.id, p)
    elif p.via == "group":
        find = _same_groups(graph.nodes)
        assert find(node.id) == find(src.id), (node.id, p)
    elif p.via == "rtti_back":
        assert node.id in ids(src.rtti_back), (node.id, p)
    elif p.via == "seq_back":
        assert node.id in ids(src.seq_back), (node.id, p)
    elif p.via == "flow":
        assert node.id in ids(src.flow_out), (node.id, p)
    elif p.via == "base":
        pass  # src's referent contains node; existence checked above
    else:
        pytest.fail(f"unknown via edge {p.via!r} on node {node.id}")


def _check_chains(cured):
    """Every non-SAFE node has a complete chain ending at a seed, and
    every step's edge exists.  Returns the number of chains checked."""
    graph = BlameGraph.from_cured(cured)
    chains = graph.chains()
    for ch in chains:
        assert ch.complete, (
            f"incomplete chain for node {ch.node_id} "
            f"({ch.kind} at {ch.where}): {ch.steps}")
        assert ch.root.cause in SEED_CAUSES
        # walk the chain node by node so each step is checked against
        # the node that carries it, not just the chain head
        node = graph.nodes[ch.node_id]
        for step in ch.steps:
            if step.is_seed:
                break
            assert step.cause in SPREAD_CAUSES
            _assert_edge_exists(graph, node, step)
            node = graph.nodes[step.src]
    return len(chains)


class TestProvenanceRecord:
    def test_seed_json_omits_src_and_via(self):
        p = Provenance("WILD", "bad-cast", where="cast in f")
        assert p.is_seed
        assert p.to_json() == {"state": "WILD", "cause": "bad-cast",
                               "where": "cast in f"}

    def test_spread_json_keeps_src_and_via(self):
        p = Provenance("WILD", "wild-spread", via="compat", src=3,
                       where="local f:p")
        assert not p.is_seed
        js = p.to_json()
        assert js["via"] == "compat" and js["src"] == 3

    def test_describe_matches_legacy_reasons(self):
        assert describe(Provenance("WILD", "bad-cast")) == "bad cast"
        assert describe(Provenance("SEQ", "pointer-arith")) \
            == "pointer arithmetic"
        assert describe(Provenance("WILD", "wild-spread",
                                   via="base", src=1)) \
            == "inside WILD referent"

    def test_at_most_one_record_per_state(self):
        cured = _cure_prov(EVIL)
        graph = BlameGraph.from_cured(cured)
        for n in graph.nodes.values():
            states = [p.state for p in n.prov]
            assert len(states) == len(set(states)), n.prov


class TestBlameSoundness:
    def test_bad_cast_chain_ends_at_seed(self):
        cured = _cure_prov(EVIL)
        assert _check_chains(cured) > 0
        graph = BlameGraph.from_cured(cured)
        roots = {ch.root.cause for ch in graph.chains()
                 if ch.kind == "WILD"}
        assert roots == {"bad-cast"}

    def test_reason_derived_from_provenance(self):
        cured = _cure_prov(EVIL)
        graph = BlameGraph.from_cured(cured)
        wild = [n for n in graph.nodes.values()
                if n.solved and n.kind.name == "WILD"]
        assert wild
        for n in wild:
            assert n.reason in ("bad cast", "flows to/from WILD",
                                "representation tied to WILD",
                                "inside WILD referent")

    def test_reason_is_read_only(self):
        cured = _cure_prov(EVIL)
        graph = BlameGraph.from_cured(cured)
        n = next(iter(graph.nodes.values()))
        with pytest.raises(AttributeError):
            n.reason = "tampered"

    def test_provenance_off_records_nothing(self):
        cured = cure_src(EVIL, provenance=False)
        graph = BlameGraph.from_cured(cured)
        assert all(not n.prov for n in graph.nodes.values())
        assert all(ch.steps == [] for ch in graph.chains())

    @pytest.mark.parametrize("wname", ["ptrdist_anagram", "bind_like",
                                       "spec_ijpeg", "olden_bisort"])
    def test_workload_chains_complete(self, wname):
        w = get(wname)
        cured = w.cure(options=CureOptions(
            provenance=True, trust_bad_casts=w.trust_bad_casts))
        _check_chains(cured)

    def test_all_workloads_chains_complete_and_deterministic(self):
        for w in all_workloads():
            opts = CureOptions(provenance=True,
                               trust_bad_casts=w.trust_bad_casts)
            first = w.cure(options=opts)
            _check_chains(first)
            r1 = stable_dumps(explain_report(first, w.name))
            r2 = stable_dumps(explain_report(w.cure(options=opts),
                                             w.name))
            assert r1 == r2, f"{w.name}: blame graph not deterministic"


class TestNodeIdDeterminism:
    def test_ids_reset_per_analysis(self):
        c1 = _cure_prov(EVIL)
        c2 = _cure_prov(EVIL)
        ids1 = sorted(BlameGraph.from_cured(c1).nodes)
        ids2 = sorted(BlameGraph.from_cured(c2).nodes)
        assert ids1 == ids2
        assert min(ids1) == 0


class TestExplainDiff:
    def _report(self, src, name):
        return explain_report(_cure_prov(src, name), name)

    def test_trusted_cast_shrinks_wild(self):
        fixed = EVIL.replace("(struct blob *)c",
                             "(struct blob *)__trusted_cast(c)")
        before = self._report(EVIL, "before")
        after = self._report(fixed, "after")
        assert before["non_safe_nodes"].get("WILD", 0) > 0
        assert after["non_safe_nodes"].get("WILD", 0) == 0
        diff = diff_explain(before, after)
        assert diff["verdict"] == "improved"
        assert diff_explain(after, before)["verdict"] == "regressed"
        assert diff_explain(before, before)["verdict"] == "unchanged"

    def test_workload_annotation_loop(self):
        """The paper's porting loop on a real workload: graft an evil
        cast into anagram, watch WILD appear, fix it with
        __trusted_cast, watch WILD collapse back to zero."""
        base_src = get("ptrdist_anagram").source()
        evil = base_src + (
            "\nstruct evil_box { int a; int b; };\n"
            "struct evil_box *evil_view(char *p) {\n"
            "  return (struct evil_box *)p;\n"
            "}\n")
        fixed = evil.replace("(struct evil_box *)p",
                             "(struct evil_box *)__trusted_cast(p)")
        opts = CureOptions(provenance=True)

        def rep(src, name):
            prog = parse_program(src, name,
                                 include_dirs=[PROGRAM_DIR])
            cured = cure(prog, options=opts, name=name)
            _check_chains(cured)
            return explain_report(cured, name)

        before, after = rep(evil, "evil"), rep(fixed, "fixed")
        assert before["non_safe_nodes"].get("WILD", 0) > 0
        assert after["non_safe_nodes"].get("WILD", 0) == 0
        assert diff_explain(before, after)["verdict"] == "improved"


class TestFailureForensics:
    def _fail(self, engine):
        cured = _cure_prov(OOB)
        with pytest.raises(MemorySafetyError) as exc_info:
            run_cured(cured, engine=engine)
        return CheckFailure.from_exception(exc_info.value).to_json()

    def test_failure_carries_blame_chain(self):
        failure = self._fail("tree")
        assert failure["blame"], failure
        root = failure["blame"][-1]
        assert "src" not in root
        assert root["cause"] == "pointer-arith"

    def test_engines_report_identical_blame(self):
        tree = self._fail("tree")
        closures = self._fail("closures")
        assert tree == closures

    def test_no_blame_without_provenance(self):
        cured = cure_src(OOB, provenance=False)
        with pytest.raises(MemorySafetyError) as exc_info:
            run_cured(cured)
        failure = CheckFailure.from_exception(exc_info.value)
        assert failure.blame is None


class TestExplainCLI:
    def test_workload_exit_zero(self, capsys):
        assert main(["explain", "olden_power"]) == 0
        out = capsys.readouterr().out
        assert "pointer declaration" in out

    def test_unknown_workload_exit_two(self, capsys):
        assert main(["explain", "no_such_workload"]) == 2

    def test_file_target(self, tmp_path, capsys):
        path = tmp_path / "evil.c"
        path.write_text(EVIL)
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "WILD root causes" in out
        assert "bad-cast" in out

    def test_json_output_is_stable(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["explain", "ptrdist_anagram",
                         "--json", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["schema"] == "repro.obs.blame/1"
        assert payload["root_causes"]

    def test_function_filter(self, capsys):
        assert main(["explain", "ptrdist_anagram",
                     "--function", "add_word"]) == 0
        out = capsys.readouterr().out
        assert "add_word" in out

    def test_diff_requires_both_sides(self, capsys):
        assert main(["explain", "diff"]) == 2

    def test_diff_exit_codes(self, tmp_path, capsys):
        def dump(src, name):
            rep = explain_report(_cure_prov(src, name), name)
            path = tmp_path / (name + ".json")
            path.write_text(stable_dumps(rep))
            return str(path)

        fixed = EVIL.replace("(struct blob *)c",
                             "(struct blob *)__trusted_cast(c)")
        evil_p, fixed_p = dump(EVIL, "evil"), dump(fixed, "fixed")
        assert main(["explain", "diff", "--baseline", evil_p,
                     "--current", fixed_p]) == 0
        out = capsys.readouterr().out
        assert "IMPROVED" in out
        assert main(["explain", "diff", "--baseline", fixed_p,
                     "--current", evil_p]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_diff_rejects_bad_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(["explain", "diff", "--baseline", str(bad),
                     "--current", str(bad)]) == 2


class TestMetricsIntegration:
    def test_root_causes_present_with_provenance(self):
        from repro.obs import collect_workload_metrics
        wm = collect_workload_metrics(get("ptrdist_anagram"),
                                      provenance=True)
        assert wm.root_causes is not None
        assert "SEQ" in wm.root_causes
        assert "root_causes" in wm.to_json()

    def test_root_causes_absent_without_provenance(self):
        from repro.obs import collect_workload_metrics
        wm = collect_workload_metrics(get("olden_power"))
        assert wm.root_causes is None
        assert "root_causes" not in wm.to_json()


class TestChromeTrace:
    def test_trace_event_structure(self):
        t = Tracer()
        with t.capture() as records:
            with t.span("cure", name="w"):
                with t.span("parse"):
                    pass
        doc = chrome_trace(records)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert metas and len(spans) == 2
        names = {e["name"] for e in spans}
        assert names == {"cure", "parse"}
        for e in spans:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] == metas[0]["pid"]

    def test_cli_metrics_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["metrics", "--workload", "olden_power",
                     "--trace", str(trace), "--quiet"]) == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "workload" in names

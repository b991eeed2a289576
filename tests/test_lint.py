"""Tests for ``repro lint``: must-fail static diagnostics.

Covers the guard-refinement dataflow (early-return and short-circuit
idioms), each diagnostic class E001-E006 on targeted snippets, the
zero-false-positive sweep over every pristine workload, the
differential validation against the fault campaign's own variants,
suppression comments, byte-determinism of the JSON report, and the
CLI surface.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (build_cfg, lint_source, lint_workload,
                            reports_json, reports_sarif, solve)
from repro.analysis.dataflow import ptr_var, transfer_instr
from repro.cil import stmt as S
from repro.cli import main
from repro.core import CureOptions, cure
from repro.core.options import OPTIMIZE_LEVELS
from repro.faults.lintval import STATIC_CLASSES
from repro.faults.mutators import graft, make_variant
from repro.sweep import sharded_lintval
from repro.workloads import all_workloads, get

ALL_NAMES = [w.name for w in all_workloads()]


def _facts_at_first_check(source, fname, kind):
    """In-facts of the base must-analysis right before the first
    check of ``kind`` in ``fname`` (plus the check itself)."""
    cured = cure(source, options=CureOptions(optimize="none"))
    fd = cured.prog.functions[fname]
    cfg = build_cfg(fd)
    dom, ins = solve(cfg)
    for b in cfg.rpo():
        facts = set(ins[b.bid])
        for i in b.instrs:
            if isinstance(i, S.Check) and i.kind is kind:
                return facts, i
            transfer_instr(dom, facts, i)
    raise AssertionError(f"no {kind} check in {fname}")


class TestGuardRefinement:
    """Satellite: branch_facts + join forwarding see through the
    common C guard idioms, including short-circuit lowering."""

    def test_early_return_guard_proves_nonnull(self):
        src = ("int f(int *p) {\n"
               "  if (p == 0) return 0;\n"
               "  return *p;\n"
               "}\n")
        facts, c = _facts_at_first_check(src, "f", S.CheckKind.NULL)
        v = ptr_var(c.args[0])
        assert ("nonnull", v.vid) in facts
        assert ("nez", v.vid) in facts

    def test_or_guard_proves_nonnull(self):
        # lowered through a __cil_sc temp diamond: needs empty-join
        # forwarding plus infeasible-edge pruning to refine
        src = ("int f(int *p, int g) {\n"
               "  if (p == 0 || g == 0) return 0;\n"
               "  return *p;\n"
               "}\n")
        facts, c = _facts_at_first_check(src, "f", S.CheckKind.NULL)
        v = ptr_var(c.args[0])
        assert ("nonnull", v.vid) in facts

    def test_and_guard_proves_nonnull_inside(self):
        src = ("int f(int *p, int g) {\n"
               "  if (p != 0 && g != 0) return *p;\n"
               "  return 0;\n"
               "}\n")
        facts, c = _facts_at_first_check(src, "f", S.CheckKind.NULL)
        v = ptr_var(c.args[0])
        assert ("nonnull", v.vid) in facts

    def test_null_arm_proves_eqz(self):
        src = ("int f(int *p) {\n"
               "  if (p == 0) return *p;\n"
               "  return 0;\n"
               "}\n")
        facts, c = _facts_at_first_check(src, "f", S.CheckKind.NULL)
        v = ptr_var(c.args[0])
        assert ("eqz", v.vid) in facts

    def test_guarded_deref_not_flagged(self):
        src = ("int f(int *p, int n) {\n"
               "  if (p == 0 || n == 0) return -1;\n"
               "  return *p;\n"
               "}\n")
        rep = lint_source(src, provenance=False)
        assert rep.diagnostics == []

    def test_loop_back_edges_survive_forwarding(self):
        # the empty-join forwarder must leave loop structure alone
        src = ("int f(int *p, int n) {\n"
               "  int s = 0; int i;\n"
               "  for (i = 0; i < n && p != 0; i++) s = s + *p;\n"
               "  return s;\n"
               "}\n")
        cured = cure(src, options=CureOptions(optimize="none"))
        cfg = build_cfg(cured.prog.functions["f"])
        assert cfg.n_back_edges >= 1
        rep = lint_source(src, provenance=False)
        assert rep.diagnostics == []


class TestDiagnosticClasses:
    def test_e001_null_deref(self):
        rep = lint_source("int main(void) {\n"
                          "  int *p = 0;\n"
                          "  *p = 1;\n"
                          "  return 0;\n"
                          "}\n", name="t", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E001"]
        d = rep.diagnostics[0]
        assert (d.file, d.line) == ("t.c", 3)
        assert d.function == "main"
        assert any("assigned null" in s.note for s in d.path)

    def test_e002_constant_overrun(self):
        rep = lint_source("int main(void) {\n"
                          "  int a[4];\n"
                          "  int *q = a;\n"
                          "  q[4] = 1;\n"
                          "  return 0;\n"
                          "}\n", name="t", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E002"]
        assert rep.diagnostics[0].line == 4

    def test_e002_in_range_not_flagged(self):
        rep = lint_source("int main(void) {\n"
                          "  int a[4];\n"
                          "  int *q = a;\n"
                          "  q[3] = 1;\n"
                          "  return 0;\n"
                          "}\n", provenance=False)
        assert rep.diagnostics == []

    def test_e003_double_free(self):
        rep = lint_source("extern void *malloc(int n);\n"
                          "extern void free(void *p);\n"
                          "int main(void) {\n"
                          "  int *h = (int *)malloc(8);\n"
                          "  free(h);\n"
                          "  free(h);\n"
                          "  return 0;\n"
                          "}\n", name="t", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E003"]
        d = rep.diagnostics[0]
        assert d.line == 6 and d.check == "free" and d.site == -1

    def test_free_null_is_legal(self):
        rep = lint_source("extern void free(void *p);\n"
                          "int main(void) {\n"
                          "  int *p = 0;\n"
                          "  free(p);\n"
                          "  free(p);\n"
                          "  return 0;\n"
                          "}\n", provenance=False)
        assert rep.diagnostics == []

    def test_e004_use_after_free(self):
        rep = lint_source("extern void *malloc(int n);\n"
                          "extern void free(void *p);\n"
                          "int main(void) {\n"
                          "  int *h = (int *)malloc(8);\n"
                          "  h[0] = 1;\n"
                          "  free(h);\n"
                          "  return h[0];\n"
                          "}\n", name="t", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E004"]
        assert rep.diagnostics[0].line == 7
        assert any("freed here" in s.note
                   for s in rep.diagnostics[0].path)

    def test_e005_uninitialized(self):
        rep = lint_source("int main(void) {\n"
                          "  int *u;\n"
                          "  return *u;\n"
                          "}\n", name="t", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E005"]
        assert any("without an initializer" in s.note
                   for s in rep.diagnostics[0].path)

    def test_e005_killed_by_either_arm(self):
        rep = lint_source("int main(int argc, char **argv) {\n"
                          "  int x = 1; int y = 2; int *p;\n"
                          "  if (argc > 1) p = &x; else p = &y;\n"
                          "  return *p;\n"
                          "}\n", provenance=False)
        assert rep.diagnostics == []

    def test_e006_stack_free(self):
        rep = lint_source("extern void free(void *p);\n"
                          "int main(void) {\n"
                          "  int x = 3;\n"
                          "  free(&x);\n"
                          "  return 0;\n"
                          "}\n", name="t", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E006"]
        assert "stack local" in rep.diagnostics[0].message

    def test_e006_interior_free(self):
        rep = lint_source("extern void *malloc(int n);\n"
                          "extern void free(void *p);\n"
                          "int main(void) {\n"
                          "  int *h = (int *)malloc(16);\n"
                          "  free(h + 2);\n"
                          "  return 0;\n"
                          "}\n", provenance=False)
        assert [d.code for d in rep.diagnostics] == ["repro-E006"]

    def test_infeasible_arm_not_diagnosed(self):
        # `p != 0` out of an eqz(p) state: the arm is unreachable
        rep = lint_source("int main(void) {\n"
                          "  int *p = 0;\n"
                          "  if (p != 0) { *p = 1; }\n"
                          "  return 0;\n"
                          "}\n", provenance=False)
        assert rep.diagnostics == []

    def test_code_after_return_not_diagnosed(self):
        rep = lint_source("int main(void) {\n"
                          "  int *p = 0;\n"
                          "  return 0;\n"
                          "  *p = 1;\n"
                          "}\n", provenance=False)
        assert rep.diagnostics == []


class TestBlame:
    def test_blame_attached_with_provenance(self):
        src = ("int main(void) {\n"
               "  int a[4];\n"
               "  int *q = a;\n"
               "  q[4] = 1;\n"
               "  return 0;\n"
               "}\n")
        rep = lint_source(src, provenance=True)
        (d,) = rep.diagnostics
        assert d.blame is not None
        assert d.blame["steps"], "blame chain has steps"
        rep2 = lint_source(src, provenance=False)
        assert rep2.diagnostics[0].blame is None


class TestSuppression:
    SRC = ("int main(void) {\n"
           "  int *p = 0;\n"
           "  /* repro-lint: ignore */\n"
           "  *p = 1;\n"
           "  return 0;\n"
           "}\n")

    def test_comment_above_suppresses(self):
        rep = lint_source(self.SRC, provenance=False)
        assert rep.diagnostics == [] and rep.suppressed == 1

    def test_trailing_comment_suppresses(self):
        rep = lint_source("int main(void) {\n"
                          "  int *p = 0;\n"
                          "  *p = 1; /* repro-lint: ignore */\n"
                          "  return 0;\n"
                          "}\n", provenance=False)
        assert rep.diagnostics == [] and rep.suppressed == 1

    def test_graft_merges_fragment_suppressions(self):
        from repro.faults.mutators import FaultSpec
        from repro.frontend import parse_program
        from repro.runtime import checks as C
        spec = FaultSpec(
            mclass="null-deref", expected=C.NullDereferenceError,
            source=("int main(void) {\n"
                    "  int *__fi_p = (int *)0;\n"
                    "  *__fi_p = 1; /* repro-lint: ignore */\n"
                    "  return 0;\n"
                    "}\n"),
            description="suppressed null deref")
        target = parse_program("int main(void) { return 0; }\n",
                               name="host")
        graft(target, spec, name="host+null-deref")
        assert ("host+null-deref.c", 3) in target.lint_suppressions
        from repro.analysis import lint_cured
        cured = cure(target, options=CureOptions(optimize="flow"),
                     name="host+null-deref")
        rep = lint_cured(cured)
        assert rep.diagnostics == [] and rep.suppressed == 1


class TestDeterminism:
    SRC = ("extern void *malloc(int n);\n"
           "extern void free(void *p);\n"
           "int main(void) {\n"
           "  int *p = 0;\n"
           "  int a[4];\n"
           "  int *q = a;\n"
           "  int *h = (int *)malloc(8);\n"
           "  *p = 1;\n"
           "  q[9] = 2;\n"
           "  free(h);\n"
           "  free(h);\n"
           "  return 0;\n"
           "}\n")

    def test_reports_json_byte_identical(self):
        a = reports_json([lint_source(self.SRC, name="d")])
        b = reports_json([lint_source(self.SRC, name="d")])
        assert a == b
        assert a.endswith("\n")

    def test_diagnostics_sorted_by_file_line_site(self):
        rep = lint_source(self.SRC, name="d", provenance=False)
        keys = [d.sort_key() for d in rep.diagnostics]
        assert keys == sorted(keys)
        assert [d.code for d in rep.diagnostics] == [
            "repro-E001", "repro-E002", "repro-E003"]

    def test_sarif_shape(self):
        import json
        doc = json.loads(reports_sarif(
            [lint_source(self.SRC, name="d", provenance=False)]))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {
            f"repro-E00{i}" for i in range(1, 7)}
        assert {r["ruleId"] for r in run["results"]} == {
            "repro-E001", "repro-E002", "repro-E003"}


class TestPristineWorkloads:
    """The zero-false-positive contract: every benchmark workload is
    running code, so no must-fail site can be reachable."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_zero_findings_at_flow(self, name):
        rep = lint_workload(get(name), optimize="flow",
                            provenance=False)
        assert rep.diagnostics == [], [
            d.to_json() for d in rep.diagnostics]

    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(ALL_NAMES),
           level=st.sampled_from(OPTIMIZE_LEVELS))
    def test_zero_findings_any_level(self, name, level):
        rep = lint_workload(get(name), optimize=level,
                            provenance=False)
        assert rep.diagnostics == []


class TestCampaignValidation:
    """Differential: the statically-decidable campaign classes are
    flagged at the grafted site with the expected code, and the
    surrounding workload stays clean."""

    def test_smoke_static_classes_all_flagged(self):
        ws = [get("olden_power"), get("ptrdist_anagram")]
        val = sharded_lintval(
            1, workloads=ws, classes=sorted(STATIC_CLASSES),
            optimize="flow")
        assert val.ok, val.render()
        assert val.recall == 1.0 and val.precision == 1.0
        assert val.static_variants == 2 * len(STATIC_CLASSES)

    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mclass=st.sampled_from(sorted(STATIC_CLASSES)),
           seed=st.integers(min_value=0, max_value=9999))
    def test_fragment_flips_exactly_expected_code(self, mclass, seed):
        spec = make_variant("prop", mclass, seed)
        rep = lint_source(spec.source, name="frag",
                          temporal=spec.temporal, provenance=False)
        codes = {d.code for d in rep.diagnostics}
        assert codes == {STATIC_CLASSES[mclass]}

    def test_validation_json_deterministic(self):
        ws = [get("olden_power")]
        a = sharded_lintval(7, workloads=ws,
                            classes=["null-deref"]).dumps()
        b = sharded_lintval(7, workloads=ws,
                            classes=["null-deref"]).dumps()
        assert a == b


class TestCli:
    BUG = ("int main(void) {\n"
           "  int *p = 0;\n"
           "  *p = 1;\n"
           "  return 0;\n"
           "}\n")

    @pytest.fixture
    def bug_c(self, tmp_path):
        path = tmp_path / "bug.c"
        path.write_text(self.BUG)
        return str(path)

    def test_text_finding_exits_1(self, bug_c, capsys):
        assert main(["lint", bug_c]) == 1
        out = capsys.readouterr().out
        assert "repro-E001" in out and "definitely null" in out

    def test_fail_on_never(self, bug_c):
        assert main(["lint", bug_c, "--fail-on", "never"]) == 0

    def test_json_output(self, bug_c, tmp_path, capsys):
        out = tmp_path / "lint.json"
        assert main(["lint", bug_c, "--format", "json",
                     "-o", str(out), "--fail-on", "never"]) == 0
        import json
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.analysis.lint/1"
        assert doc["reports"][0]["counts"] == {"repro-E001": 1}

    def test_sarif_stdout(self, bug_c, capsys):
        assert main(["lint", bug_c, "--format", "sarif",
                     "--fail-on", "never"]) == 0
        assert '"2.1.0"' in capsys.readouterr().out

    def test_clean_workload_exits_0(self, capsys):
        assert main(["lint", "--workload", "olden_power",
                     "--quiet"]) == 0
        assert "no must-fail sites" in capsys.readouterr().out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["lint", "--workload", "nope"]) == 2

    def test_no_target_exits_2(self, capsys):
        assert main(["lint"]) == 2

    def test_faults_lint_subcommand(self, capsys):
        assert main(["faults", "lint", "--seed", "1",
                     "--workloads", "olden_power",
                     "--classes", "null-deref,double-free",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "precision 100%" in out and "recall 100%" in out

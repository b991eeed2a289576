"""Tests for the flow-sensitive analysis package (``repro.analysis``).

Three layers:

* CFG construction units — block/edge shapes for straight-line code,
  branches, loops (including ``for``-increment ``continue`` targets)
  and unreachable code;
* dataflow + eliminator soundness edges — the satellite checklist:
  address-taken locals mutated through aliases, facts killed across
  ``Call``, loop-carried facts, and ``if``/``else`` joins where only
  one arm proves the fact;
* the whole-suite sweep — the flow pass must eliminate at least as
  many checks as the straight-line pass everywhere, strictly more on
  most workloads, with bit-identical observable behaviour at every
  level under both engines.
"""

import pytest
from helpers import cure_src

from repro.analysis import build_cfg
from repro.bench import pristine_cure
from repro.core import CureOptions, cure
from repro.frontend import parse_program
from repro.interp import Interpreter, run_cured
from repro.runtime.checks import NullDereferenceError
from repro.workloads import all_workloads

SCALE = 2

#: elimination levels a sweep compares
LEVELS = ("none", "local", "flow")


def _fundec(src: str, name: str = "main"):
    return parse_program(src, "cfgt").function(name)


def _null_checks(cured) -> int:
    return cured.to_c().count("__CHECK_NULL(")


# -- CFG construction --------------------------------------------------------

class TestCfg:
    def test_straight_line(self):
        cfg = build_cfg(_fundec("""
        int main(void) { int x = 1; int y = x + 1; return y; }
        """))
        order = cfg.rpo()
        assert order[0] is cfg.entry
        assert cfg.n_back_edges == 0
        # all instructions live on one path from entry to exit
        assert sum(len(b.instrs) for b in cfg.blocks) >= 2

    def test_if_edges_carry_condition_and_polarity(self):
        cfg = build_cfg(_fundec("""
        int main(void) {
          int x = 1;
          if (x) { x = 2; } else { x = 3; }
          return x;
        }
        """))
        branch = [e for b in cfg.blocks for e in b.succs
                  if e.cond is not None]
        assert len(branch) == 2
        assert {e.polarity for e in branch} == {True, False}
        assert branch[0].src is branch[1].src

    def test_loop_has_back_edge(self):
        cfg = build_cfg(_fundec("""
        int main(void) {
          int i = 0;
          int s = 0;
          while (i < 4) { s = s + i; i = i + 1; }
          return s;
        }
        """))
        assert cfg.n_back_edges >= 1

    def test_for_continue_reaches_increment(self):
        # ``continue`` must still execute the for-increment, i.e. the
        # loop's trailing statements: the continue edge lands on the
        # increment block (a non-back edge), and the increment block
        # carries the back edge.
        fd = _fundec("""
        int main(void) {
          int i;
          int s = 0;
          for (i = 0; i < 6; i = i + 1) {
            if (i == 2) continue;
            s = s + i;
          }
          return s;
        }
        """)
        cfg = build_cfg(fd)
        assert cfg.n_back_edges == 1
        back = [e for b in cfg.blocks for e in b.succs if e.back]
        # the back-edge source holds the increment (an instruction),
        # so continue jumped somewhere that still runs it
        assert back[0].src.instrs, \
            "back edge must come from the increment block"

    def test_unreachable_code_is_parked(self):
        cfg = build_cfg(_fundec("""
        int main(void) {
          int x = 1;
          return x;
          x = 2;
        }
        """))
        parked = [b for b in cfg.blocks
                  if b is not cfg.entry and not b.preds and b.instrs]
        assert parked, "code after return must be predecessor-less"


# -- soundness edges (satellite checklist) -----------------------------------

class TestSoundnessEdges:
    def test_branch_guard_alone_does_not_remove_null_check(self):
        # ``if (p)`` proves NonNull but not Alive: p could be a
        # dangling non-null pointer, so the check must stay.
        cured = cure_src("""
        int deref(int *p) {
          int a = 0;
          if (p) { a = *p; }
          return a;
        }
        int main(void) { int x = 3; return deref(&x); }
        """, optimize="flow")
        assert _null_checks(cured) >= 1

    def test_provenance_proves_checks_in_both_arms(self):
        cured = cure_src("""
        int main(void) {
          int x = 1;
          int c = 0;
          int *p = &x;
          int a;
          if (c) { a = *p; } else { a = *p + 1; }
          return a;
        }
        """, optimize="flow")
        assert _null_checks(cured) == 0

    def test_join_keeps_fact_proven_on_both_paths(self):
        # The check before the join is performed on every path, so
        # the one after the join is redundant — across statement
        # boundaries, which the local pass cannot see.
        src = """
        int f(int *p, int c) {
          int a = *p;
          if (c) { a = a + 1; }
          return a + *p;
        }
        int main(void) { int x = 2; return f(&x, 1); }
        """
        local = cure(src, options=CureOptions(optimize="local"),
                     name="l")
        flow = cure(src, options=CureOptions(optimize="flow"),
                    name="f")
        assert flow.checks_removed > local.checks_removed
        assert _null_checks(flow) < _null_checks(local)

    def test_one_arm_only_proof_does_not_survive_join(self):
        # Only the then-arm dereferences p; after the join the fact
        # is not a *must* fact, so the final check stays.
        cured = cure_src("""
        int f(int *p, int c) {
          int a = 0;
          if (c) { a = *p; } else { a = 1; }
          return a + *p;
        }
        int main(void) { int x = 2; return f(&x, 0); }
        """, optimize="flow")
        # both f's checks survive: the then-arm one (p is a bare
        # formal, no provenance) and the post-join one
        assert _null_checks(cured) >= 2

    def test_call_kills_facts(self):
        cured = cure_src("""
        int g;
        int touch(void) { g = 1; return 0; }
        int f(int *p) {
          int a = *p;
          touch();
          return a + *p;
        }
        int main(void) { int x = 2; return f(&x); }
        """, optimize="flow")
        src = cured.to_c()
        # both dereferences in f keep their checks
        f_body = src[src.index("int f("):src.index("int main(")]
        assert f_body.count("__CHECK_NULL(") == 2

    def test_address_taken_alias_mutation_traps(self):
        # p's facts must die at ``*pp = 0`` even though p itself is
        # never named on the left-hand side again.
        cured = cure_src("""
        int main(void) {
          int x = 1;
          int *p = &x;
          int **pp = &p;
          int a = *p;
          *pp = 0;
          int b = *p;
          return a + b;
        }
        """, optimize="flow")
        with pytest.raises(NullDereferenceError):
            run_cured(cured)

    def test_loop_variant_fact_not_hoisted(self):
        # p moves every iteration: its bounds check is not loop-
        # invariant and must fire on the overflowing access.
        from repro.runtime.checks import BoundsError
        cured = cure_src("""
        int main(void) {
          int arr[4];
          int *p = arr;
          int i;
          int s = 0;
          for (i = 0; i < 8; i = i + 1) {
            s = s + *p;
            p = p + 1;
          }
          return s;
        }
        """, optimize="flow")
        with pytest.raises(BoundsError):
            run_cured(cured)

    def test_loop_invariant_fact_eliminated(self):
        # q never changes inside the loop: the flow pass proves its
        # check once for the whole loop, the local pass cannot.
        src = """
        int main(void) {
          int arr[4];
          int *q = arr;
          int i;
          int s = 0;
          for (i = 0; i < 4; i = i + 1) {
            s = s + *q;
          }
          return s;
        }
        """
        local = cure(src, options=CureOptions(optimize="local"),
                     name="l")
        flow = cure(src, options=CureOptions(optimize="flow"),
                    name="f")
        assert flow.checks_removed > local.checks_removed
        r_local = run_cured(local)
        r_flow = run_cured(flow)
        assert (r_flow.status, r_flow.stdout) == \
            (r_local.status, r_local.stdout)
        assert r_flow.checks_executed < r_local.checks_executed

    def test_eliminated_checks_charge_nothing(self):
        src = """
        int main(void) {
          int x = 5;
          int *p = &x;
          return *p + *p;
        }
        """
        none = cure(src, options=CureOptions(optimize="none"),
                    name="n")
        flow = cure(src, options=CureOptions(optimize="flow"),
                    name="f")
        r_none = run_cured(none)
        r_flow = run_cured(flow)
        assert r_flow.checks_executed < r_none.checks_executed
        assert r_flow.cycles < r_none.cycles
        assert (r_flow.status, r_flow.stdout) == \
            (r_none.status, r_none.stdout)


# -- whole-suite sweep -------------------------------------------------------

def _counts(w):
    return {lvl: pristine_cure(
        w, options=CureOptions(optimize=lvl),
        scale=SCALE).checks_removed for lvl in LEVELS}


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_flow_dominates_local(w):
    c = _counts(w)
    assert c["none"] == 0
    assert c["flow"] >= c["local"], (
        f"{w.name}: flow removed {c['flow']} < local {c['local']}")


def test_flow_strictly_better_on_most_workloads():
    wins = sum(1 for w in all_workloads()
               if (c := _counts(w))["flow"] > c["local"])
    assert wins >= 20, f"flow > local on only {wins}/27 workloads"


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_levels_behaviour_identical(w):
    args = list(w.args) or None

    def sig(lvl, engine):
        cured = pristine_cure(w, options=CureOptions(optimize=lvl),
                              scale=SCALE)
        r = Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                        engine=engine).run(args)
        return (r.status, r.stdout)

    ref = sig("none", "closures")
    assert sig("local", "closures") == ref
    assert sig("flow", "closures") == ref
    assert sig("flow", "tree") == ref


@pytest.mark.parametrize("name", ["olden_em3d", "ptrdist_anagram"])
def test_analyze_workload_leaves_shared_cure_unchanged(name):
    # ``repro analyze`` reads the shared pristine cure: the local pass
    # runs on a copy of each function, the flow pass only reads.
    from repro.analysis import analyze_workload
    from repro.workloads import get
    w = get(name)
    opts = CureOptions(optimize="none")
    shared = pristine_cure(w, options=opts, scale=SCALE)
    before = (shared.to_c(), shared.report())
    stats = analyze_workload(w, scale=SCALE)
    assert stats["totals"]["elided_local"] > 0
    assert pristine_cure(w, options=opts, scale=SCALE) is shared
    assert (shared.to_c(), shared.report()) == before

"""Differential test: the closure-compiled engine must be
bit-identical to the tree-walking oracle.

Every workload in the suite runs under both engines, cured and raw,
and the observable machine state — exit status, stdout, deterministic
cycle count, step count and the whole count vector the cycles are
priced from — must match exactly.  This is what licenses using the
fast engine for the paper's measurements: any divergence in counts,
evaluation order or error behaviour shows up as a count or output
mismatch here, in the category where it happened.
"""

import pytest

from repro.baselines import PurifyChecker, ValgrindChecker
from repro.bench import pristine_cure, pristine_parse
from repro.cil import stmt as S
from repro.core import cure
from repro.frontend import parse_program
from repro.interp import Interpreter
from repro.runtime.checks import InterpreterLimitError
from repro.workloads import all_workloads, get

#: small deterministic problem size: parity does not depend on scale,
#: and the whole suite × 2 modes × 2 engines must stay cheap.
SCALE = 2


def _signature(ip, args):
    res = ip.run(args)
    return (res.status, res.stdout, res.cost.cycles, res.steps,
            res.cost.counts())


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_raw_parity(w):
    prog = pristine_parse(w, SCALE)
    args = list(w.args) or None
    tree = _signature(
        Interpreter(prog, stdin=w.stdin, engine="tree"), args)
    clos = _signature(
        Interpreter(prog, stdin=w.stdin, engine="closures"), args)
    assert tree == clos, (
        f"{w.name}: raw closures diverged from tree oracle\n"
        f"  tree:     status={tree[0]} cycles={tree[2]} "
        f"steps={tree[3]} counts={tree[4]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]} counts={clos[4]}")


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_cured_parity(w):
    cured = pristine_cure(w, scale=SCALE)
    args = list(w.args) or None
    tree = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="tree"), args)
    clos = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures"), args)
    assert tree == clos, (
        f"{w.name}: cured closures diverged from tree oracle\n"
        f"  tree:     status={tree[0]} cycles={tree[2]} "
        f"steps={tree[3]} counts={tree[4]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]} counts={clos[4]}")


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_temporal_reuse_parity(w):
    """Temporal checking + the recycling allocator: both engines stay
    bit-identical, and a *clean* workload is unaffected by address
    reuse — it frees nothing it later touches, so recycling must not
    change its status or output (only keys and lock-table traffic)."""
    from repro.core.options import CureOptions

    cured = pristine_cure(w, options=CureOptions(
        trust_bad_casts=w.trust_bad_casts, temporal=True),
        scale=SCALE)
    args = list(w.args) or None
    tree = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="tree", reuse_freed=True), args)
    clos = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures", reuse_freed=True), args)
    assert tree == clos, (
        f"{w.name}: temporal+reuse closures diverged from tree\n"
        f"  tree:     status={tree[0]} cycles={tree[2]} "
        f"steps={tree[3]} counts={tree[4]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]} counts={clos[4]}")
    # the recycling allocator is invisible to a correct program:
    # status and stdout match the never-reuse temporal run
    plain = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures"), args)
    assert (tree[0], tree[1]) == (plain[0], plain[1]), (
        f"{w.name}: address reuse changed a clean program's "
        f"observable behaviour")


#: the cheapest suite programs under a shadow tool on the tree walker
SHADOW_PARITY = ("ftpd", "openssh_like", "sendmail_like", "bind_like",
                 "olden_treeadd", "olden_power", "spec_ijpeg", "spec_li")


@pytest.mark.parametrize("tool", (PurifyChecker, ValgrindChecker),
                         ids=lambda t: t.name)
@pytest.mark.parametrize("name", SHADOW_PARITY)
def test_shadow_parity(name, tool):
    """The raw run under Purify or Valgrind: the shadow hooks see
    the same accesses, allocations and frees on both engines."""
    w = get(name)
    prog = pristine_parse(w, SCALE)
    args = list(w.args) or None
    tree = _signature(Interpreter(prog, stdin=w.stdin, engine="tree",
                                  shadow=tool()), args)
    clos = _signature(Interpreter(prog, stdin=w.stdin,
                                  engine="closures", shadow=tool()),
                      args)
    assert tree == clos, (
        f"{name} under {tool.name}: engines diverged\n"
        f"  tree:     {tree[2:]}\n  closures: {clos[2:]}")


# ---------------------------------------------------------------------------
# Control flow: the closure engine returns break/continue/return signals
# where the tree walker raises; each shape must count identically.
# ---------------------------------------------------------------------------

#: name -> (source, expected stdout)
CONTROL_FLOW = {
    "return_from_nested_loop": (r"""
        #include <stdio.h>
        int find(int n, int want) {
          int i, j;
          for (i = 0; i < n; i++)
            for (j = 0; j < n; j++)
              if (i * j == want) return i * 100 + j;
          return -1;
        }
        int main(void) {
          printf("%d %d\n", find(10, 12), find(3, 50));
          return 0;
        }""", "206 -1\n"),
    "break_leaves_inner_loop_only": (r"""
        #include <stdio.h>
        int main(void) {
          int i, j, s = 0;
          for (i = 0; i < 4; i++) {
            for (j = 0; j < 10; j++) { if (j == i) break; s += 10; }
            s += 1;
          }
          printf("%d\n", s);
          return 0;
        }""", "64\n"),
    "continue_runs_for_post": (r"""
        #include <stdio.h>
        int main(void) {
          int i, s = 0;
          for (i = 0; i < 10; i++) { if (i % 3 == 0) continue; s += i; }
          printf("%d %d\n", s, i);
          return 0;
        }""", "27 10\n"),
    "continue_runs_do_while_test": (r"""
        #include <stdio.h>
        int main(void) {
          int k = 0, s = 0;
          do { k++; if (k == 3) continue; s += k; } while (k < 6);
          printf("%d %d\n", s, k);
          return 0;
        }""", "18 6\n"),
    "switch_arms_break_and_return": (r"""
        #include <stdio.h>
        int classify(int n) {
          int i, s = 0;
          for (i = 0; i < n; i++) {
            switch (i % 5) {
            case 0: s += 1; break;
            case 1: case 2: s += 10; break;
            case 3: if (i > 5) return s; break;
            default: s += 100; break;
            }
            s += 1000;
          }
          return s;
        }
        int main(void) {
          printf("%d %d\n", classify(3), classify(12));
          return 0;
        }""", "3021 8142\n"),
    "qsort_comparator_returns_from_loop": (r"""
        #include <stdio.h>
        #include <stdlib.h>
        int cmp(const void *a, const void *b) {
          const int *x = (const int *)a;
          const int *y = (const int *)b;
          int i;
          for (i = 0; i < 8; i++) {
            if (*x < *y) return -1;
            if (*x > *y) return 1;
          }
          return 0;
        }
        int main(void) {
          int v[6] = { 9, 1, 8, 2, 7, 1 };
          int i;
          qsort((void *)v, 6, sizeof(int), cmp);
          for (i = 0; i < 6; i++) printf("%d ", v[i]);
          printf("\n");
          return 0;
        }""", "1 1 2 7 8 9 \n"),
    "recursion": (r"""
        #include <stdio.h>
        int fib(int n) {
          if (n < 2) return n;
          return fib(n - 1) + fib(n - 2);
        }
        int depth(int n) {
          while (n > 0) { return 1 + depth(n - 1); }
          return 0;
        }
        int main(void) {
          printf("%d %d\n", fib(12), depth(30));
          return 0;
        }""", "144 30\n"),
}


def _control_flow_run(src, mode, engine, **kw):
    if mode == "cured":
        cured = cure(src, name="cf")
        return Interpreter(cured.prog, cured=cured, engine=engine, **kw)
    return Interpreter(parse_program(src, "cf"), engine=engine, **kw)


@pytest.mark.parametrize("mode", ("cured", "raw"))
@pytest.mark.parametrize("name", sorted(CONTROL_FLOW))
def test_control_flow_parity(name, mode):
    src, expected = CONTROL_FLOW[name]
    sigs = []
    for engine in ("closures", "tree"):
        res = _control_flow_run(src, mode, engine).run()
        sigs.append((res.status, res.stdout, res.steps, res.cycles,
                     res.checks_executed, res.cost.counts()))
    assert sigs[0] == sigs[1], f"{name} ({mode}): {sigs}"
    assert sigs[0][:2] == (0, expected)


@pytest.mark.parametrize("mode", ("cured", "raw"))
def test_step_budget_trap_mid_loop(mode):
    src, _ = CONTROL_FLOW["break_leaves_inner_loop_only"]
    at = []
    for engine in ("closures", "tree"):
        ip = _control_flow_run(src, mode, engine, max_steps=50)
        with pytest.raises(InterpreterLimitError):
            ip.run()
        at.append((ip.steps, ip.cost.cycles, ip.cost.counts(),
                   ip.stdout_text()))
    assert at[0] == at[1]
    assert at[0][0] == 51  # one past the budget, in the loop (76 in all)


# ---------------------------------------------------------------------------
# The closure engine's seams: a statement is one generated fragment
# (one-instruction statements inline the instruction, operator trees
# fuse into If tests and Sets), a variable's load or store indexes its
# home directly unless it leaves the home, and a call binds its frame
# in bulk.  Each case traps or runs on both engines, raw and cured,
# and the whole outcome must agree.
# ---------------------------------------------------------------------------

#: calls from inside a multi-instruction statement (``x = f(a) + g(b)``
#: lowers to three instructions), fused If tests and Sets, and loops
BUDGET_SRC = r"""
#include <stdio.h>
int sq(int v) { return v * v; }
int tw(int v) { int k = v << 1; return k + 1; }
int main(void) {
  int i, s = 0, t = 3;
  for (i = 0; i < 4; i++) {
    s = sq(i) + tw(t);
    if (s > 9 && !(i & 1)) t = t + s % 7;
  }
  printf("%d %d\n", s, t);
  return 0;
}
"""

#: name -> source; each case ends in a trap on at least one side
SEAMS = {
    # a raw store and load past a global array land in its neighbour;
    # cured, the bounds check traps first
    "global_overrun_spills": r"""
        #include <stdio.h>
        int a[3];
        int b[3] = { 7, 8, 9 };
        int main(void) {
          int i, s = 0;
          for (i = 0; i < 5; i++) a[i] = 10 + i;
          for (i = 0; i < 5; i++) s += a[i];
          printf("%d %d %d %d\n", s, b[0], b[1], b[2]);
          return 0;
        }""",
    # the same with two locals on the stack
    "local_overrun_spills": r"""
        #include <stdio.h>
        int main(void) {
          int a[3];
          int b[3];
          int i, s = 0;
          for (i = 0; i < 3; i++) b[i] = i;
          for (i = 0; i < 5; i++) a[i] = 20 + i;
          for (i = 0; i < 5; i++) s += a[i];
          printf("%d %d %d\n", s, b[0], b[1]);
          return 0;
        }""",
    # short a[3] leaves two unmapped bytes before the next word
    "overrun_into_unmapped_bytes": r"""
        #include <stdio.h>
        short a[3];
        int main(void) {
          int i, s = 0;
          for (i = 0; i < 4; i++) s += a[i];
          printf("%d\n", s);
          return 0;
        }""",
    # the fused comparison's operand is a load that traps
    "trap_in_fused_comparison_operand": r"""
        #include <stdio.h>
        int main(void) {
          int *p = (int *)16;
          int n = 3;
          if (n + 1 < *p) printf("less\n");
          printf("done\n");
          return 0;
        }""",
    # fewer actuals than formals: the missing formal reads 0
    "call_with_fewer_actuals": r"""
        #include <stdio.h>
        int add3();
        int main(void) {
          printf("%d\n", add3(1, 2));
          return 0;
        }
        int add3(int a, int b, int c) { return a + b + c; }""",
    # an address-taken formal lives in a home, written at the call
    "address_taken_formal": r"""
        #include <stdio.h>
        int bump(int x, int y) {
          int *p = &x;
          *p = *p + y;
          return x;
        }
        int main(void) {
          printf("%d\n", bump(40, 2));
          return 0;
        }""",
    # recursion runs into the interpreter's call-depth limit
    "recursion_to_max_depth": r"""
        #include <stdio.h>
        int down(int n) { if (n < 0) return 0; return down(n + 1) + 1; }
        int main(void) {
          printf("%d\n", down(0));
          return 0;
        }""",
}


def _outcome(ip):
    """Everything a run shows, whether it ends or traps: the exit or
    the error (with its CheckFailure record), steps, the count vector
    and stdout so far."""
    try:
        end = (ip.run().status, None, None)
    except Exception as exc:  # the trap itself is the compared outcome
        end = (None, f"{type(exc).__name__}: {exc}",
               getattr(exc, "failure", None))
    return end + (ip.steps, ip.cost.counts(), ip.stdout_text())


@pytest.mark.parametrize("mode", ("cured", "raw"))
@pytest.mark.parametrize("name", sorted(SEAMS))
def test_seam_parity(name, mode):
    out = [_outcome(_control_flow_run(SEAMS[name], mode, engine))
           for engine in ("closures", "tree")]
    assert out[0] == out[1], f"{name} ({mode})"


def test_seams_trap_where_expected():
    raw = {name: _outcome(_control_flow_run(src, "raw", "tree"))
           for name, src in SEAMS.items()}
    # raw overruns corrupt the neighbour silently
    assert raw["global_overrun_spills"][5] == "60 13 14 9\n"
    assert raw["local_overrun_spills"][5] == "110 23 24\n"
    assert raw["overrun_into_unmapped_bytes"][1].startswith(
        "SegmentationFault")
    assert raw["trap_in_fused_comparison_operand"][1].startswith(
        "SegmentationFault")
    assert raw["call_with_fewer_actuals"][5] == "3\n"
    assert raw["address_taken_formal"][5] == "42\n"
    assert raw["recursion_to_max_depth"][1] == \
        "InterpreterLimitError: call depth exceeded"


@pytest.mark.parametrize("mode", ("cured", "raw"))
def test_step_budget_at_every_statement(mode):
    """A step budget that runs out at every statement in turn: the
    head of a fused one-instruction statement, of a multi-instruction
    one, and inside calls made from the middle of one."""
    total = _control_flow_run(BUDGET_SRC, mode, "tree").run().steps
    for budget in range(1, total):
        out = [_outcome(_control_flow_run(BUDGET_SRC, mode, engine,
                                          max_steps=budget))
               for engine in ("closures", "tree")]
        assert out[0] == out[1], f"budget {budget} ({mode})"
        assert out[0][3] == budget + 1


def test_budget_program_has_both_statement_shapes():
    prog = parse_program(BUDGET_SRC, "budget")
    sizes = set()

    def walk(block):
        for s in block.stmts:
            if isinstance(s, S.InstrStmt):
                sizes.add(min(len(s.instrs), 2))
            for sub in ("then", "els", "body"):
                if isinstance(getattr(s, sub, None), S.Block):
                    walk(getattr(s, sub))
            if isinstance(s, S.Block):
                walk(s)
    for fd in prog.functions.values():
        walk(fd.body)
    assert sizes == {1, 2}

"""Differential test: the closure-compiled engine must be
bit-identical to the tree-walking oracle.

Every workload in the suite runs under both engines, cured and raw,
and the observable machine state — exit status, stdout, deterministic
cycle count, step count — must match exactly.  This is what licenses
using the fast engine for the paper's measurements: any divergence in
charges, evaluation order or error behaviour shows up as a cycle or
output mismatch here.
"""

import pytest

from repro.bench import pristine_cure, pristine_parse
from repro.core import cure
from repro.frontend import parse_program
from repro.interp import Interpreter
from repro.runtime.checks import InterpreterLimitError
from repro.workloads import all_workloads

#: small deterministic problem size: parity does not depend on scale,
#: and the whole suite × 2 modes × 2 engines must stay cheap.
SCALE = 2


def _signature(ip, args):
    res = ip.run(args)
    return (res.status, res.stdout, res.cost.cycles, res.steps)


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
        f"steps={tree[3]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]}")


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
        f"steps={tree[3]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]}")


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
        f"steps={tree[3]}\n"
        f"  closures: status={clos[0]} cycles={clos[2]} "
        f"steps={clos[3]}")
    # the recycling allocator is invisible to a correct program:
    # status and stdout match the never-reuse temporal run
    plain = _signature(
        Interpreter(cured.prog, cured=cured, stdin=w.stdin,
                    engine="closures"), args)
    assert (tree[0], tree[1]) == (plain[0], plain[1]), (
        f"{w.name}: address reuse changed a clean program's "
        f"observable behaviour")


# ---------------------------------------------------------------------------
# Control flow: the closure engine returns break/continue/return signals
# where the tree walker raises; each shape must charge identically.
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
                     res.checks_executed))
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
        at.append((ip.steps, ip.cost.cycles, ip.stdout_text()))
    assert at[0] == at[1]
    assert at[0][0] == 51  # one past the budget, in the loop (76 in all)

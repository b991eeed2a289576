"""Microbenchmark: closure-compiled engine vs. the tree-walking
oracle on Spec-like workloads.

The interpreter is the measurement instrument, so its raw speed bounds
how much experiment the suite can afford.  This benchmark measures
steps/second of both engines on the same programs and asserts the
closure engine actually pays for itself.  ``repro bench`` records the
same cells in the ``BENCH_history.jsonl`` ledger.
"""

import pytest

from repro.bench import SUITE, measure_cell

from benchutil import run_once

#: the pinned trajectory suite (repro.bench.trajectory.SUITE):
#: pointer-heavy + arithmetic-heavy representatives at reduced scales —
#: the engine comparison is scale-independent, the tree-engine runs are
#: not cheap, and spec_compress at scale 3 shares its cure tree with
#: test_spec_overhead via the harness cache
WORKLOAD_NAMES = tuple(name for name, _scale in SUITE)
SCALES = dict(SUITE)


def _measure(w, mode, engine):
    # one measurement cell of the trajectory ledger (`repro bench`
    # shares this exact code path)
    return measure_cell(w, mode, engine, SCALES.get(w.name))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("mode", ("cured", "raw"))
def test_engine_speed(benchmark, name, mode):
    from repro.workloads import get
    w = get(name)
    tree = _measure(w, mode, "tree")
    # warm the compile cache outside the timed run, then measure the
    # steady state (one cure/parse tree is reused across runs)
    clos = run_once(benchmark, lambda: _measure(w, mode, "closures"))

    assert clos["steps"] == tree["steps"]
    assert clos["cycles"] == tree["cycles"]
    assert clos["status"] == tree["status"]

    speedup = (tree["seconds"] / clos["seconds"]
               if clos["seconds"] else float("inf"))
    # loose bound: the closure engine must never regress below the
    # tree walker (it is typically 2.5-4x faster; wall-clock noise on
    # a loaded CI box motivates the slack)
    assert speedup > 1.2, (
        f"{name} ({mode}): closures only {speedup:.2f}x vs tree")


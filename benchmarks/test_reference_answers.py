"""The timed engine's answers, byte for byte.

``python -m perf reference --check`` recomputes the known answers in
``perf/reference.json`` on the tree-walker oracle, and the engine
parity tests compare the two engines at a small scale.  This gate
checks the engine the paper's tables are measured with — the closure
engine behind :func:`repro.bench.run_workload`, at every program's
default scale — against those known answers: exit status, stdout
sha256, cycles, steps and checks executed, raw and cured.  The
reference file is only read.  The runs go through the harness memo,
so the Figure 8 and Figure 9 tests share them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench import run_workload
from repro.workloads import all_workloads

REFERENCE = Path(__file__).resolve().parents[1] / "perf" / "reference.json"
PROGRAMS = json.loads(REFERENCE.read_text(encoding="utf-8"))["programs"]


def _answer(run) -> dict:
    """A harness run in ``perf/reference.json``'s terms."""
    stdout = run.stdout.encode("utf-8", "surrogateescape")
    return {"status": run.status,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "cycles": run.cycles, "steps": run.steps,
            "checks_executed": run.checks}


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_closure_engine_matches_reference(w):
    row = run_workload(w)
    want = PROGRAMS[w.name]
    assert _answer(row.raw) == want["raw"], f"{w.name} raw"
    assert _answer(row.ccured) == want["cured"], f"{w.name} cured"

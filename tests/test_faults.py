"""Fault-injection engine tests: grafting, determinism, campaigns,
and the harness's failure containment."""

import copy

import pytest

from repro.bench.harness import (pristine_parse, run_suite)
from repro.core import CureOptions, cure
from repro.faults import (MUTATORS, make_variant, graft,
                          report_to_json)
from repro.faults.campaign import run_variant
from repro.interp import run_cured, run_raw
from repro.runtime.checks import BoundsError, InterpreterLimitError
from repro.sweep import sharded_campaign
from repro.workloads import Workload, get

SEED = 1337


# -- mutators ----------------------------------------------------------------

def test_make_variant_deterministic():
    a = make_variant("olden_power", "bounds-off-by-one", SEED)
    b = make_variant("olden_power", "bounds-off-by-one", SEED)
    c = make_variant("olden_power", "bounds-off-by-one", SEED + 1)
    d = make_variant("olden_em3d", "bounds-off-by-one", SEED)
    assert a.source == b.source and a.params == b.params
    assert (a.source, a.params) != (c.source, c.params) \
        or (a.source, a.params) != (d.source, d.params)


def test_unknown_class_rejected():
    with pytest.raises(KeyError):
        make_variant("olden_power", "no-such-class", SEED)


def test_graft_prepends_and_keeps_workload():
    w = get("olden_power")
    base = copy.deepcopy(pristine_parse(w, 2))
    n_before = len(base.functions["main"].body.stmts)
    spec = make_variant(w.name, "null-deref", SEED)
    graft(base, spec)
    main = base.functions["main"]
    assert len(main.body.stmts) > n_before
    # injected locals carry the __fi_ prefix and land in main
    assert any(v.name.startswith("__fi_") for v in main.locals)
    # no trailing return came along: the workload body is still live
    assert main.body.stmts[-1] is not None


def test_graft_remaps_shared_externs():
    # ftpd uses strlen; the fragment's own extern must fold onto it.
    w = get("ftpd")
    base = copy.deepcopy(pristine_parse(w, 2))
    spec = make_variant(w.name, "nul-removal", SEED)
    graft(base, spec)
    names = [v.name for v in base.externals.values()]
    assert names.count("strlen") <= 1


# -- variant execution -------------------------------------------------------

@pytest.mark.parametrize("mclass", list(MUTATORS),
                         ids=lambda m: m)
def test_variant_traps_on_small_workload(mclass):
    w = get("olden_power")
    spec = make_variant(w.name, mclass, SEED)
    vr = run_variant(w, spec, scale=2)
    assert vr.caught, vr.to_json()
    assert vr.engines_agree, vr.to_json()
    trapped = [r for r in vr.runs if r.tool.startswith("cured:")]
    assert all(r.failure is not None for r in trapped)
    assert all(r.error == spec.expected.__name__ for r in trapped)


def test_campaign_deterministic_json():
    kw = dict(workloads=["olden_power"],
              classes=["null-deref", "use-after-return"], scale=2)
    a = report_to_json(sharded_campaign(SEED, "smoke", **kw))
    b = report_to_json(sharded_campaign(SEED, "smoke", **kw))
    assert a == b


def test_campaign_summary_counts():
    r = sharded_campaign(SEED, "smoke", workloads=["olden_power"],
                         classes=["null-deref", "bad-downcast"],
                         scale=2)
    assert r.injected == 2
    assert r.caught == 2
    assert r.agreed == 2
    assert r.ok
    js = r.to_json()
    assert js["summary"] == {"injected": 2, "caught": 2,
                             "engines_agree": 2, "ok": True}


@pytest.mark.parametrize("mclass", list(MUTATORS), ids=lambda m: m)
def test_flow_optimized_variant_still_traps(mclass):
    """Flow-sensitive elimination must never remove the check that
    catches an injected fault: same class, same record as the local
    level — except the site id, which is numbered over *surviving*
    checks and so shifts when more are elided."""
    w = get("olden_power")
    spec = make_variant(w.name, mclass, SEED)
    by_level = {lvl: run_variant(w, spec, scale=2, optimize=lvl)
                for lvl in ("local", "flow")}
    assert by_level["flow"].caught, by_level["flow"].to_json()
    assert by_level["flow"].engines_agree
    for rl, rf in zip(by_level["local"].runs, by_level["flow"].runs):
        if not rl.tool.startswith("cured:"):
            continue
        assert (rl.outcome, rl.error) == (rf.outcome, rf.error)
        fl = dict(rl.failure)
        ff = dict(rf.failure)
        fl.pop("site"), ff.pop("site")
        assert fl == ff, (mclass, rl.tool)


def test_campaign_json_records_optimize_level():
    r = sharded_campaign(SEED, "smoke", workloads=["olden_power"],
                         classes=["null-deref"], scale=2,
                         optimize="flow")
    assert r.ok
    assert r.to_json()["optimize"] == "flow"


def test_raw_runs_differ_from_cured():
    # The differential: at least the null-deref raw run must NOT trap
    # with a MemorySafetyError — it takes the hardware fault instead.
    w = get("olden_power")
    spec = make_variant(w.name, "null-deref", SEED)
    vr = run_variant(w, spec, scale=2)
    raw = [r for r in vr.runs if r.tool == "raw"][0]
    assert raw.outcome == "crash"
    assert raw.error == "SegmentationFault"


# -- unterminated strings (satellite 2) --------------------------------------

def test_read_cstring_unterminated_raises_bounds():
    from repro.frontend import parse_program
    from repro.interp import Interpreter
    from repro.runtime.values import PtrVal
    prog = parse_program("int main(void) { return 0; }", name="s")
    ip = Interpreter(prog, cured=None)
    home = ip.mem.alloc(64, "heap", "buf")
    ip.mem.write_raw(home.base, b"A" * 64)
    with pytest.raises(BoundsError) as ei:
        ip.read_cstring(PtrVal(home.base), limit=16)
    assert "NUL-terminated" in str(ei.value)
    assert ei.value.failure is not None
    assert ei.value.failure.check == "CHECK_VERIFY_NUL"


# -- wall-clock deadline -----------------------------------------------------

@pytest.mark.parametrize("engine", ("closures", "tree"))
def test_deadline_stops_infinite_loop(engine):
    src = ("int main(void) { volatile int x = 0;\n"
           "    while (1) { x = x + 1; }\n"
           "    return x; }")
    cured = cure(src, name="spin")
    with pytest.raises(InterpreterLimitError) as ei:
        run_cured(cured, engine=engine, deadline=0.05)
    assert "deadline" in str(ei.value)


def test_deadline_unset_keeps_step_message():
    src = ("int main(void) { volatile int x = 0;\n"
           "    while (1) { x = x + 1; }\n"
           "    return x; }")
    cured = cure(src, name="spin2")
    with pytest.raises(InterpreterLimitError) as ei:
        run_cured(cured, max_steps=10_000)
    assert str(ei.value) == "step budget exceeded"


# -- failure-contained suite runs (satellite 4 neighbourhood) ----------------

def _broken_workload(name, source):
    return Workload(name=name, category="test", description="",
                    paper_row="", filename=None,
                    generator=lambda: source)


def test_run_suite_contains_crash_and_hang():
    crash = _broken_workload(
        "crash", "int main(void) { int *p = (int *)0; return *p; }")
    hang = _broken_workload(
        "hang", "int main(void) { volatile int x = 0;\n"
                "    while (1) { x = x + 1; } return 0; }")
    good = get("olden_power")
    result = run_suite([crash, good, hang], scale=2,
                       max_steps=20_000)
    assert [r.name for r in result.rows] == ["olden_power"]
    assert sorted(f.name for f in result.failures) == ["crash",
                                                       "hang"]
    assert not result.ok
    by_name = {f.name: f for f in result.failures}
    assert by_name["crash"].error == "SegmentationFault"
    assert by_name["hang"].error == "InterpreterLimitError"
    assert by_name["crash"].phase == "run"


def test_run_suite_all_good_is_ok():
    result = run_suite([get("olden_power")], scale=2)
    assert result.ok and len(result.rows) == 1


def test_assert_same_behaviour_diff_message():
    from repro.bench.harness import ToolRun, _assert_same_behaviour
    raw = ToolRun("raw", cycles=100, status=0, steps=10,
                  stdout="a\nb\nc\n")
    cured = ToolRun("ccured", cycles=150, status=1, steps=12,
                    stdout="a\nX\nc\n")
    with pytest.raises(AssertionError) as ei:
        _assert_same_behaviour("demo", raw, cured)
    msg = str(ei.value)
    assert "cured behaviour diverged from raw" in msg
    assert "status 0 vs 1" in msg
    assert "-b" in msg and "+X" in msg   # unified diff hunks
    assert "cycles" in msg and "steps" in msg

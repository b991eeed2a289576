"""The content-addressed cure cache: keys, invalidation, recovery.

The cache's contract has three legs — correctness (a hit is
byte-identical to a fresh cure), self-invalidation (any input that
could change the cure changes the key), and robustness (corrupt or
stale entries fall back to a fresh cure, never crash).  Each leg is
pinned here.
"""

import os
import pickle

import pytest

from repro.bench.harness import clear_program_cache, pristine_cure, \
    pristine_parse
from repro.cache import (CACHE_SCHEMA, canonical_options, cure_key,
                         get_cache, parse_key)
from repro.core import CureOptions
from repro.workloads import get

W = "olden_power"


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A cold cache in a private directory, plus cold in-process
    caches, so every test starts from zero counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_program_cache()
    yield get_cache()
    clear_program_cache()


# -- keys --------------------------------------------------------------------


def test_key_changes_with_source_text():
    a = cure_key("int main(void){return 0;}", (), "p",
                 canonical_options(None))
    b = cure_key("int main(void){return 1;}", (), "p",
                 canonical_options(None))
    assert a != b
    assert parse_key("x", (), "p") != parse_key("y", (), "p")


def test_key_changes_with_suppressions_and_name():
    opts = canonical_options(None)
    src = "int main(void){return 0;}"
    assert cure_key(src, (), "p", opts) \
        != cure_key(src, (("p.c", 3),), "p", opts)
    assert parse_key(src, (), "p") != parse_key(src, (), "q")


def test_key_changes_with_options():
    src = "int main(void){return 0;}"
    flow = canonical_options(CureOptions(optimize="flow"))
    none = canonical_options(CureOptions(optimize="none"))
    trust = canonical_options(None, trust_bad_casts=True)
    keys = {cure_key(src, (), "p", o) for o in (flow, none, trust)}
    assert len(keys) == 3


def test_key_changes_with_schema():
    src = "int main(void){return 0;}"
    opts = canonical_options(None)
    assert cure_key(src, (), "p", opts) \
        != cure_key(src, (), "p", opts, schema=CACHE_SCHEMA + "-next")
    assert parse_key(src, (), "p") \
        != parse_key(src, (), "p", schema=CACHE_SCHEMA + "-next")


def test_options_key_canonicalizes_optimize_aliases():
    # optimize/optimize_checks fold into one canonical level entry:
    # the historical spelling and the level spelling share a key.
    assert canonical_options(CureOptions(optimize_checks=False)) \
        == canonical_options(CureOptions(optimize="none"))


# -- hits are byte-identical -------------------------------------------------


def test_warm_hit_reproduces_cure_byte_identically(fresh_cache):
    w = get(W)
    cold = pristine_cure(w)
    cold_c = cold.to_c()
    cold_report = cold.report()
    clear_program_cache()          # force the disk path
    warm = pristine_cure(w)
    assert fresh_cache.session.hits >= 1
    assert warm.to_c() == cold_c
    assert warm.report() == cold_report


def test_warm_hit_reproduces_metrics_byte_identically(fresh_cache):
    from repro.obs.metrics import collect_workload_metrics
    from repro.obs.serialize import stable_dumps
    w = get(W)
    cold = stable_dumps(collect_workload_metrics(w).to_json())
    clear_program_cache()
    warm = stable_dumps(collect_workload_metrics(w).to_json())
    assert warm == cold


# -- counters ----------------------------------------------------------------


def test_deterministic_counter_sequence(fresh_cache):
    w = get(W)
    pristine_parse(w)
    pristine_cure(w)
    s = fresh_cache.stats()
    # cold: one parse miss+store, one cure miss+store
    assert (s.hits, s.misses, s.stores) == (0, 2, 2)
    clear_program_cache()
    pristine_cure(w)               # warm: cure hit, no parse needed
    s = fresh_cache.stats()
    assert (s.hits, s.misses, s.stores) == (1, 2, 2)
    assert s.entries == 2
    assert s.bytes > 0


def test_cache_clear_resets_everything(fresh_cache):
    w = get(W)
    pristine_cure(w)
    assert fresh_cache.stats().entries == 2
    removed = fresh_cache.clear()
    assert removed == 2
    s = fresh_cache.stats()
    assert (s.entries, s.hits, s.misses, s.stores) == (0, 0, 0, 0)


# -- robustness --------------------------------------------------------------


def test_corrupt_entry_recovers_with_fresh_cure(fresh_cache):
    w = get(W)
    cold_c = pristine_cure(w).to_c()
    # truncate every stored entry to simulate a torn write
    for dirpath, _dirs, files in os.walk(fresh_cache.root):
        for fn in files:
            if fn.endswith(".pkl"):
                with open(os.path.join(dirpath, fn), "wb") as f:
                    f.write(b"\x80corrupt")
    clear_program_cache()
    warm = pristine_cure(w)        # must fall back, not crash
    assert warm.to_c() == cold_c
    assert fresh_cache.session.invalidated >= 1
    # the corrupt entries were dropped and re-stored
    assert fresh_cache.stats().entries == 2


def test_stale_payload_version_is_invalidated(fresh_cache):
    w = get(W)
    pristine_cure(w)
    for dirpath, _dirs, files in os.walk(fresh_cache.root):
        for fn in files:
            if not fn.endswith(".pkl"):
                continue
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as f:
                payload = pickle.load(f)
            payload["version"] = -1
            with open(path, "wb") as f:
                pickle.dump(payload, f)
    clear_program_cache()
    assert pristine_cure(w).to_c()          # falls back cleanly
    assert fresh_cache.session.invalidated >= 1


def test_cold_parse_preprocesses_once(fresh_cache, monkeypatch):
    # The content key and the parser share one preprocessing pass.
    from repro.cil.printer import program_to_c
    from repro.cpp import Preprocessor
    from repro.obs.tracer import TRACER
    w = get(W)
    files = []
    real = Preprocessor.preprocess

    def counting(self, source, filename="<input>"):
        files.append(filename)
        return real(self, source, filename)

    monkeypatch.setattr(Preprocessor, "preprocess", counting)
    with TRACER.capture() as records:
        prog = pristine_parse(w)
    monkeypatch.undo()
    assert files.count(w.name + ".c") == 1
    assert [r.name for r in records].count("preprocess") == 1
    assert fresh_cache.session.stores == 1
    assert program_to_c(prog) == program_to_c(w.parse())


_WARM_GRAFT = """
import copy, json
from repro.bench.harness import pristine_parse
from repro.cache import get_cache
from repro.faults.campaign import run_variant
from repro.faults.mutators import graft, make_variant
from repro.workloads import get

w = get("spec_compress")
spec = make_variant(w.name, "invalid-free", 1)
prog = copy.deepcopy(pristine_parse(w))
graft(prog, spec)
found = list(prog.global_vars.values()) + list(prog.externals.values())
for fd in prog.fundecs():
    found += [fd.svar, *fd.formals, *fd.locals]
distinct = {id(v): v for v in found}.values()
vr = run_variant(w, spec)
print(json.dumps({"vars": len(distinct),
                  "vids": len({v.vid for v in distinct}),
                  "hits": get_cache().session.hits,
                  "caught": vr.caught, "agree": vr.engines_agree}))
"""


def test_warm_cache_graft_keeps_variable_ids_distinct(tmp_path):
    # A tree loaded from another process's cache entry keeps that
    # process's Varinfo ids; the fault fragment parsed after the load
    # must not reuse them (the engines key registers by id).
    import json
    import subprocess
    import sys

    import repro
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.path.dirname(os.path.dirname(
                   os.path.abspath(repro.__file__))))
    env.pop("REPRO_CACHE", None)
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _WARM_GRAFT], env=env, check=True,
        capture_output=True, text=True, timeout=300).stdout)
        for _ in ("cold", "warm")]
    assert runs[0]["hits"] == 0 and runs[1]["hits"] >= 1
    for run in runs:
        assert run["vids"] == run["vars"], run
        assert run["caught"] and run["agree"], run


def test_disabled_cache_stores_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
    monkeypatch.setenv("REPRO_CACHE", "off")
    clear_program_cache()
    disk = get_cache()
    assert not disk.enabled
    pristine_cure(get(W))
    assert not os.path.exists(os.path.join(str(tmp_path / "off"),
                                           "objects"))
    s = disk.stats()
    assert (s.hits, s.misses, s.stores) == (0, 0, 0)
    clear_program_cache()


@pytest.mark.parametrize("name", ["bind_like", "olden_power"])
def test_default_options_are_one_memo_entry(name, tmp_path,
                                            monkeypatch):
    # The memo keys a cure by the canonical options the disk key
    # hashes: the workload's defaults, spelled as None or explicitly,
    # are one cure even with the store off.
    from repro.bench import harness
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
    monkeypatch.setenv("REPRO_CACHE", "off")
    cures = []
    real = harness._cure

    def counting(*args, **kwargs):
        cures.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_cure", counting)
    clear_program_cache()
    w = get(name)
    implicit = pristine_cure(w)
    explicit = pristine_cure(
        w, CureOptions(trust_bad_casts=w.trust_bad_casts))
    assert explicit is implicit
    assert len(cures) == 1
    clear_program_cache()


def test_store_survives_unpicklable_value(fresh_cache):
    ok = fresh_cache.store("00" * 32, lambda: None)
    assert ok is False             # declined, not crashed
    assert fresh_cache.load("00" * 32) is None


# -- concurrency -------------------------------------------------------------


def test_concurrent_writers_race_benignly(fresh_cache):
    # Two pool workers cure the same workload at the same time; both
    # write the same content address, the last rename wins, and the
    # entry remains loadable and correct.
    from repro.sweep import run_sharded
    tasks = [("lint", {"name": W, "optimize": "flow", "scale": None})
             for _ in range(2)]
    a, b = run_sharded(tasks, 2)
    assert a.to_json() == b.to_json()
    clear_program_cache()
    assert pristine_cure(get(W)).to_c()
    s = fresh_cache.stats()
    # parse + the lint cure (provenance on) + the default cure
    assert s.entries == 3
    assert s.stores >= 3


def test_hit_rate_pct(fresh_cache):
    from repro.cache.store import CacheStats
    assert CacheStats().hit_rate_pct is None        # never asked
    assert CacheStats(hits=3, misses=1).hit_rate_pct == 75.0
    assert CacheStats(hits=0, misses=4).hit_rate_pct == 0.0
    s = CacheStats(hits=1, misses=2)
    assert s.to_json()["hit_rate_pct"] == s.hit_rate_pct


def test_cli_cache_stats_reports_hit_rate(fresh_cache, capsys):
    import json as _json

    from repro.cli import main
    w = get("olden_power")
    pristine_cure(w)                                 # miss + store
    clear_program_cache()
    pristine_cure(w)                                 # hit
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "hit rate" in out and "cross-process" in out
    assert "session" in out
    assert main(["cache", "stats", "--json", "-"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    assert payload["hit_rate_pct"] is not None
    assert 0.0 <= payload["hit_rate_pct"] <= 100.0
    assert payload["session"]["hit_rate_pct"] is None \
        or 0.0 <= payload["session"]["hit_rate_pct"] <= 100.0

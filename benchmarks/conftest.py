"""Shared benchmark configuration.

Every benchmark is deterministic: the interpreter's cost model counts
abstract cycles, so the paper-shape assertions hold on every run;
pytest-benchmark additionally reports the wall-clock time of the
measured runs.  Heavy measurements are cached at module scope so a
table's rows are computed once per session.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _hermetic_cure_cache(tmp_path_factory):
    """Point the on-disk cure cache at a per-session temp directory,
    so the tables never read (or pollute) the developer's warm cache
    and every run starts from a cold one."""
    import os
    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("cure-cache"))
    yield


def pytest_configure(config):
    # keep benchmark runs single-shot: the measurements themselves are
    # deterministic, re-running them only costs wall time
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
    # The harness caches keep every parse/cure tree alive, so each
    # generational GC pass walks a strictly growing object graph while
    # collecting almost nothing; the suite is short-lived, so trade the
    # sweeps for peak memory.
    import gc
    gc.disable()


def pytest_sessionfinish(session):
    # The harness caches (parses, cures, compiled closures) stay alive
    # until process exit; freeze them so pytest's exit-time GC sweeps
    # do not spend over a second walking millions of cached objects.
    import gc
    gc.freeze()

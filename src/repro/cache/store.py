"""The on-disk cure cache: atomic writers, corrupt-entry recovery,
and deterministic hit/miss accounting.

Layout (under :func:`default_root`, overridable with
``REPRO_CACHE_DIR``; ``REPRO_CACHE=off`` disables the store entirely)::

    objects/<k[:2]>/<key>.pkl   one pickled entry per content address
    counters.json               cumulative hit/miss/store/invalidated
    counters.lock               flock guard for counters.json

Entries are written to a temp file in the final directory and
``os.replace``'d into place, so concurrent writers — two sweep shards
curing the same workload at the same time — race benignly: both write
a complete, identical payload and the last rename wins.  A reader that
finds a truncated, unpicklable or version-mismatched entry deletes it,
counts an invalidation, and reports a miss so the caller falls back to
a fresh cure; a corrupt cache can cost time but never correctness.

Counters are cumulative across processes (guarded by ``flock`` where
available), which is what makes ``repro cache stats`` deterministic:
after ``repro cache clear``, a scripted sequence of operations always
reports the same hit/miss counts.  The bench harness's in-process
memo sits in front of the store and a memo hit never reaches it, so
a process looks a parse or cure up only on its first use (until the
memo is cleared).  Every load and store is also surfaced through the
tracer as a ``cache`` span carrying the operation and its outcome, so
``repro metrics --trace`` shows cache traffic on the timeline.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

from repro.cil.program import collector_paused
from repro.obs.tracer import TRACER

#: version stamp inside every pickled payload; a mismatch means the
#: entry predates an incompatible layout change and must be dropped.
PAYLOAD_VERSION = 1

_COUNTER_KEYS = ("hits", "misses", "stores", "invalidated")


def default_root() -> str:
    """The cache directory: ``REPRO_CACHE_DIR`` or
    ``~/.cache/repro-cure``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache",
                        "repro-cure")


def cache_enabled() -> bool:
    """The store is on unless ``REPRO_CACHE`` says otherwise."""
    return os.environ.get("REPRO_CACHE", "").strip().lower() \
        not in ("off", "0", "no", "false")


@dataclass
class CacheStats:
    """Counters plus a point-in-time scan of the store."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0     # corrupt/stale entries dropped
    entries: int = 0
    bytes: int = 0
    root: str = ""
    enabled: bool = True

    @property
    def hit_rate_pct(self) -> Optional[float]:
        """Hits as a percentage of lookups (hits + misses), or None
        before any lookup happened — 0% means "all misses", which is
        a different fact than "never asked"."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return None
        return round(100.0 * self.hits / lookups, 1)

    def to_json(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores,
                "invalidated": self.invalidated,
                "hit_rate_pct": self.hit_rate_pct,
                "entries": self.entries, "bytes": self.bytes,
                "root": self.root, "enabled": self.enabled}


class CureCache:
    """A content-addressed pickle store for parses and cures."""

    def __init__(self, root: Optional[str] = None,
                 enabled: Optional[bool] = None) -> None:
        self.root = root if root is not None else default_root()
        self.enabled = (cache_enabled() if enabled is None
                        else enabled)
        #: this process's own traffic (the persistent counters
        #: aggregate every process that touched the store)
        self.session = CacheStats(root=self.root,
                                  enabled=self.enabled)

    # -- paths ---------------------------------------------------------------

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _path(self, key: str) -> str:
        return os.path.join(self._objects_dir(), key[:2],
                            key + ".pkl")

    # -- entries -------------------------------------------------------------

    def load(self, key: str) -> Optional[Any]:
        """The stored object for ``key``, or None on a miss.  Corrupt
        entries are deleted and reported as misses.  The collector is
        paused while the entry unpickles, as in ``deepcopy_tree``."""
        if not self.enabled:
            return None
        path = self._path(key)
        with TRACER.span("cache", op="load", key=key[:12]) as span:
            try:
                with open(path, "rb") as f, collector_paused():
                    payload = pickle.load(f)
                if (not isinstance(payload, dict)
                        or payload.get("version") != PAYLOAD_VERSION
                        or "value" not in payload):
                    raise ValueError("payload version mismatch")
            except FileNotFoundError:
                span.set(event="miss")
                self._bump(misses=1)
                return None
            except Exception:
                # Truncated write, stale pickle, version bump: drop
                # the entry and fall back to a fresh cure.
                try:
                    os.remove(path)
                except OSError:
                    pass
                span.set(event="invalidated")
                self._bump(invalidated=1, misses=1)
                return None
            span.set(event="hit")
            self._bump(hits=1)
            return payload["value"]

    def store(self, key: str, value: Any) -> bool:
        """Atomically persist ``value`` under ``key``."""
        if not self.enabled:
            return False
        path = self._path(key)
        with TRACER.span("cache", op="store", key=key[:12]):
            payload = {"version": PAYLOAD_VERSION, "value": value}
            try:
                blob = pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), prefix=".tmp-")
                try:
                    with os.fdopen(fd, "wb") as f:
                        f.write(blob)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.remove(tmp)
                    except OSError:
                        pass
                    raise
            except Exception:
                # The cache is an accelerator: failing to persist
                # (disk full, unpicklable tree) must never fail the
                # pipeline that produced the value.
                return False
            self._bump(stores=1)
            return True

    # -- counters ------------------------------------------------------------

    def _bump(self, **deltas: int) -> None:
        for k, v in deltas.items():
            setattr(self.session, k, getattr(self.session, k) + v)
        self._bump_persistent(deltas)

    def _bump_persistent(self, deltas: dict) -> None:
        """Fold deltas into ``counters.json`` under an flock (where
        the platform has one).  Best effort: counter loss is
        acceptable, counter corruption is not."""
        try:
            os.makedirs(self.root, exist_ok=True)
            lock_path = os.path.join(self.root, "counters.lock")
            with open(lock_path, "a+") as lock:
                try:
                    import fcntl
                    fcntl.flock(lock, fcntl.LOCK_EX)
                except ImportError:      # non-POSIX: lockless
                    pass
                counters = self._read_counters()
                for k, v in deltas.items():
                    counters[k] = counters.get(k, 0) + v
                tmp = os.path.join(self.root, ".counters.tmp")
                with open(tmp, "w", encoding="utf-8") as f:
                    json.dump(counters, f, sort_keys=True)
                os.replace(tmp, os.path.join(self.root,
                                             "counters.json"))
        except Exception:
            pass

    def _read_counters(self) -> dict:
        try:
            with open(os.path.join(self.root, "counters.json"),
                      "r", encoding="utf-8") as f:
                data = json.load(f)
            if isinstance(data, dict):
                return {k: int(data.get(k, 0))
                        for k in _COUNTER_KEYS}
        except Exception:
            pass
        return {k: 0 for k in _COUNTER_KEYS}

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> CacheStats:
        """Cumulative counters plus a scan of the store."""
        counters = self._read_counters()
        entries = 0
        size = 0
        objects = self._objects_dir()
        if os.path.isdir(objects):
            for dirpath, _dirnames, filenames in os.walk(objects):
                for fn in filenames:
                    if not fn.endswith(".pkl"):
                        continue
                    entries += 1
                    try:
                        size += os.path.getsize(
                            os.path.join(dirpath, fn))
                    except OSError:
                        pass
        return CacheStats(entries=entries, bytes=size,
                          root=self.root, enabled=self.enabled,
                          **counters)

    def clear(self) -> int:
        """Delete every entry and reset the counters; returns the
        number of entries removed."""
        removed = 0
        objects = self._objects_dir()
        if os.path.isdir(objects):
            for dirpath, _dirnames, filenames in os.walk(objects):
                for fn in filenames:
                    try:
                        os.remove(os.path.join(dirpath, fn))
                        if fn.endswith(".pkl"):
                            removed += 1
                    except OSError:
                        pass
        for name in ("counters.json", "counters.lock"):
            try:
                os.remove(os.path.join(self.root, name))
            except OSError:
                pass
        self.session = CacheStats(root=self.root,
                                  enabled=self.enabled)
        return removed


_CACHE: Optional[CureCache] = None


def get_cache() -> CureCache:
    """The process-wide cache, re-created whenever the governing
    environment (``REPRO_CACHE_DIR``/``REPRO_CACHE``) changes — so
    tests and subprocesses that point the cache elsewhere just work."""
    global _CACHE
    root = default_root()
    enabled = cache_enabled()
    if (_CACHE is None or _CACHE.root != root
            or _CACHE.enabled != enabled):
        _CACHE = CureCache(root, enabled)
    return _CACHE

"""Per-layer instruments: timers patched onto the layers' public entry
points, and a cProfile fold by ``src/repro`` module.

A timer is patched where its caller looks the name up: a module global
(``repro.core.curer.solve``), a class attribute
(``CureCache.load``), or a module the caller reaches through one of
its own attributes (``repro.faults.campaign.copy``).  :data:`WRAPPED`
and :data:`DEPENDS` together list every public function the benchmark
depends on; renaming or moving one of them is a benchmark change.  A
name that no longer resolves raises :class:`LookupError`, and a timer
that never fires in its home section fails the traced run, so a layer
can never silently read 0.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
import time
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class Wrap:
    """One timed entry point."""

    key: str                  # metric stem, e.g. "core.solve"
    module: str               # the caller's module
    attr: str                 # "name" or "Owner.name", from ``module``
    #: result -> counters to add under ``<key>.<counter>``
    counts: Optional[Callable[[object], dict]] = None
    #: call kwargs -> suffix of the key (splits one entry point by an
    #: argument, e.g. the engine)
    split: Optional[Callable[[dict], str]] = None


def _exec_counts(res) -> dict:
    return {"steps": res.steps, "cycles": res.cycles,
            "checks": res.checks_executed}


#: workload whose traced child installs them -> its timers
WRAPPED: dict[str, tuple[Wrap, ...]] = {
    "frontend_cold": (
        Wrap("cpp.preprocess", "repro.cpp.preprocessor",
             "Preprocessor.preprocess",
             counts=lambda text: {"out_bytes": len(text)}),
        Wrap("frontend.parse", "repro.frontend", "c_parser.CParser.parse"),
        Wrap("frontend.lower", "repro.frontend.lower",
             "Lowerer.lower_file"),
        Wrap("harness.copy", "repro.bench.harness", "copy.deepcopy"),
        Wrap("core.constraints", "repro.core.curer", "generate"),
        Wrap("core.solve", "repro.core.curer", "solve"),
        Wrap("core.split", "repro.core.curer", "infer_split"),
        Wrap("core.instrument", "repro.core.curer", "instrument",
             counts=lambda checks: {"checks": sum(checks.values())}),
        Wrap("analysis.flow", "repro.analysis", "eliminate_checks_flow",
             counts=lambda removed: {"removed": removed}),
        Wrap("analysis.lint", "repro.analysis.lint", "lint_cured",
             counts=lambda r: {"diagnostics": len(r.diagnostics)}),
    ),
    "exec_warm": (
        Wrap("cache.load", "repro.cache.store", "CureCache.load",
             counts=lambda v: {"hits": v is not None,
                               "misses": v is None}),
        Wrap("interp.compile", "repro.interp.compile", "compiled_body"),
        Wrap("interp.raw", "repro.interp", "run_raw",
             counts=_exec_counts),
        Wrap("interp.cured", "repro.interp", "run_cured",
             counts=_exec_counts),
    ),
    "fault_campaign": (
        Wrap("faults.copy", "repro.faults.campaign", "copy.deepcopy"),
        Wrap("faults.graft", "repro.faults.campaign", "graft"),
        Wrap("faults.cure", "repro.faults.campaign", "cure"),
        Wrap("faults.run", "repro.faults.campaign", "run_cured",
             split=lambda kw: "_" + kw.get("engine", "closures")),
        Wrap("faults.run", "repro.faults.campaign", "run_raw",
             split=lambda kw: "_raw"),
    ),
}

#: the other public names the op bodies call (see perf/child.py), as
#: (module, attribute)
DEPENDS = (
    ("repro.workloads", "get"), ("repro.workloads", "all_workloads"),
    ("repro.core", "CureOptions"),
    ("repro.bench.harness", "pristine_parse"),
    ("repro.bench.harness", "pristine_cure"),
    ("repro.bench.harness", "clear_program_cache"),
    ("repro.interp", "run_raw"), ("repro.interp", "run_cured"),
    ("repro.analysis", "lint_workload"),
    ("repro.sweep", "sharded_metrics"),
    ("repro.faults.mutators", "MUTATORS"),
    ("repro.faults.mutators", "make_variant"),
    ("repro.faults.campaign", "run_variant"),
    ("repro.cache", "get_cache"),
)


def _chain(module: str, attr: str) -> list:
    """``[module, owner..., target]`` — raises LookupError naming the
    first missing link."""
    try:
        objs: list = [importlib.import_module(module)]
    except ImportError as exc:
        raise LookupError(f"{module}: {exc}") from None
    for part in attr.split("."):
        try:
            objs.append(getattr(objs[-1], part))
        except AttributeError:
            raise LookupError(
                f"{module}.{attr}: no attribute {part!r} on "
                f"{objs[-1]!r}") from None
    return objs


def _pairs() -> list[tuple[str, str]]:
    wrapped = [(w.module, w.attr) for wraps in WRAPPED.values()
               for w in wraps]
    return sorted(set(wrapped) | set(DEPENDS))


def dependencies() -> list[str]:
    """Every public name the benchmark depends on, dotted."""
    return [f"{module}.{attr}" for module, attr in _pairs()]


def resolve_all() -> list[str]:
    """Resolve every name of :func:`dependencies` (``src`` must be
    importable), raising LookupError on the first that is gone."""
    for module, attr in _pairs():
        _chain(module, attr)
    return dependencies()


@contextmanager
def patched(wraps: tuple[Wrap, ...],
            make: Callable[[Callable, Wrap], Callable]) -> Iterator[None]:
    """Replace each wrapped callable by ``make(original, wrap)`` where
    its caller looks it up; restore the originals on exit."""
    undo: list[Callable[[], None]] = []
    try:
        for w in wraps:
            objs = _chain(w.module, w.attr)
            parts = w.attr.split(".")
            owner, name, original = objs[-2], parts[-1], objs[-1]
            wrapper = make(original, w)
            if owner is objs[0] or isinstance(owner, type):
                had = name in vars(owner)
                setattr(owner, name, wrapper)
                undo.append(functools.partial(
                    _restore, owner, name, original, had))
            else:
                # a module reached through an attribute of the caller
                # (``campaign.copy``): give only this caller a proxy
                holder = objs[-3]
                proxy = types.ModuleType(owner.__name__)
                proxy.__dict__.update(vars(owner))
                setattr(proxy, name, wrapper)
                setattr(holder, parts[-2], proxy)
                undo.append(functools.partial(
                    setattr, holder, parts[-2], owner))
        yield
    finally:
        for fn in reversed(undo):
            fn()


def _restore(owner, name: str, original, had: bool) -> None:
    if had:
        setattr(owner, name, original)
    else:
        delattr(owner, name)


class Recorder:
    """Inclusive seconds, calls and result counters per timer key.  A
    call made while the same key is already being timed (the
    preprocessor recursing into an ``#include``) is part of the outer
    call and is not counted again."""

    def __init__(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._active: Counter = Counter()

    def timer(self, fn: Callable, w: Wrap) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            key = w.key if w.split is None else w.key + w.split(kwargs)
            if self._active[key]:
                return fn(*args, **kwargs)
            self._active[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                self.calls[key] += 1
                self._active[key] -= 1
            if w.counts is not None:
                for name, n in w.counts(result).items():
                    self.counts[f"{key}.{name}"] += int(n)
            return result
        return timed

    def to_json(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def profiling(profile: cProfile.Profile) -> Callable:
    """A ``patched`` factory that runs each call under ``profile``."""
    def make(fn: Callable, w: Wrap) -> Callable:
        @functools.wraps(fn)
        def profiled(*args, **kwargs):
            profile.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.disable()
        return profiled
    return make


#: the closure engine's generated fragments are compiled under this
#: file name (``repro.interp.compile``), so they fold into that module
GENERATED_FILE = "<repro.interp.compiled>"


def module_of(filename: str) -> str:
    """The fold key of a profiled code object's file: the dotted
    module under ``src/repro`` (``runtime.memory``), ``copy`` for the
    stdlib deep-copier, ``builtins`` for C functions, else ``other``."""
    if filename == GENERATED_FILE:
        return "interp.compile"
    if filename == "~":
        return "builtins"
    norm = filename.replace(os.sep, "/")
    marker = "/src/repro/"
    if marker in norm:
        rel = norm.split(marker, 1)[1]
        rel = rel[:-3] if rel.endswith(".py") else rel
        rel = rel[:-len("/__init__")] if rel.endswith("/__init__") \
            else rel
        return rel.replace("/", ".")
    if os.path.basename(norm) == "copy.py":
        return "copy"
    return "other"


def fold_profile(profile: cProfile.Profile) -> dict[str, dict]:
    """Self seconds, share of all self time (%) and call count per
    module (see :func:`module_of`)."""
    stats = pstats.Stats(profile).stats   # type: ignore[attr-defined]
    total = sum(v[2] for v in stats.values())
    if total <= 0:
        raise RuntimeError("the profiled region recorded no time")
    folded: dict[str, list] = {}
    for (filename, _line, _fn), (_cc, nc, tt, _ct, _c) in stats.items():
        entry = folded.setdefault(module_of(filename), [0.0, 0])
        entry[0] += tt
        entry[1] += nc
    return {mod: {"self_s": tt, "pct": 100.0 * tt / total, "calls": n}
            for mod, (tt, n) in sorted(folded.items())}

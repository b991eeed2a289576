"""The benchmark harness: run a workload under every tool and collect
the measurements the paper's tables report.

For one workload the harness produces a :class:`BenchRow` containing:

* the source size (lines of code) — the "Lines of code" column;
* the static pointer-kind percentages — the "% sf/sq/w/rt" column;
* the cured/raw, purify/raw and valgrind/raw cycle ratios — the
  "CCured Ratio" and "Valgrind Ratio" columns;
* cast census, trusted-cast and split statistics for the Section 3/5
  analyses.

Every (workload, configuration) is served from one parse and one
cure.  One in-process memo, :data:`_MEMO`, sits in front of the
on-disk cure cache (:mod:`repro.cache`).  An entry is keyed by kind,
workload name and resolved scale, plus the cure options in
:func:`~repro.cache.canonical_options` form — the tuple the disk key
hashes, so ``pristine_cure(w)`` and ``pristine_cure(w, CureOptions(
trust_bad_casts=w.trust_bad_casts))`` are one entry in memory and on
disk.  A parse or cure comes from the memo, else from the store, else
is made and stored (:func:`_stored`); a memo hit never reaches the
store.  The pristine trees are shared and read-only: curing mutates
the IR, so a caller that cures takes a deep copy first (a whole-tree
``copy.deepcopy`` is one pickle round trip,
:func:`repro.cil.program.deepcopy_tree`).

All measurements are deterministic (the cost model is exact), so the
memo also holds whole *measurements*: a run keyed by
:func:`_result_key` (the engine and the check-elimination level are
always explicit) yields the same ``(cycles, status, steps, stdout,
checks, counts)`` every time, and repeat requests across table tests
(or a re-pricing of the count vector) are answered without
re-interpreting the program.  Executions run on the
pristine trees — interpretation never mutates the IR (the
interpreter only stamps idempotent per-``Varinfo``/type caches), so
no defensive copy is needed for a measurement, and the closure
engine's per-``Fundec`` compilation is shared across every test.
"""

from __future__ import annotations

import copy
import difflib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.baselines import PurifyChecker, ValgrindChecker
from repro.cache import canonical_options, cure_key, get_cache, parse_key
from repro.cil.program import Program
from repro.core import CureOptions, CuredProgram, cure as _cure
from repro.cpp import Preprocessor
from repro.frontend import parse_preprocessed
from repro.interp import ExecResult, run_cured, run_raw
from repro.obs.tracer import TRACER
from repro.workloads import PROGRAM_DIR, UnknownSelection, Workload

#: the tools :func:`run_workload` measures beside the raw run
TOOLS = ("ccured", "purify", "valgrind")


@dataclass
class ToolRun:
    tool: str
    cycles: int
    status: int
    steps: int
    stdout: str = ""
    #: run-time checks actually executed (0 for raw/baseline runs)
    checks: int = 0
    #: the run's count vector (``CostModel.counts()``): ``cycles`` is
    #: its dot product with the tool's ``price_row``
    counts: dict[str, int] = field(default_factory=dict)

    def ratio(self, base: "ToolRun") -> float:
        """Cycle ratio against ``base``; NaN when the base run did no
        work (a 0-cycle base means the ratio is undefined, and 0.0
        would silently read as 'no overhead' in a table)."""
        if not base.cycles:
            return math.nan
        return self.cycles / base.cycles


@dataclass
class BenchRow:
    """One row of a paper-style results table."""

    name: str
    lines: int
    kind_pct: dict[str, float]
    raw: ToolRun
    ccured: Optional[ToolRun] = None
    purify: Optional[ToolRun] = None
    valgrind: Optional[ToolRun] = None
    trusted_casts: int = 0
    census: dict[str, float] = field(default_factory=dict)
    split_fraction: float = 0.0
    meta_fraction: float = 0.0
    pointer_casts: int = 0

    @property
    def ccured_ratio(self) -> float:
        return self.ccured.ratio(self.raw) if self.ccured else 0.0

    @property
    def purify_ratio(self) -> float:
        return self.purify.ratio(self.raw) if self.purify else 0.0

    @property
    def valgrind_ratio(self) -> float:
        return self.valgrind.ratio(self.raw) if self.valgrind else 0.0

    def sf_sq_w_rt(self) -> str:
        p = self.kind_pct
        seq = p["seq"] + p.get("fseq", 0.0)  # CCured reported FSEQ
        return (f"{p['safe']*100:.0f}/{seq*100:.0f}/"          # as sq
                f"{p['wild']*100:.0f}/{p['rtti']*100:.0f}")


def count_lines(source: str) -> int:
    return sum(1 for line in source.splitlines()
               if line.strip() and not line.strip().startswith("//"))


# -- the in-process memo ------------------------------------------------------

#: (kind, workload name, resolved scale, canonical options, ...) -> value
_MEMO: dict[tuple, Any] = {}


def _memo(key: tuple, make: Callable[[], Any]) -> Any:
    """The memo entry under ``key``, made on first use."""
    got = _MEMO.get(key)
    if got is None:
        got = _MEMO[key] = make()
    return got


def _key(kind: str, w: Workload, scale: Optional[int],
         opts: Optional[tuple] = None) -> tuple:
    return (kind, w.name, scale if scale is not None else w.scale, opts)


def cached_source(w: Workload) -> str:
    """The workload's source text (generators like ijpeg are not
    free).  It does not depend on the scale, so it is keyed at the
    workload's default."""
    return _memo(_key("source", w, None), w.source)


def _preprocessed(w: Workload,
                  scale: Optional[int]) -> tuple[str, tuple]:
    """The preprocessed source text and the lint-suppression set —
    what the C parser consumes, and the content half of the
    workload's disk-cache key (traced as a ``preprocess`` span)."""
    def preprocess() -> tuple[str, tuple]:
        filename = w.name + ".c"
        with TRACER.span("preprocess", file=filename):
            pp = Preprocessor([PROGRAM_DIR], w._defines(scale))
            text = pp.preprocess(cached_source(w), filename=filename)
        return text, tuple(sorted(pp.lint_suppressions))
    return _memo(_key("pp", w, scale), preprocess)


def _stored(kind: str, w: Workload, scale: Optional[int],
            opts: Optional[tuple], make: Callable[[], Any]) -> Any:
    """The pristine parse (``opts`` None) or cure: from the memo, else
    from the disk store (a ``kind`` span with ``cached=True``), else
    ``make()`` builds it and the store keeps it.  With the store off
    no disk key is computed: the code fingerprint in it hashes every
    source file."""
    def load_or_make() -> Any:
        disk = get_cache()
        if not disk.enabled:
            return make()
        text, sup = _preprocessed(w, scale)
        dkey = (parse_key(text, sup, w.name) if opts is None
                else cure_key(text, sup, w.name, opts))
        with TRACER.span(kind, name=w.name, cached=True):
            got = disk.load(dkey)
        if got is None:
            got = make()
            disk.store(dkey, got)
        return got
    return _memo(_key(kind, w, scale, opts), load_or_make)


def pristine_parse(w: Workload,
                   scale: Optional[int] = None) -> Program:
    """The shared pristine parse — read/interpret only, never cure.

    The source is preprocessed once, for the content-addressed disk
    cache's key and, on a miss, for the parser.  A warm process skips
    parsing and lowering and unpickles the stored tree."""
    def parse() -> Program:
        text, sup = _preprocessed(w, scale)
        return parse_preprocessed(text, w.name + ".c", w.name, sup)
    return _stored("parse", w, scale, None, parse)


def pristine_cure(w: Workload,
                  options: Optional[CureOptions] = None,
                  scale: Optional[int] = None) -> CuredProgram:
    """The shared pristine cure — read/interpret only, never mutate.

    ``None`` options mean the workload's defaults.  A warm process
    unpickles the cured tree instead of re-running
    constraints/solve/instrument."""
    def cure() -> CuredProgram:
        # Cure a copy of the memoized parse: ``w.cure()`` would
        # re-parse from scratch, and parsing dominates the cure
        # pipeline.
        opts = options if options is not None else CureOptions(
            trust_bad_casts=w.trust_bad_casts)
        return _cure(copy.deepcopy(pristine_parse(w, scale)),
                     options=opts, name=w.name)
    return _stored("cure", w, scale, canonical_options(
        options, trust_bad_casts=w.trust_bad_casts), cure)


def clear_program_cache() -> None:
    """Drop the in-process memo (tests poking at tree internals).  The
    on-disk cure cache is untouched: a disk hit hands back a freshly
    unpickled tree, which is exactly the isolation this reset exists
    to restore."""
    _MEMO.clear()


def _result_key(w: Workload, scale: Optional[int], engine: str,
                max_steps: int, tool: str,
                options: Optional[CureOptions]) -> tuple:
    """The memo key of one measurement — every dimension that can
    change the numbers, explicit in one place.  The engine name and
    the check-elimination level are always present, so a
    closures-vs-tree or a none/local/flow sweep can never reuse a
    stale result; the canonical options carry the remaining cure
    flags."""
    opts = canonical_options(options, trust_bad_casts=w.trust_bad_casts)
    return _key("result", w, scale, opts) + (
        engine, max_steps, tool, dict(opts)["optimize"])


def _measure(key: tuple, tool: str,
             runner: Callable[[], ExecResult]) -> ToolRun:
    """A memoized measurement; ``runner`` executes on a memo miss."""
    def run() -> tuple[int, int, int, str, int, dict[str, int]]:
        res = runner()
        return (res.cycles, res.status, res.steps, res.stdout,
                res.checks_executed, res.cost.counts())
    return ToolRun(tool, *_memo(key, run))


def run_workload(w: Workload, *,
                 tools: tuple[str, ...] = ("ccured",),
                 options: Optional[CureOptions] = None,
                 scale: Optional[int] = None,
                 max_steps: int = 50_000_000,
                 engine: str = "closures") -> BenchRow:
    """Run one workload under raw + the requested tools (a subset of
    :data:`TOOLS`; an unknown one raises before anything runs)."""
    for tool in tools:
        if tool not in TOOLS:
            raise UnknownSelection(
                f"unknown tool {tool!r} (choose from "
                f"{', '.join(TOOLS)})")
    src = cached_source(w)
    args = list(w.args) or None
    raw = _measure(
        _result_key(w, scale, engine, max_steps, "raw", None), "raw",
        lambda: run_raw(pristine_parse(w, scale), args=args,
                        stdin=w.stdin, max_steps=max_steps,
                        engine=engine))
    cured = pristine_cure(w, options=options, scale=scale)
    row = BenchRow(
        name=w.name,
        lines=count_lines(src),
        kind_pct=cured.kind_percentages(),
        raw=raw,
        trusted_casts=cured.trusted_casts,
        census=cured.census.fractions(),
        split_fraction=cured.split_result.split_fraction,
        meta_fraction=cured.split_result.meta_fraction,
        pointer_casts=cured.census.pointer_casts,
    )
    if "ccured" in tools:
        row.ccured = _measure(
            _result_key(w, scale, engine, max_steps, "ccured",
                        options), "ccured",
            lambda: run_cured(cured, args=args, stdin=w.stdin,
                              max_steps=max_steps, engine=engine))
        _assert_same_behaviour(w.name, raw, row.ccured)
    if "purify" in tools:
        row.purify = _measure(
            _result_key(w, scale, engine, max_steps, "purify", None),
            "purify",
            lambda: run_raw(pristine_parse(w, scale), args=args,
                            stdin=w.stdin, shadow=PurifyChecker(),
                            max_steps=max_steps, engine=engine))
    if "valgrind" in tools:
        row.valgrind = _measure(
            _result_key(w, scale, engine, max_steps, "valgrind",
                        None), "valgrind",
            lambda: run_raw(pristine_parse(w, scale), args=args,
                            stdin=w.stdin, shadow=ValgrindChecker(),
                            max_steps=max_steps, engine=engine))
    return row


def _assert_same_behaviour(name: str, raw: ToolRun,
                           cured: ToolRun) -> None:
    """The cure must not change the observable behaviour of a correct
    program — checked on every benchmark run.  On a mismatch the
    error carries a stdout diff plus the cycle/step deltas, so a
    diverging workload is diagnosable from the failure alone."""
    if raw.status == cured.status and raw.stdout == cured.stdout:
        return
    lines = [f"{name}: cured behaviour diverged from raw "
             f"(status {raw.status} vs {cured.status})",
             f"  cycles: raw {raw.cycles} vs cured {cured.cycles} "
             f"(delta {cured.cycles - raw.cycles:+d})",
             f"  steps:  raw {raw.steps} vs cured {cured.steps} "
             f"(delta {cured.steps - raw.steps:+d})"]
    if raw.stdout != cured.stdout:
        diff = list(difflib.unified_diff(
            raw.stdout.splitlines(keepends=True),
            cured.stdout.splitlines(keepends=True),
            fromfile=f"{name}.raw.stdout",
            tofile=f"{name}.cured.stdout"))
        shown = diff[:40]
        lines.append("  stdout diff:")
        lines.extend("    " + d.rstrip("\n") for d in shown)
        if len(diff) > len(shown):
            lines.append(f"    ... {len(diff) - len(shown)} more "
                         "diff lines")
    raise AssertionError("\n".join(lines))

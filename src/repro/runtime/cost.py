"""The deterministic cost model: event counts and the one price list.

The paper measures wall-clock slowdowns of gcc-compiled binaries; our
substrate is an interpreter, so absolute times are meaningless.
Instead a run *counts* its abstract machine events by category — the
engines, the modelled C library and the shadow tools each record an
event once, as a count — and this module alone prices them.  A run's
``cycles`` is the dot product of its count vector with the price row
of the tool it ran under: :data:`PRICES`, plus the tool's extra
prices in :data:`TOOL_PRICES`.  The prices are calibrated to the
published per-operation costs of each tool:

* plain execution: 1 per instruction, branch test and operator, 1 per
  memory word touched, plus library-call and I/O latency;
* CCured: the check costs below (a null check is one compare; a SEQ
  bounds check is two compares; WILD adds tag manipulation) plus the
  extra words that wide representations move (Figure 1: SEQ pointers
  are 3 words, WILD 2 words + tags, RTTI 2 words) and the extra
  dereferences of split metadata (Section 4.2);
* Purify instruments memory ops with a function call into its runtime
  and maintains 2 status bits per byte — roughly 20–60 cycles per
  access, which yields its published 25–100x slowdowns;
* Valgrind (memcheck) JIT-translates *every* instruction (~8–15x base
  dilation) and maintains 9 shadow bits per byte, yielding 9–130x.

Because the model is deterministic, benchmark ratios are reproducible
to the cycle, and re-pricing a run needs only its counts;
pytest-benchmark additionally reports wall-clock time of the
interpreter itself.
"""

from __future__ import annotations

from collections import Counter

#: cycles per counted event in a bare or cured run.  Every category a
#: run counts has a price here; reading ``cycles`` raises on one that
#: has none.
PRICES: dict[str, int] = {
    # -- plain execution ----------------------------------------------
    "instr": 1,        # an executed Set, Call or Check instruction
    "branch": 1,       # an If test
    # a unary or binary operator, or a cast: expressions decompose
    # into several machine ops, which keeps the baseline honest
    # relative to per-check costs
    "op": 1,
    "mem_word": 1,     # a word read from or written to memory
    "libcall": 4,      # a call into the modelled C library
    # simulated kernel/device/wire latency per I/O operation, plus one
    # cycle per four bytes it moves.  CCured's checks do not slow the
    # kernel down, so cured runs pay the same latency as raw runs:
    # that is why the paper's I/O-bound subjects (ftpd, the Apache
    # modules, the drivers) measure ~1.0x.
    "io": 1500,
    "io_quarter": 1,
    # -- CCured's representations -------------------------------------
    # extra words moved with a wide pointer (Figure 1): SEQ = +2 (b,
    # e), FSEQ = +1 (e), WILD = +1 (b) + the tag word, RTTI = +1 (t)
    "wide:SEQ": 2,
    "wide:FSEQ": 1,
    "wide:WILD": 2,
    "wide:RTTI": 1,
    # a split-metadata operation: unlike the interleaved layout's
    # adjacent words, the parallel structure is a separate dereference
    # (and in compiled code a separate cache line)
    "split": 2,
    "wild_tag": 4,     # the tag update of a WILD pointer store
    # split metadata made from the allocator's extent for a pointer a
    # library wrote (Section 4.2)
    "manufacture": 4,
    # -- CCured's run-time checks -------------------------------------
    "check:CHECK_NULL": 1,
    "check:CHECK_SEQ_BOUNDS": 3,
    "check:CHECK_FSEQ_BOUNDS": 2,
    "check:CHECK_SEQ_TO_SAFE": 3,
    "check:CHECK_SAFE_TO_SEQ": 1,
    "check:CHECK_WILD_BOUNDS": 6,
    "check:CHECK_WILD_READ_TAG": 5,
    "check:CHECK_STORE_STACK_PTR": 2,
    "check:CHECK_RTTI_CAST": 4,
    "check:CHECK_FUNPTR": 1,
    "check:CHECK_VERIFY_NUL": 8,
    "check:CHECK_VERIFY_SIZE": 2,
    "check:CHECK_INDEX": 2,
    # temporal lock-and-key validation: one lock-table load + compare
    "check:CHECK_ALIVE": 2,
    # -- shadow-tool events: free here, priced by TOOL_PRICES ----------
    "shadow_access": 0,      # a memory access the tool checks
    "shadow_byte": 0,        # per byte of that access
    "shadow_alloc": 0,       # a heap allocation the tool tracks
    "shadow_alloc_byte": 0,  # per byte allocated
    "shadow_free": 0,        # a free the tool tracks
}


def _io_dilation(factor: int) -> dict[str, int]:
    """Extra prices for a tool whose I/O path runs ``factor`` times
    slower than the bare one."""
    return {"io": (factor - 1) * PRICES["io"],
            "io_quarter": (factor - 1) * PRICES["io_quarter"]}


#: extra cycles per counted event under each shadow tool (by its
#: ``name``); a tool with no row pays the bare prices.
TOOL_PRICES: dict[str, dict[str, int]] = {
    # an instrumented call into the runtime per memory access, shadow
    # bit maintenance per byte, red-zone painting per allocation; the
    # I/O path goes through its intercepting wrappers
    "purify": {"shadow_access": 150, "shadow_byte": 3,
               "shadow_alloc": 400, "shadow_alloc_byte": 3,
               "shadow_free": 400, **_io_dilation(5)},
    # JIT dispatch multiplies every Set, Call and Check instruction
    # (x9); If tests are not dilated.  Shadow V-bits are maintained
    # per byte on every access.  Everything, the user-side I/O path
    # included, runs under the JIT (ftpd under Valgrind: 9.42x in
    # Figure 9).
    "valgrind": {"instr": 8, "shadow_access": 60, "shadow_byte": 6,
                 "shadow_alloc": 250, "shadow_alloc_byte": 6,
                 "shadow_free": 250, **_io_dilation(9)},
}


def price_row(tool: str = "") -> dict[str, int]:
    """The price of every event category under ``tool`` ("" for a
    bare or cured run)."""
    extra = TOOL_PRICES.get(tool, {})
    return {k: p + extra.get(k, 0) for k, p in PRICES.items()}


def mem_words(nbytes: int) -> int:
    """Words counted for an ``nbytes`` memory access (the closure
    engine folds this into each compiled load/store)."""
    return ((nbytes + 3) >> 2) or 1


class CostModel:
    """The event counts of one run, priced when ``cycles`` is read.

    Instructions, branch tests, operators and memory words are the
    hottest events in the interpreter, so they are plain integer
    fields; every other category is a key of ``events``.
    """

    __slots__ = ("tool", "instrs", "branches", "ops", "words",
                 "events")

    def __init__(self, tool: str = "") -> None:
        #: the shadow tool the run is priced for ("" for none)
        self.tool = tool
        self.instrs = 0
        self.branches = 0
        self.ops = 0
        self.words = 0
        self.events: Counter[str] = Counter()

    def counts(self) -> dict[str, int]:
        """The count vector: every category with a nonzero count, in
        name order."""
        out = dict(self.events)
        out.update(instr=self.instrs, branch=self.branches, op=self.ops,
                   mem_word=self.words)
        return {k: n for k, n in sorted(out.items()) if n}

    def priced(self) -> dict[str, int]:
        """Cycles per counted category, priced with the tool's row."""
        row = price_row(self.tool)
        return {k: row[k] * n for k, n in self.counts().items()}

    @property
    def cycles(self) -> int:
        """The count vector priced with the tool's row."""
        return sum(self.priced().values())

    def check_events(self) -> Counter:
        """Executed run-time checks by kind (the dynamic counterpart
        of ``CuredProgram.check_counts``: statically elided checks
        never appear here)."""
        return Counter({k.split(":", 1)[1]: v
                        for k, v in self.events.items()
                        if k.startswith("check:")})

    def checks_executed(self) -> int:
        """Total run-time checks actually executed."""
        return sum(v for k, v in self.events.items()
                   if k.startswith("check:"))

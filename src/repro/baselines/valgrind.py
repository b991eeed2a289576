"""A Valgrind/memcheck-like checker (Seward, 2003).

Valgrind JIT-translates every basic block — *all* instructions pay a
dilation factor even when no memory is touched — and memcheck keeps
**9 shadow bits per byte** (8 validity "V" bits + 1 addressability "A"
bit).  Its published profile (the paper measured 9–130x slowdowns,
Figure 9):

* catches heap overruns (A bits unset beyond blocks), use-after-free,
  and uninitialized value uses;
* like Purify, **misses out-of-bounds stack array indexing** and
  accesses that land inside another valid allocation.

This model keeps the addressability half only (the shared
:class:`~repro.baselines.base.HeapShadowChecker`): it reports heap
overruns, use-after-free and bad frees, but not uses of uninitialized
values.  The cost model separates the two components (the
``valgrind`` row of ``repro.runtime.cost.TOOL_PRICES``): a
per-instruction JIT dilation (which dominates CPU-bound code, hence
bind's 129x) and a per-access shadow update (which dominates
memory-bound code).  The dilation needs no hook: it is a price on the
instructions every run counts.
"""

from __future__ import annotations

from repro.baselines.base import HeapShadowChecker


class ValgrindChecker(HeapShadowChecker):
    name = "valgrind"
    messages = {
        "non_heap_free": "Invalid free() of 0x{addr:x}: not malloc'd",
        "interior_free": "Invalid free() of 0x{addr:x}: inside {block}, "
                         "not its start",
        "double_free": "Invalid free() of 0x{addr:x}: {block} was "
                       "freed",
        "unmapped": "Invalid {what} of size {size} at 0x{addr:x} "
                    "(unaddressable)",
        "freed": "Invalid {what} of size {size}: {block} was freed",
        "overrun": "Invalid {what} of size {size}: past the end of "
                   "{block}",
    }

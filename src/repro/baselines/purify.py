"""A Purify-like checker (Hastings & Joyce, USENIX '92).

Purify instruments object code, keeping **two status bits per byte**
(unallocated / allocated-uninitialized / allocated-initialized) and
painting *red zones* around heap allocations.  Its published profile,
which the paper leans on for its comparison (Section 5):

* catches heap overruns into red zones and use-after-free;
* **misses out-of-bounds stack array indexing** ("these other tools do
  not catch out-of-bounds array indexing on stack-allocated arrays");
* **misses pointer arithmetic between two separate valid regions** —
  an access that lands inside *another* live allocation looks fine;
* costs a function call into the runtime per memory access, yielding
  the paper's 25–100x slowdowns (its prices are the ``purify`` row of
  ``repro.runtime.cost.TOOL_PRICES``).

Our shadow state tracks heap addressability only (the shared
:class:`~repro.baselines.base.HeapShadowChecker`); stack and global
accesses are deliberately not validated, reproducing the blind spots
above.  Messages start with a Purify-style code: AB{R,W} for an
array-bounds read or write, F{R,W} for a freed-memory read or write,
FNH for freeing non-heap memory, FIM for freeing a pointer into the
middle of a heap block, FUM for freeing a block already freed.
"""

from __future__ import annotations

from repro.baselines.base import HeapShadowChecker


class PurifyChecker(HeapShadowChecker):
    name = "purify"
    messages = {
        "non_heap_free": "FNH: freeing non-heap memory at 0x{addr:x}",
        "interior_free": "FIM: freeing invalid memory at 0x{addr:x} "
                         "inside heap block {block}",
        "double_free": "FUM: freeing unallocated memory at 0x{addr:x}: "
                       "heap block {block} was freed",
        "unmapped": "AB{rw}: {what} of {size} bytes at 0x{addr:x} in a "
                    "red zone or unallocated memory",
        "freed": "F{rw}: {what} to freed heap block {block}",
        "overrun": "AB{rw}: {what} overruns heap block {block}",
    }

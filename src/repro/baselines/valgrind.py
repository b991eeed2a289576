"""A Valgrind/memcheck-like checker (Seward, 2003).

Valgrind JIT-translates every basic block — *all* instructions pay a
dilation factor even when no memory is touched — and memcheck keeps
**9 shadow bits per byte** (8 validity "V" bits + 1 addressability "A"
bit).  Its published profile (the paper measured 9–130x slowdowns,
Figure 9):

* catches heap overruns (A bits unset beyond blocks), use-after-free,
  and uninitialized value *uses*;
* like Purify, **misses out-of-bounds stack array indexing** and
  accesses that land inside another valid allocation.

The cost model separates the two components (the ``valgrind`` row
of ``repro.runtime.cost.TOOL_PRICES``): a per-instruction JIT dilation
(which dominates CPU-bound code, hence bind's 129x) and a per-access
shadow update (which dominates memory-bound code).  The dilation
needs no hook: it is a price on the instructions every run counts.
"""

from __future__ import annotations

from repro.baselines.base import BaselineViolation, ShadowChecker
from repro.runtime.memory import Home


class ValgrindChecker(ShadowChecker):
    wants_redzones = True
    name = "valgrind"

    def __init__(self) -> None:
        super().__init__()
        self._live_heap: dict[int, bool] = {}
        #: V-bit shadow: defined-ness per byte of heap blocks
        self._vbits: dict[int, bytearray] = {}
        self.errors_reported = 0

    def on_alloc(self, home: Home) -> None:
        self._live_heap[home.hid] = True
        self._vbits[home.hid] = bytearray(home.size)
        self._count_alloc(home)

    def on_free(self, home: Home) -> None:
        if not self._live_heap.get(home.hid, False):
            self.errors_reported += 1
            raise BaselineViolation(
                "valgrind", "invalid free() of non-heap address")
        self._live_heap[home.hid] = False
        self._count_free()

    def on_read(self, addr: int, size: int) -> None:
        self.reads += 1
        self._count_access(size)
        self._validate(addr, size, "read")

    def on_write(self, addr: int, size: int) -> None:
        self.writes += 1
        self._count_access(size)
        home = self._validate(addr, size, "write")
        if home is not None and home.hid in self._vbits:
            off = addr - home.base
            bits = self._vbits[home.hid]
            for i in range(off, min(off + size, len(bits))):
                bits[i] = 1

    def _validate(self, addr: int, size: int, what: str):
        home = self._home(addr)
        if home is None:
            self.errors_reported += 1
            raise BaselineViolation(
                "valgrind", f"Invalid {what} of size {size} at "
                f"0x{addr:x} (unaddressable)")
        if home.region == "heap":
            if not self._live_heap.get(home.hid, True):
                self.errors_reported += 1
                raise BaselineViolation(
                    "valgrind", f"Invalid {what} of size {size}: "
                    f"{home.name} was freed")
            if addr + size > home.end:
                self.errors_reported += 1
                raise BaselineViolation(
                    "valgrind", f"Invalid {what} of size {size}: "
                    f"past the end of {home.name}")
        return home

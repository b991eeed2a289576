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

Our shadow state tracks heap addressability and per-byte
initialization; stack and global accesses are deliberately not
validated, reproducing the blind spots above.
"""

from __future__ import annotations

from repro.baselines.base import BaselineViolation, ShadowChecker
from repro.runtime.memory import Home


class PurifyChecker(ShadowChecker):
    wants_redzones = True
    name = "purify"

    def __init__(self) -> None:
        super().__init__()
        #: hid -> True for live heap homes
        self._live_heap: dict[int, bool] = {}
        #: initialized-byte shadow for heap homes (2 bits/byte -> we
        #: keep a bytearray of 0/1 flags)
        self._init_bits: dict[int, bytearray] = {}
        self.errors_reported = 0

    # -- allocation tracking -----------------------------------------------

    def on_alloc(self, home: Home) -> None:
        self._live_heap[home.hid] = True
        self._init_bits[home.hid] = bytearray(home.size)
        self._count_alloc(home)

    def on_free(self, home: Home) -> None:
        if not self._live_heap.get(home.hid, False):
            self.errors_reported += 1
            raise BaselineViolation("purify",
                                    "FNH: freeing non-heap block")
        self._live_heap[home.hid] = False
        self._count_free()

    # -- access checking ------------------------------------------------------

    def on_read(self, addr: int, size: int) -> None:
        self.reads += 1
        self._count_access(size)
        self._validate(addr, size, "read")

    def on_write(self, addr: int, size: int) -> None:
        self.writes += 1
        self._count_access(size)
        home = self._validate(addr, size, "write")
        if home is not None and home.hid in self._init_bits:
            off = addr - home.base
            bits = self._init_bits[home.hid]
            for i in range(off, min(off + size, len(bits))):
                bits[i] = 1

    def _validate(self, addr: int, size: int, what: str):
        home = self._home(addr)
        if home is None:
            # Red zone or unallocated address: ABW/ABR.
            self.errors_reported += 1
            raise BaselineViolation(
                "purify", f"AB{'W' if what == 'write' else 'R'}: "
                f"{what} of {size} bytes at 0x{addr:x} in a red zone "
                "or unallocated memory")
        if home.region == "heap":
            if not self._live_heap.get(home.hid, True):
                self.errors_reported += 1
                raise BaselineViolation(
                    "purify", f"F{'W' if what == 'write' else 'R'}: "
                    f"{what} to freed heap block {home.name}")
            if addr + size > home.end:
                self.errors_reported += 1
                raise BaselineViolation(
                    "purify", f"ABW: {what} overruns heap block "
                    f"{home.name}")
        # Stack and global accesses are not validated: Purify's
        # documented blind spot (the access must land *somewhere*
        # mapped, which the memory model already guarantees).
        return home

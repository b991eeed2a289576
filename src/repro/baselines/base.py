"""Shadow-memory checker interface for the baseline tools.

The paper compares CCured against Purify and Valgrind (Section 5 and
Figure 9).  Both are *binary* instrumentation tools: they observe every
memory access of the uninstrumented program and keep shadow state.  We
reproduce them as :class:`ShadowChecker` plugins on the raw
interpreter: the interpreter calls the hooks on every access,
allocation and free.  Both tools keep the same heap shadow
(:class:`HeapShadowChecker`) and count the events they pay for; they
differ only in their name and message texts.
:mod:`repro.runtime.cost` prices the counts with the tool's published
overhead profile (its row of ``TOOL_PRICES``, looked up by ``name``).

Detected violations raise :class:`BaselineViolation` — deliberately a
different hierarchy from CCured's
:class:`repro.runtime.checks.MemorySafetyError`, since tests assert
*which* tool catches *which* bug class.
"""

from __future__ import annotations

from typing import NoReturn, Optional

from repro.runtime.memory import Home


class BaselineViolation(Exception):
    """A memory error detected by a baseline shadow tool."""

    def __init__(self, tool: str, message: str) -> None:
        super().__init__(f"{tool}: {message}")
        self.tool = tool


class ShadowChecker:
    """Base class: checks nothing, counts nothing."""

    #: request guard gaps (red zones) around heap allocations.
    wants_redzones = False
    name = "shadow"

    def __init__(self) -> None:
        self.ip = None  # the interpreter, set by attach()
        self.reads = 0
        self.writes = 0

    def attach(self, ip) -> None:
        self.ip = ip

    # -- hooks ---------------------------------------------------------

    def on_read(self, addr: int, size: int) -> None: ...

    def on_write(self, addr: int, size: int) -> None: ...

    def on_alloc(self, home: Home) -> None: ...

    def on_free(self, addr: int, home: Optional[Home]) -> None: ...

    # -- helpers ----------------------------------------------------------

    def _home(self, addr: int) -> Optional[Home]:
        assert self.ip is not None
        return self.ip.mem.home_of(addr)

    def _count_access(self, size: int) -> None:
        assert self.ip is not None
        events = self.ip.cost.events
        events["shadow_access"] += 1
        events["shadow_byte"] += size

    def _count_alloc(self, home: Home) -> None:
        assert self.ip is not None
        events = self.ip.cost.events
        events["shadow_alloc"] += 1
        events["shadow_alloc_byte"] += home.size

    def _count_free(self) -> None:
        assert self.ip is not None
        self.ip.cost.events["shadow_free"] += 1


class HeapShadowChecker(ShadowChecker):
    """The shadow Purify and Valgrind both keep: which heap blocks are
    live, behind red zones.  An access to an unmapped address (a red
    zone), to a freed heap block or past a heap block's end is
    reported, and so is a free of anything but the start of a live
    heap block.  Stack and global accesses are not validated: both
    tools' documented blind spot (the access lands *somewhere* mapped,
    which the memory model already guarantees).

    A tool gives its ``name`` and its ``messages``: one template per
    violation (``non_heap_free``, ``interior_free``, ``double_free``,
    ``unmapped``, ``freed``, ``overrun``), formatted with ``what``
    (read/write), ``rw`` (R/W), ``size``, ``addr`` and ``block`` (the
    heap block's name)."""

    wants_redzones = True
    messages: dict[str, str] = {}

    def __init__(self) -> None:
        super().__init__()
        #: hid -> True while a heap home is live, False once freed
        self._live_heap: dict[int, bool] = {}
        self.errors_reported = 0

    def on_alloc(self, home: Home) -> None:
        self._live_heap[home.hid] = True
        self._count_alloc(home)

    def on_free(self, addr: int, home: Optional[Home]) -> None:
        if home is None or home.region != "heap":
            self._report("non_heap_free", addr=addr)
        if addr != home.base:
            self._report("interior_free", addr=addr, block=home.name)
        if not self._live_heap.get(home.hid, False):
            self._report("double_free", addr=addr, block=home.name)
        self._live_heap[home.hid] = False
        self._count_free()

    def on_read(self, addr: int, size: int) -> None:
        self.reads += 1
        self._count_access(size)
        self._validate(addr, size, "read")

    def on_write(self, addr: int, size: int) -> None:
        self.writes += 1
        self._count_access(size)
        self._validate(addr, size, "write")

    def _validate(self, addr: int, size: int, what: str) -> None:
        home = self._home(addr)
        if home is None:
            self._report("unmapped", what, size, addr)
        elif home.region == "heap":
            if not self._live_heap.get(home.hid, True):
                self._report("freed", what, size, addr, home.name)
            if addr + size > home.end:
                self._report("overrun", what, size, addr, home.name)

    def _report(self, violation: str, what: str = "", size: int = 0,
                addr: int = 0, block: str = "") -> NoReturn:
        self.errors_reported += 1
        raise BaselineViolation(self.name, self.messages[violation].format(
            what=what, rw="W" if what == "write" else "R", size=size,
            addr=addr, block=block))

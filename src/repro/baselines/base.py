"""Shadow-memory checker interface for the baseline tools.

The paper compares CCured against Purify and Valgrind (Section 5 and
Figure 9).  Both are *binary* instrumentation tools: they observe every
memory access of the uninstrumented program and keep shadow state.  We
reproduce them as :class:`ShadowChecker` plugins on the raw
interpreter: the interpreter calls the hooks on every access,
allocation and free, and each tool maintains its shadow state and
counts the events it pays for.  :mod:`repro.runtime.cost` prices them
with the tool's published overhead profile (its row of
``TOOL_PRICES``, looked up by ``name``).

Detected violations raise :class:`BaselineViolation` — deliberately a
different hierarchy from CCured's
:class:`repro.runtime.checks.MemorySafetyError`, since tests assert
*which* tool catches *which* bug class.
"""

from __future__ import annotations

from typing import Optional

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

    def on_free(self, home: Home) -> None: ...

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

"""Whole-program container for the CIL-like IR."""

from __future__ import annotations

import copy
import gc
import pickle
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, TypeVar

from repro.cil.expr import Varinfo
from repro.cil.stmt import Fundec, Init
from repro.cil.types import CompInfo, CType, EnumInfo

_Tree = TypeVar("_Tree")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector while unpickling a tree, and restore
    the caller's setting afterwards, also on error.  Every object such
    a load builds is live, so a collection during it is wasted work:
    it walks the half-built tree and frees nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def deepcopy_tree(tree: _Tree, memo: dict) -> _Tree:
    """``copy.deepcopy`` of a whole tree (a :class:`Program` or a
    :class:`~repro.core.curer.CuredProgram`).

    A top-level copy round-trips the tree through the C pickler instead
    of ``copy``'s per-object Python recursion.  Trees already round-trip
    through pickle in the cure cache, so this adds no serialization
    contract.  The cyclic collector is paused meanwhile
    (:func:`collector_paused`).  A copy nested in a larger deepcopy
    (non-empty ``memo``) takes the generic walk, so it keeps sharing
    objects with the enclosing copy.
    """
    if memo:
        cls = type(tree)
        clone = cls.__new__(cls)
        memo[id(tree)] = clone
        clone.__dict__.update(copy.deepcopy(tree.__dict__, memo))
        return clone
    with collector_paused():
        return pickle.loads(pickle.dumps(tree, pickle.HIGHEST_PROTOCOL))


class Global:
    """Base class of top-level program elements."""

    __slots__ = ()


class GVar(Global):
    """A global variable definition with an optional initializer."""

    __slots__ = ("var", "init")

    def __init__(self, var: Varinfo, init: Optional[Init] = None) -> None:
        self.var = var
        self.init = init

    def __repr__(self) -> str:
        return f"<gvar {self.var.name}>"


class GVarDecl(Global):
    """A declaration (prototype / extern) without a definition."""

    __slots__ = ("var",)

    def __init__(self, var: Varinfo) -> None:
        self.var = var

    def __repr__(self) -> str:
        return f"<gdecl {self.var.name}>"


class GFun(Global):
    """A function definition."""

    __slots__ = ("fundec",)

    def __init__(self, fundec: Fundec) -> None:
        self.fundec = fundec

    def __repr__(self) -> str:
        return f"<gfun {self.fundec.name}>"


class GCompTag(Global):
    """A struct/union definition."""

    __slots__ = ("comp",)

    def __init__(self, comp: CompInfo) -> None:
        self.comp = comp


class GEnumTag(Global):
    __slots__ = ("enuminfo",)

    def __init__(self, enuminfo: EnumInfo) -> None:
        self.enuminfo = enuminfo


class GType(Global):
    """A typedef."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, ctype: CType) -> None:
        self.name = name
        self.type = ctype


class GPragma(Global):
    """A ``#pragma`` retained from the source (e.g. ``ccuredWrapperOf``)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[str]) -> None:
        self.name = name
        self.args = list(args)


class Program:
    """A parsed and lowered translation unit (plus linked units).

    The program is the unit of analysis for CCured's *whole-program*
    pointer-kind inference, so all sources of an application are lowered
    into a single ``Program``.
    """

    def __init__(self, name: str = "a") -> None:
        self.name = name
        self.globals: list[Global] = []
        self.comps: dict[str, CompInfo] = {}
        self.enums: dict[str, EnumInfo] = {}
        self.typedefs: dict[str, CType] = {}
        self.global_vars: dict[str, Varinfo] = {}
        self.functions: dict[str, Fundec] = {}
        #: names declared but not defined here — resolved against the
        #: runtime's libc builtins / wrappers at interpretation time.
        self.externals: dict[str, Varinfo] = {}
        #: casts the user asserted trusted (Section 3's escape hatch).
        self.trusted_cast_count = 0
        #: ``(filename, line)`` pairs holding a ``repro-lint: ignore``
        #: comment; ``repro lint`` drops diagnostics on such a line or
        #: the line directly below it.
        self.lint_suppressions: set[tuple[str, int]] = set()

    def add(self, g: Global) -> None:
        self.globals.append(g)
        if isinstance(g, GCompTag):
            self.comps[g.comp.name] = g.comp
        elif isinstance(g, GEnumTag):
            self.enums[g.enuminfo.name] = g.enuminfo
        elif isinstance(g, GType):
            self.typedefs[g.name] = g.type
        elif isinstance(g, GVar):
            self.global_vars[g.var.name] = g.var
            self.externals.pop(g.var.name, None)
        elif isinstance(g, GVarDecl):
            if (g.var.name not in self.global_vars
                    and g.var.name not in self.functions):
                self.externals[g.var.name] = g.var
        elif isinstance(g, GFun):
            self.functions[g.fundec.name] = g.fundec
            self.externals.pop(g.fundec.name, None)

    def fundecs(self) -> Iterator[Fundec]:
        for g in self.globals:
            if isinstance(g, GFun):
                yield g.fundec

    def function(self, name: str) -> Fundec:
        return self.functions[name]

    def pragmas(self, name: str) -> list[GPragma]:
        return [g for g in self.globals
                if isinstance(g, GPragma) and g.name == name]

    def __deepcopy__(self, memo: dict) -> "Program":
        return deepcopy_tree(self, memo)

    def __repr__(self) -> str:
        return (f"<program {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")

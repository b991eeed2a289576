"""Expressions and lvalues of the CIL-like IR.

Following CIL, expressions are *side-effect free*; assignments and calls
are instructions (:mod:`repro.cil.stmt`).  Lvalues are a pair of a host
(a variable or a memory dereference) and an offset chain (field accesses
and array indexing).  ``e1[e2]`` is desugared by the frontend into
``*(e1 + e2)`` via :class:`StartOf` (array-to-pointer decay) so that, per
the paper's appendix, "we will only consider pointer arithmetic".
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.cil.types import (CType, FieldInfo, TArray, TInt, TPtr, IKind,
                             unroll, is_pointer, int_t)


class Varinfo:
    """A variable: global, formal parameter, local, or compiler temp."""

    __slots__ = ("name", "type", "is_global", "is_formal", "is_temp",
                 "storage", "address_taken", "decl_loc", "vid")

    _next_id = 0

    def __init__(self, name: str, vtype: CType, *, is_global: bool = False,
                 is_formal: bool = False, is_temp: bool = False,
                 storage: str = "default") -> None:
        self.name = name
        self.type = vtype
        self.is_global = is_global
        self.is_formal = is_formal
        self.is_temp = is_temp
        self.storage = storage  # "default" | "static" | "extern"
        self.address_taken = False
        #: (file, line) of the declaration, when the frontend knows it
        #: (used by lint to point at uninitialized locals).
        self.decl_loc: Optional[tuple[str, int]] = None
        self.vid = Varinfo._next_id
        Varinfo._next_id = Varinfo._next_id + 1

    def __setstate__(self, state: tuple) -> None:
        # An unpickled variable keeps the id its creating process gave
        # it (a cure-cache load).  Reserve that id, so variables made
        # here afterwards (a grafted fault fragment) never share it:
        # the engines key register variables and homes by id.  Slot
        # state is (None, {slot: value}).
        for name, value in state[1].items():
            setattr(self, name, value)
        if self.vid >= Varinfo._next_id:
            Varinfo._next_id = self.vid + 1

    def __repr__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Lvalues
# ---------------------------------------------------------------------------

class Offset:
    """Base class for lvalue offsets."""

    __slots__ = ()

    def __repr__(self) -> str:
        return ""


class NoOffset(Offset):
    """The empty offset."""

    __slots__ = ()


NO_OFFSET = NoOffset()


class Field(Offset):
    """A ``.field`` offset followed by a further offset."""

    __slots__ = ("field", "rest")

    def __init__(self, field: FieldInfo, rest: Offset = NO_OFFSET) -> None:
        self.field = field
        self.rest = rest

    def __repr__(self) -> str:
        return f".{self.field.name}{self.rest!r}"


class Index(Offset):
    """An array ``[index]`` offset followed by a further offset.

    Note: this is indexing *within* an array object (e.g. a struct field
    of array type), not pointer arithmetic — the frontend turns indexing
    of pointer values into explicit arithmetic.
    """

    __slots__ = ("index", "rest")

    def __init__(self, index: "Exp", rest: Offset = NO_OFFSET) -> None:
        self.index = index
        self.rest = rest

    def __repr__(self) -> str:
        return f"[{self.index!r}]{self.rest!r}"


class Lhost:
    """Base class of lvalue hosts."""

    __slots__ = ()


class Var(Lhost):
    """A named variable host."""

    __slots__ = ("var",)

    def __init__(self, var: Varinfo) -> None:
        self.var = var

    def __repr__(self) -> str:
        return self.var.name


class Mem(Lhost):
    """A memory dereference host: ``*e``."""

    __slots__ = ("exp",)

    def __init__(self, exp: "Exp") -> None:
        self.exp = exp

    def __repr__(self) -> str:
        return f"*({self.exp!r})"


class Lval:
    """An lvalue: a host plus an offset chain."""

    __slots__ = ("host", "offset", "_type")

    def __init__(self, host: Lhost, offset: Offset = NO_OFFSET) -> None:
        self.host = host
        self.offset = offset
        self._type: Optional[CType] = None

    def type(self) -> CType:
        """The C type this lvalue denotes (cached: lvalues are static
        syntax, so their type never changes)."""
        if self._type is not None:
            return self._type
        self._type = self._compute_type()
        return self._type

    def _compute_type(self) -> CType:
        if isinstance(self.host, Var):
            t: CType = self.host.var.type
        else:
            assert isinstance(self.host, Mem)
            pt = unroll(self.host.exp.type())
            if not isinstance(pt, TPtr):
                raise TypeError(f"dereference of non-pointer {pt!r}")
            t = pt.base
        return _offset_type(t, self.offset)

    def __repr__(self) -> str:
        return f"{self.host!r}{self.offset!r}"


def _offset_type(t: CType, off: Offset) -> CType:
    while True:
        if isinstance(off, NoOffset):
            return t
        if isinstance(off, Field):
            t = off.field.type
            off = off.rest
        elif isinstance(off, Index):
            at = unroll(t)
            if not isinstance(at, TArray):
                raise TypeError(f"indexing non-array {t!r}")
            t = at.base
            off = off.rest
        else:  # pragma: no cover - defensive
            raise TypeError(f"bad offset {off!r}")


def var_lval(v: Varinfo, offset: Offset = NO_OFFSET) -> Lval:
    return Lval(Var(v), offset)


def mem_lval(e: "Exp", offset: Offset = NO_OFFSET) -> Lval:
    return Lval(Mem(e), offset)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class UnopKind(enum.Enum):
    NEG = "-"
    BNOT = "~"
    LNOT = "!"


class BinopKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    SHL = "<<"
    SHR = ">>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    BAND = "&"
    BXOR = "^"
    BOR = "|"
    # Pointer forms, distinguished as in CIL so that instrumentation can
    # find every occurrence of pointer arithmetic syntactically:
    PLUS_PI = "+p"    # pointer + integer
    MINUS_PI = "-p"   # pointer - integer
    MINUS_PP = "-pp"  # pointer - pointer (an integer result)


COMPARISONS = {BinopKind.LT, BinopKind.GT, BinopKind.LE, BinopKind.GE,
               BinopKind.EQ, BinopKind.NE}
POINTER_ARITH = {BinopKind.PLUS_PI, BinopKind.MINUS_PI}


class Exp:
    """Base class of side-effect-free expressions."""

    __slots__ = ()

    def type(self) -> CType:
        raise NotImplementedError


class Const(Exp):
    """An integer, floating or character constant."""

    __slots__ = ("value", "_type")

    def __init__(self, value, ctype: Optional[CType] = None) -> None:
        self.value = value
        self._type = ctype if ctype is not None else int_t()

    def type(self) -> CType:
        return self._type

    def __repr__(self) -> str:
        return repr(self.value)


class StrConst(Exp):
    """A string literal; has type ``char[len+1]`` decayed by StartOf."""

    __slots__ = ("value", "_type")

    def __init__(self, value: str, ctype: CType) -> None:
        self.value = value
        self._type = ctype  # a TPtr(char) produced by the frontend

    def type(self) -> CType:
        return self._type

    def __repr__(self) -> str:
        return repr(self.value)


class LvalExp(Exp):
    """Reading an lvalue."""

    __slots__ = ("lval",)

    def __init__(self, lval: Lval) -> None:
        self.lval = lval

    def type(self) -> CType:
        return self.lval.type()

    def __repr__(self) -> str:
        return repr(self.lval)


class SizeOfT(Exp):
    """``sizeof(type)``; evaluated by the interpreter via the machine."""

    __slots__ = ("t",)

    def __init__(self, t: CType) -> None:
        self.t = t

    def type(self) -> CType:
        return TInt(IKind.UINT)

    def __repr__(self) -> str:
        return f"sizeof({self.t!r})"


class UnOp(Exp):
    __slots__ = ("op", "e", "_type")

    def __init__(self, op: UnopKind, e: Exp, ctype: CType) -> None:
        self.op = op
        self.e = e
        self._type = ctype

    def type(self) -> CType:
        return self._type

    def __repr__(self) -> str:
        return f"{self.op.value}({self.e!r})"


class BinOp(Exp):
    #: ``_esz_cache``: the element size of pointer arithmetic, set
    #: lazily by the tree engine
    __slots__ = ("op", "e1", "e2", "_type", "_esz_cache")
    _esz_cache: int

    def __init__(self, op: BinopKind, e1: Exp, e2: Exp,
                 ctype: CType) -> None:
        self.op = op
        self.e1 = e1
        self.e2 = e2
        self._type = ctype

    def type(self) -> CType:
        return self._type

    def __repr__(self) -> str:
        return f"({self.e1!r} {self.op.value} {self.e2!r})"


class CastE(Exp):
    """An explicit or frontend-inserted cast.

    Casts are the central object of study of the paper; the constraint
    generator visits every ``CastE`` and classifies it (identical, upcast,
    downcast, or bad — Section 3).
    """

    __slots__ = ("t", "e", "trusted")

    def __init__(self, t: CType, e: Exp) -> None:
        self.t = t
        self.e = e
        self.trusted = False  # set for __trusted_cast escape hatches

    def type(self) -> CType:
        return self.t

    def __repr__(self) -> str:
        trust = "trusted " if self.trusted else ""
        return f"({trust}{self.t!r})({self.e!r})"


class AddrOf(Exp):
    """``&lval``; never applied to arrays (see :class:`StartOf`).

    The constructed pointer type is cached so that the qualifier node
    attached to this syntactic occurrence persists.
    """

    __slots__ = ("lval", "_type")

    def __init__(self, lval: Lval) -> None:
        self.lval = lval
        self._type: Optional[CType] = None

    def type(self) -> CType:
        if self._type is None:
            self._type = TPtr(self.lval.type())
        return self._type

    def __repr__(self) -> str:
        return f"&({self.lval!r})"


class StartOf(Exp):
    """Array-to-pointer decay: the address of an array lvalue's start.

    CCured treats the resulting pointer as referring to the whole array,
    which is what makes SEQ bounds for stack and global arrays precise
    (and is exactly what Purify/Valgrind cannot see, per Section 5).
    The constructed pointer type is cached so the qualifier node
    attached to this occurrence persists.
    """

    __slots__ = ("lval", "_type")

    def __init__(self, lval: Lval) -> None:
        self.lval = lval
        self._type: Optional[CType] = None

    def type(self) -> CType:
        if self._type is not None:
            return self._type
        at = unroll(self.lval.type())
        if not isinstance(at, TArray):
            raise TypeError(f"StartOf non-array {at!r}")
        self._type = TPtr(at.base)
        return self._type

    def __repr__(self) -> str:
        return f"startof({self.lval!r})"


def dummy_exp() -> Exp:
    return Const(0)


def is_zero(e: Exp) -> bool:
    """Is this expression a (possibly cast) literal zero/null?"""
    while isinstance(e, CastE):
        e = e.e
    return isinstance(e, Const) and e.value == 0


def exp_children(e: Exp) -> Sequence[Exp]:
    """The immediate sub-expressions of ``e`` (for generic walks)."""
    if isinstance(e, UnOp):
        return (e.e,)
    if isinstance(e, BinOp):
        return (e.e1, e.e2)
    if isinstance(e, CastE):
        return (e.e,)
    return ()

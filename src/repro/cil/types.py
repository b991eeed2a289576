"""C types for the CIL-like intermediate representation.

This module mirrors the type language of CIL (the C Intermediate Language
that the original CCured was built on): void, integer and floating kinds,
pointers, arrays, functions, named types (typedefs), and composite types
(structs/unions).

Pointer types carry an optional *qualifier node* slot (``TPtr.node``).
During constraint generation (:mod:`repro.core.constraints`) every syntactic
occurrence of a pointer type receives a fresh node; the solver then assigns
each node one of the CCured pointer kinds (SAFE/SEQ/WILD/RTTI).  Struct
fields are shared declarations, so all uses of a field share one node —
exactly as in CCured, where the inference associates "a qualifier variable
with each syntactic occurrence of the ``*`` pointer-type constructor".

The machine model is ILP32 with a 4-byte word, matching the paper's
appendix ("For simplicity word size is assumed to be 4").
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence


class IKind(enum.Enum):
    """Integer kinds, following CIL's ``ikind``."""

    BOOL = "_Bool"
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LLONG = "long long"
    ULLONG = "unsigned long long"

    @property
    def is_signed(self) -> bool:
        return self in _SIGNED_IKINDS


_SIGNED_IKINDS = {IKind.CHAR, IKind.SCHAR, IKind.SHORT, IKind.INT,
                  IKind.LONG, IKind.LLONG}


class FKind(enum.Enum):
    """Floating-point kinds."""

    FLOAT = "float"
    DOUBLE = "double"
    LDOUBLE = "long double"


class Machine:
    """Target machine layout parameters (sizes and alignments in bytes).

    The default models the paper's 32-bit x86 target: 4-byte words and
    4-byte one-word pointers in the *C representation*.  Cured "wide"
    representations (Figure 1 of the paper) are modelled by the runtime's
    shadow metadata rather than by growing ``sizeof`` — see
    ``repro/runtime/memory.py`` for the rationale.
    """

    def __init__(self) -> None:
        self.word = 4
        self.ptr_size = 4
        self.int_sizes = {
            IKind.BOOL: 1,
            IKind.CHAR: 1,
            IKind.SCHAR: 1,
            IKind.UCHAR: 1,
            IKind.SHORT: 2,
            IKind.USHORT: 2,
            IKind.INT: 4,
            IKind.UINT: 4,
            IKind.LONG: 4,
            IKind.ULONG: 4,
            IKind.LLONG: 8,
            IKind.ULLONG: 8,
        }
        self.float_sizes = {FKind.FLOAT: 4, FKind.DOUBLE: 8, FKind.LDOUBLE: 8}

    def int_size(self, kind: IKind) -> int:
        return self.int_sizes[kind]

    def float_size(self, kind: FKind) -> int:
        return self.float_sizes[kind]


#: The default machine used throughout the library.
MACHINE = Machine()


class CType:
    """Base class of all C types."""

    def size(self, machine: Machine = MACHINE) -> int:
        """Size of this type in bytes under the plain C layout."""
        raise NotImplementedError

    def align(self, machine: Machine = MACHINE) -> int:
        """Alignment requirement in bytes under the plain C layout."""
        raise NotImplementedError

    def sig(self) -> object:
        """A hashable signature identifying this type up to naming.

        Two types with equal signatures are *identical C types* in the
        sense used by the paper's cast census (Section 3): casts between
        them are not casts at all.  Qualifier nodes are ignored.
        """
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CType) and self.sig() == other.sig()

    def __hash__(self) -> int:
        return hash(self.sig())


class TVoid(CType):
    """The ``void`` type.

    Per Section 3.1 of the paper, ``void`` is treated as the *empty
    structure* for physical subtyping purposes: any type is a physical
    subtype of ``void``, and a cast to ``void*`` is always an upcast.
    """

    def size(self, machine: Machine = MACHINE) -> int:
        raise IncompleteTypeError("sizeof(void) is not defined")

    def align(self, machine: Machine = MACHINE) -> int:
        return 1

    def sig(self) -> object:
        return ("void",)

    def __repr__(self) -> str:
        return "void"


class TInt(CType):
    """Integer types, including ``char`` and ``_Bool``."""

    def __init__(self, kind: IKind = IKind.INT) -> None:
        self.kind = kind

    def size(self, machine: Machine = MACHINE) -> int:
        return machine.int_size(self.kind)

    def align(self, machine: Machine = MACHINE) -> int:
        return min(machine.int_size(self.kind), machine.word)

    def sig(self) -> object:
        return ("int", self.kind)

    def __repr__(self) -> str:
        return self.kind.value


class TFloat(CType):
    """Floating-point types."""

    def __init__(self, kind: FKind = FKind.DOUBLE) -> None:
        self.kind = kind

    def size(self, machine: Machine = MACHINE) -> int:
        return machine.float_size(self.kind)

    def align(self, machine: Machine = MACHINE) -> int:
        return min(machine.float_size(self.kind), machine.word)

    def sig(self) -> object:
        return ("float", self.kind)

    def __repr__(self) -> str:
        return self.kind.value


class TPtr(CType):
    """A pointer type with a qualifier-node slot.

    ``node`` is filled in during constraint generation; until then the
    pointer is unconstrained.  ``kind`` reads through to the node's solved
    pointer kind (defaulting to SAFE for un-analyzed types, which is the
    kind CCured infers for unconstrained pointers).
    """

    def __init__(self, base: CType, node: Optional[object] = None) -> None:
        self.base = base
        self.node = node  # repro.core.qualifiers.Node, assigned later

    @property
    def kind(self):
        from repro.core.qualifiers import PointerKind

        if self.node is None:
            return PointerKind.SAFE
        return self.node.kind

    def size(self, machine: Machine = MACHINE) -> int:
        return machine.ptr_size

    def align(self, machine: Machine = MACHINE) -> int:
        return machine.ptr_size

    def sig(self) -> object:
        return ("ptr", self.base.sig())

    def __repr__(self) -> str:
        return f"{self.base!r}*"


class TArray(CType):
    """An array type; ``length`` is ``None`` for incomplete arrays."""

    def __init__(self, base: CType, length: Optional[int]) -> None:
        self.base = base
        self.length = length

    def size(self, machine: Machine = MACHINE) -> int:
        if self.length is None:
            raise IncompleteTypeError("sizeof incomplete array")
        return self.base.size(machine) * self.length

    def align(self, machine: Machine = MACHINE) -> int:
        return self.base.align(machine)

    def sig(self) -> object:
        return ("array", self.base.sig(), self.length)

    def __repr__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.base!r}[{n}]"


class TFun(CType):
    """A function type.

    ``params`` is a sequence of ``(name, type)`` pairs; ``varargs`` marks
    ``...`` functions.  Function types have no size.
    """

    def __init__(self, ret: CType,
                 params: Optional[Sequence[tuple[str, CType]]],
                 varargs: bool = False) -> None:
        self.ret = ret
        self.params = list(params) if params is not None else None
        self.varargs = varargs

    def size(self, machine: Machine = MACHINE) -> int:
        raise IncompleteTypeError("sizeof function type")

    def align(self, machine: Machine = MACHINE) -> int:
        return 1

    def sig(self) -> object:
        if self.params is None:
            psig: object = None
        else:
            psig = tuple(t.sig() for _, t in self.params)
        return ("fun", self.ret.sig(), psig, self.varargs)

    def __repr__(self) -> str:
        if self.params is None:
            ps = ""
        else:
            ps = ", ".join(repr(t) for _, t in self.params)
            if self.varargs:
                ps += ", ..."
        return f"{self.ret!r}({ps})"


class FieldInfo:
    """A field of a composite type."""

    def __init__(self, name: str, ftype: CType) -> None:
        self.name = name
        self.type = ftype
        self.comp: Optional[CompInfo] = None  # backlink, set by CompInfo

    def __repr__(self) -> str:
        owner = self.comp.name if self.comp else "?"
        return f"{owner}.{self.name}"


class CompInfo:
    """A composite (struct or union) type declaration.

    Identity matters: two structs with the same fields are distinct C
    types, so ``CompInfo`` instances are compared by a unique key.
    """

    _next_key = 0

    def __init__(self, is_struct: bool, name: str,
                 fields: Optional[Iterable[FieldInfo]] = None) -> None:
        self.is_struct = is_struct
        self.name = name
        self.fields: list[FieldInfo] = []
        self.defined = False
        self.key = CompInfo._next_key
        CompInfo._next_key += 1
        if fields is not None:
            self.set_fields(fields)

    def __setstate__(self, state: dict) -> None:
        # Like Varinfo ids: an unpickled composite reserves its key, so
        # a struct declared here afterwards never takes the same
        # identity (``TComp.sig``).
        self.__dict__.update(state)
        if self.key >= CompInfo._next_key:
            CompInfo._next_key = self.key + 1

    def set_fields(self, fields: Iterable[FieldInfo]) -> None:
        self.fields = list(fields)
        for f in self.fields:
            f.comp = self
        self.defined = True

    def field(self, name: str) -> FieldInfo:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"no field {name!r} in {self!r}")

    def __repr__(self) -> str:
        kw = "struct" if self.is_struct else "union"
        return f"{kw} {self.name}"


class TComp(CType):
    """A reference to a composite type."""

    def __init__(self, comp: CompInfo) -> None:
        self.comp = comp

    def size(self, machine: Machine = MACHINE) -> int:
        return comp_layout(self.comp, machine).size

    def align(self, machine: Machine = MACHINE) -> int:
        return comp_layout(self.comp, machine).align

    def sig(self) -> object:
        return ("comp", self.comp.key)

    def __repr__(self) -> str:
        return repr(self.comp)


class EnumInfo:
    """An enumeration declaration; items are ``(name, value)`` pairs."""

    _next_key = 0

    def __init__(self, name: str,
                 items: Optional[Sequence[tuple[str, int]]] = None) -> None:
        self.name = name
        self.items = list(items) if items else []
        self.key = EnumInfo._next_key
        EnumInfo._next_key += 1

    def __repr__(self) -> str:
        return f"enum {self.name}"


class TEnum(CType):
    """A reference to an enumeration type; layout-identical to ``int``."""

    def __init__(self, enuminfo: EnumInfo) -> None:
        self.enuminfo = enuminfo

    def size(self, machine: Machine = MACHINE) -> int:
        return machine.int_size(IKind.INT)

    def align(self, machine: Machine = MACHINE) -> int:
        return machine.int_size(IKind.INT)

    def sig(self) -> object:
        # Enums are layout- and conversion-compatible with int; treating
        # them as int keeps the cast census focused on pointer structure.
        return ("int", IKind.INT)

    def __repr__(self) -> str:
        return repr(self.enuminfo)


class TNamed(CType):
    """A typedef; transparent for layout and signatures."""

    def __init__(self, name: str, actual: CType) -> None:
        self.name = name
        self.actual = actual

    def size(self, machine: Machine = MACHINE) -> int:
        return self.actual.size(machine)

    def align(self, machine: Machine = MACHINE) -> int:
        return self.actual.align(machine)

    def sig(self) -> object:
        return self.actual.sig()

    def __repr__(self) -> str:
        return self.name


class IncompleteTypeError(Exception):
    """Raised when ``sizeof`` is applied to an incomplete type."""


def unroll(t: CType) -> CType:
    """Strip typedefs, returning the underlying type."""
    while isinstance(t, TNamed):
        t = t.actual
    return t


def is_pointer(t: CType) -> bool:
    return isinstance(unroll(t), TPtr)


def is_integral(t: CType) -> bool:
    return isinstance(unroll(t), (TInt, TEnum))


def is_arithmetic(t: CType) -> bool:
    return isinstance(unroll(t), (TInt, TEnum, TFloat))


def is_void(t: CType) -> bool:
    return isinstance(unroll(t), TVoid)


def is_function(t: CType) -> bool:
    return isinstance(unroll(t), TFun)


def is_scalar(t: CType) -> bool:
    return is_arithmetic(t) or is_pointer(t)


class CompLayout:
    """Byte layout of a composite: field offsets, total size, alignment."""

    def __init__(self, size: int, align: int,
                 offsets: dict[str, int]) -> None:
        self.size = size
        self.align = align
        self.offsets = offsets


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


def comp_layout(comp: CompInfo, machine: Machine = MACHINE) -> CompLayout:
    """Compute the C layout of a struct or union.

    Structs lay fields out sequentially with natural alignment padding;
    unions overlay all fields at offset 0.  The result is cached on the
    ``CompInfo`` per machine.
    """
    cache = getattr(comp, "_layout_cache", None)
    if cache is not None and cache[0] is machine:
        return cache[1]
    if not comp.defined:
        raise IncompleteTypeError(f"layout of incomplete {comp!r}")
    offsets: dict[str, int] = {}
    align = 1
    if comp.is_struct:
        off = 0
        for f in comp.fields:
            fa = f.type.align(machine)
            align = max(align, fa)
            off = _round_up(off, fa)
            offsets[f.name] = off
            off += f.type.size(machine)
        size = _round_up(off, align) if comp.fields else 0
    else:
        size = 0
        for f in comp.fields:
            offsets[f.name] = 0
            align = max(align, f.type.align(machine))
            size = max(size, f.type.size(machine))
        size = _round_up(size, align) if comp.fields else 0
    layout = CompLayout(size, align, offsets)
    comp._layout_cache = (machine, layout)
    return layout


def field_offset(field: FieldInfo, machine: Machine = MACHINE) -> int:
    """Byte offset of ``field`` within its composite."""
    assert field.comp is not None
    return comp_layout(field.comp, machine).offsets[field.name]


# Convenience constructors used pervasively in tests and the frontend.

def int_t() -> TInt:
    return TInt(IKind.INT)


def uint_t() -> TInt:
    return TInt(IKind.UINT)


def char_t() -> TInt:
    return TInt(IKind.CHAR)


def uchar_t() -> TInt:
    return TInt(IKind.UCHAR)


def long_t() -> TInt:
    return TInt(IKind.LONG)


def double_t() -> TFloat:
    return TFloat(FKind.DOUBLE)


def float_t() -> TFloat:
    return TFloat(FKind.FLOAT)


def void_t() -> TVoid:
    return TVoid()


def ptr(base: CType) -> TPtr:
    return TPtr(base)


def array(base: CType, length: Optional[int]) -> TArray:
    return TArray(base, length)


def type_of_pointed(t: CType) -> CType:
    """The base type of a pointer type (after unrolling typedefs)."""
    u = unroll(t)
    if not isinstance(u, TPtr):
        raise TypeError(f"not a pointer type: {t!r}")
    return u.base

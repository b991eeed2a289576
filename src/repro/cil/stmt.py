"""Instructions, statements and run-time checks of the CIL-like IR.

CIL distinguishes *instructions* (atomic effects: assignment, call) from
*statements* (control flow).  We add a third instruction form,
:class:`Check`, which carries one of CCured's run-time checks (Figures 2
and 11 of the paper).  The curing transformation inserts ``Check``
instructions immediately before the instruction whose memory access they
protect; the interpreter evaluates them and raises a
:class:`repro.runtime.checks.MemorySafetyError` subclass on failure; and
the printer renders them as ``__CHECK_*`` calls, matching the textual
output style of the original CCured compiler.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.cil.expr import Exp, Lval, Varinfo
from repro.cil.types import CType


# ---------------------------------------------------------------------------
# Run-time checks
# ---------------------------------------------------------------------------

class CheckKind(enum.Enum):
    """The run-time checks of the CCured system (paper Figs. 2 and 11)."""

    #: SAFE dereference: the pointer must be non-null.
    NULL = "CHECK_NULL"
    #: SEQ dereference of ``size`` bytes: non-int (``b != null``) and
    #: ``b <= p <= e - size``.
    SEQ_BOUNDS = "CHECK_SEQ_BOUNDS"
    #: Converting SEQ to SAFE (e.g. taking ``&p->f``): null is permitted,
    #: otherwise full bounds.
    SEQ_TO_SAFE = "CHECK_SEQ_TO_SAFE"
    #: FSEQ dereference: non-int and ``p <= e - size`` (forward-only
    #: sequences need no lower-bound compare).
    FSEQ_BOUNDS = "CHECK_FSEQ_BOUNDS"
    #: WILD dereference of ``size`` bytes: non-int and within the tagged
    #: area's length.
    WILD_BOUNDS = "CHECK_WILD_BOUNDS"
    #: Reading a pointer out of a WILD area: the tag bits must say the
    #: word holds a valid base pointer.
    WILD_READ_TAG = "CHECK_WILD_READ_TAG"
    #: Writing through any pointer into heap/global memory: the stored
    #: value must not be a stack pointer.
    STORE_STACK_PTR = "CHECK_STORE_STACK_PTR"
    #: RTTI downcast: ``isSubtype(x.t, rttiOf(target))``.
    RTTI_CAST = "CHECK_RTTI_CAST"
    #: Call through a function pointer: non-null (signature conformance
    #: is static in CCured).
    FUNPTR = "CHECK_FUNPTR"
    #: Wrapper helper: the argument string must be NUL-terminated within
    #: its home area (``__verify_nul`` of Section 4.1).
    VERIFY_NUL = "CHECK_VERIFY_NUL"
    #: Wrapper helper: pointer argument must have at least ``n`` bytes
    #: available (used by wrappers such as ``memcpy``'s).
    VERIFY_SIZE = "CHECK_VERIFY_SIZE"
    #: Indexing into an array *within* an object (not pointer
    #: arithmetic): the index must be within the static array length.
    INDEX = "CHECK_INDEX"
    #: Converting a SAFE pointer to SEQ: manufactures bounds
    #: ``{b=p, e=p+sizeof(t)}`` — no failure mode, charged for cost.
    SAFE_TO_SEQ = "CHECK_SAFE_TO_SEQ"
    #: Temporal (lock-and-key) check, emitted before dereferences when
    #: ``CureOptions.temporal`` is on: the home must not be freed, and
    #: a keyed pointer's key must match the home's current lock.
    ALIVE = "CHECK_ALIVE"


class Instr:
    """Base class of instructions (atomic, straight-line effects).

    ``loc`` is the ``(file, line)`` source position of the statement
    the instruction was lowered from (``None`` for synthesized code);
    checks inherit the location of the instruction they protect so
    diagnostics can be reported gcc-style.  Every subclass sets it in
    its ``__init__``.
    """

    __slots__ = ("loc",)
    loc: Optional[tuple[str, int]]


class Set(Instr):
    """``lval = exp;``"""

    __slots__ = ("lval", "exp")

    def __init__(self, lval: Lval, exp: Exp) -> None:
        self.lval = lval
        self.exp = exp
        self.loc = None

    def __repr__(self) -> str:
        return f"{self.lval!r} = {self.exp!r};"


class Call(Instr):
    """``ret = fn(args);`` — ``ret`` may be ``None``."""

    __slots__ = ("ret", "fn", "args")

    def __init__(self, ret: Optional[Lval], fn: Exp,
                 args: Sequence[Exp]) -> None:
        self.ret = ret
        self.fn = fn
        self.args = list(args)
        self.loc = None

    def __repr__(self) -> str:
        r = f"{self.ret!r} = " if self.ret is not None else ""
        a = ", ".join(repr(x) for x in self.args)
        return f"{r}{self.fn!r}({a});"


class Check(Instr):
    """A CCured run-time check over the given argument expressions.

    ``size`` carries the access size in bytes for bounds checks; ``rtti``
    carries the destination type for RTTI downcast checks.  The
    engines cache the failure record's blame chain and pointer kind
    in the last two slots on first use.
    """

    __slots__ = ("kind", "args", "size", "rtti", "site", "_blame_cache",
                 "_pkind_cache")
    _blame_cache: Optional[list]
    _pkind_cache: Optional[str]

    def __init__(self, kind: CheckKind, args: Sequence[Exp], *,
                 size: Optional[int] = None,
                 rtti: Optional[CType] = None) -> None:
        self.kind = kind
        self.args = list(args)
        self.size = size
        self.rtti = rtti
        #: statement id assigned by the curer after check optimization;
        #: reported in CheckFailure records so a failure names its site
        self.site: Optional[int] = None
        self.loc = None

    def __repr__(self) -> str:
        a = ", ".join(repr(x) for x in self.args)
        extra = ""
        if self.size is not None:
            extra = f", {self.size}"
        if self.rtti is not None:
            extra += f", rttiOf({self.rtti!r})"
        return f"__{self.kind.value}({a}{extra});"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class of statements; ``loc`` as on :class:`Instr`."""

    __slots__ = ("loc",)
    loc: Optional[tuple[str, int]]

    def __init__(self) -> None:
        self.loc = None


class InstrStmt(Stmt):
    """A run of consecutive instructions."""

    __slots__ = ("instrs",)

    def __init__(self, instrs: Sequence[Instr]) -> None:
        self.instrs = list(instrs)
        self.loc = None

    def __repr__(self) -> str:
        return " ".join(repr(i) for i in self.instrs)


class Return(Stmt):
    __slots__ = ("exp",)

    def __init__(self, exp: Optional[Exp]) -> None:
        self.exp = exp
        self.loc = None

    def __repr__(self) -> str:
        return f"return {self.exp!r};" if self.exp else "return;"


class Break(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "break;"


class Continue(Stmt):
    __slots__ = ()

    def __repr__(self) -> str:
        return "continue;"


class Block(Stmt):
    """A sequence of statements."""

    __slots__ = ("stmts",)

    def __init__(self, stmts: Optional[Sequence[Stmt]] = None) -> None:
        self.stmts: list[Stmt] = list(stmts) if stmts else []
        self.loc = None

    def append(self, s: Stmt) -> None:
        self.stmts.append(s)

    def __repr__(self) -> str:
        return "{ " + " ".join(repr(s) for s in self.stmts) + " }"


class If(Stmt):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Exp, then: Block, els: Block) -> None:
        self.cond = cond
        self.then = then
        self.els = els
        self.loc = None

    def __repr__(self) -> str:
        return f"if ({self.cond!r}) {self.then!r} else {self.els!r}"


class Loop(Stmt):
    """An infinite loop; the frontend lowers while/for/do into ``Loop``
    with explicit ``If``/``Break`` tests, as CIL does.

    ``continue_runs_trailing`` counts the body's last statements that a
    ``continue`` still runs (a ``for`` post-expression, a ``do`` test).
    """

    __slots__ = ("body", "continue_runs_trailing")

    def __init__(self, body: Block) -> None:
        self.body = body
        self.continue_runs_trailing = 0
        self.loc = None

    def __repr__(self) -> str:
        return f"while (1) {self.body!r}"


# ---------------------------------------------------------------------------
# Initializers
# ---------------------------------------------------------------------------

class Init:
    """Base class of global/local initializers."""

    __slots__ = ()


class SingleInit(Init):
    __slots__ = ("exp",)

    def __init__(self, exp: Exp) -> None:
        self.exp = exp

    def __repr__(self) -> str:
        return repr(self.exp)


class CompoundInit(Init):
    """A brace initializer; ``entries`` pairs an offset description with a
    sub-initializer.  For arrays the offset is an integer index; for
    composites it is a field name."""

    __slots__ = ("ctype", "entries")

    def __init__(self, ctype: CType,
                 entries: Sequence[tuple[object, Init]]) -> None:
        self.ctype = ctype
        self.entries = list(entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.entries)
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Function definitions
# ---------------------------------------------------------------------------

class Fundec:
    """A function definition: its variable, formals, locals and body.

    Weakly referenceable: the closure engine caches compiled bodies in
    a ``WeakKeyDictionary`` keyed by the ``Fundec``.
    """

    __slots__ = ("svar", "formals", "locals", "body", "_temp_counter",
                 "__weakref__")

    def __init__(self, svar: Varinfo, formals: Sequence[Varinfo],
                 body: Optional[Block] = None) -> None:
        self.svar = svar
        self.formals = list(formals)
        self.locals: list[Varinfo] = []
        self.body = body if body is not None else Block()
        self._temp_counter = 0

    @property
    def name(self) -> str:
        return self.svar.name

    def new_local(self, name: str, vtype: CType) -> Varinfo:
        v = Varinfo(name, vtype)
        self.locals.append(v)
        return v

    def new_temp(self, vtype: CType, hint: str = "tmp") -> Varinfo:
        self._temp_counter += 1
        v = Varinfo(f"__cil_{hint}{self._temp_counter}", vtype,
                    is_temp=True)
        self.locals.append(v)
        return v

    def __repr__(self) -> str:
        return f"<fundec {self.name}>"

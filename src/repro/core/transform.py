"""The curing transformation: inserting CCured's run-time checks.

Given a program whose pointer kinds have been solved, this pass inserts
explicit :class:`repro.cil.Check` instructions in front of every
instruction that performs a checked operation, following Figures 2 and
11 of the paper:

===========================  =============================================
operation                    checks inserted
===========================  =============================================
``*x`` with ``x`` SAFE/RTTI  ``CHECK_NULL(x)``
``*x`` with ``x`` SEQ        ``CHECK_SEQ_BOUNDS(x, sizeof)``
``*x`` with ``x`` WILD       ``CHECK_WILD_BOUNDS(x, sizeof)``; reading a
                             pointer additionally ``CHECK_WILD_READ_TAG``
``a[i]`` (array member)      ``CHECK_INDEX(i, len)``
store of a pointer           ``CHECK_STORE_STACK_PTR(v)`` (heap/global
through a pointer            stores must not capture stack addresses)
``(t'*)x`` downcast (RTTI)   ``CHECK_RTTI_CAST(x, rttiOf(t'))``
SEQ value into SAFE slot     ``CHECK_SEQ_TO_SAFE(x, sizeof)``
SAFE value into SEQ slot     ``CHECK_SAFE_TO_SEQ(x, sizeof)`` (cost only)
RTTI value into SAFE slot    ``CHECK_RTTI_CAST(x, rttiOf(t'))``
call through pointer         ``CHECK_FUNPTR(f)``
===========================  =============================================

The interpreter executes these check instructions; the pretty-printer
renders them as ``__CHECK_*`` calls, which is how the instrumented
output is meant to be read and reviewed.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.cil.program import GFun, Program
from repro.core.constraints import Analysis
from repro.core.qualifiers import PointerKind

_SIZEOF_FALLBACK = 1


def _kind(t: T.CType) -> Optional[PointerKind]:
    u = T.unroll(t)
    if isinstance(u, T.TPtr):
        return u.kind
    return None


def _size_of(t: T.CType) -> int:
    try:
        return T.unroll(t).size()
    except T.IncompleteTypeError:
        return _SIZEOF_FALLBACK


class Instrumenter:
    """Inserts run-time checks into a kind-solved program."""

    def __init__(self, an: Analysis) -> None:
        self.an = an
        self.prog = an.prog
        self.counts: Counter[S.CheckKind] = Counter()
        self._pending: list[S.Check] = []

    # -- public entry -----------------------------------------------------

    def run(self) -> Counter:
        if not self.an.options.checks:
            return self.counts
        for g in self.prog.globals:
            if isinstance(g, GFun):
                g.fundec.body = self._block(g.fundec.body)
        return self.counts

    # -- emission ----------------------------------------------------------

    def _check(self, kind: S.CheckKind, args: list[E.Exp], *,
               size: Optional[int] = None,
               rtti: Optional[T.CType] = None) -> None:
        self._pending.append(S.Check(kind, args, size=size, rtti=rtti))
        self.counts[kind] += 1

    def _take_pending(self) -> list[S.Check]:
        out = self._pending
        self._pending = []
        return out

    # -- statements ---------------------------------------------------------

    def _block(self, b: S.Block) -> S.Block:
        out = S.Block()
        for s in b.stmts:
            for ns in self._stmt(s):
                out.append(ns)
        return out

    @staticmethod
    def _stamp(checks: list[S.Check],
               loc: Optional[tuple[str, int]]) -> list[S.Check]:
        """Checks report at the source position of the statement whose
        access they protect."""
        for c in checks:
            if c.loc is None:
                c.loc = loc
        return checks

    def _stmt(self, s: S.Stmt) -> list[S.Stmt]:
        if isinstance(s, S.InstrStmt):
            instrs: list[S.Instr] = []
            for i in s.instrs:
                self._instr_checks(i)
                instrs.extend(self._stamp(self._take_pending(), i.loc))
                instrs.append(i)
            return [S.InstrStmt(instrs)]
        if isinstance(s, S.Return):
            if s.exp is not None:
                self._exp_checks(s.exp)
                pending = self._stamp(self._take_pending(), s.loc)
                if pending:
                    return [S.InstrStmt(list(pending)), s]
            return [s]
        if isinstance(s, S.Block):
            return [self._block(s)]
        if isinstance(s, S.If):
            self._exp_checks(s.cond)
            pending = self._stamp(self._take_pending(), s.loc)
            out: list[S.Stmt] = []
            if pending:
                out.append(S.InstrStmt(list(pending)))
            ni = S.If(s.cond, self._block(s.then), self._block(s.els))
            ni.loc = s.loc
            out.append(ni)
            return out
        if isinstance(s, S.Loop):
            loop = S.Loop(self._block(s.body))
            loop.continue_runs_trailing = s.continue_runs_trailing
            return [loop]
        return [s]

    # -- instructions ---------------------------------------------------------

    def _instr_checks(self, i: S.Instr) -> None:
        if isinstance(i, S.Set):
            self._exp_checks(i.exp)
            self._lval_checks(i.lval, is_write=True)
            self._store_checks(i.lval, i.exp)
            self._conversion_checks(i.exp, i.lval.type())
        elif isinstance(i, S.Call):
            self._exp_checks(i.fn)
            direct = (isinstance(i.fn, (E.AddrOf, E.LvalExp))
                      and isinstance(i.fn.lval.host, E.Var)
                      and isinstance(i.fn.lval.offset, E.NoOffset)
                      and T.is_function(i.fn.lval.host.var.type))
            if not direct:
                self._check(S.CheckKind.FUNPTR, [i.fn])
            for a in i.args:
                self._exp_checks(a)
            if i.ret is not None:
                self._lval_checks(i.ret, is_write=True)

    # -- expressions -------------------------------------------------------

    def _exp_checks(self, e: E.Exp) -> None:
        if isinstance(e, E.LvalExp):
            self._lval_checks(e.lval, is_write=False)
        elif isinstance(e, (E.AddrOf, E.StartOf)):
            # Taking &x->f requires the SEQ->SAFE conversion check when
            # x is SEQ (Figure 11's field access rules).
            self._lval_addr_checks(e.lval)
        elif isinstance(e, E.UnOp):
            self._exp_checks(e.e)
        elif isinstance(e, E.BinOp):
            self._exp_checks(e.e1)
            self._exp_checks(e.e2)
        elif isinstance(e, E.CastE):
            self._exp_checks(e.e)
            self._cast_checks(e)

    def _cast_checks(self, cast: E.CastE) -> None:
        if cast.trusted:
            return
        src_k = _kind(cast.e.type())
        dst_k = _kind(cast.t)
        if src_k is None or dst_k is None:
            return
        src_base = T.unroll(cast.e.type()).base  # type: ignore[union-attr]
        dst_base = T.unroll(cast.t).base  # type: ignore[union-attr]
        if src_k is PointerKind.RTTI and dst_k is PointerKind.RTTI:
            from repro.core.physical import physical_subtype
            if not physical_subtype(src_base, dst_base):
                # A downcast among RTTI pointers: check
                # isSubtype(x.t, rttiOf(t')) (Figure 2, row 3).
                self._check(S.CheckKind.RTTI_CAST, [cast.e],
                            rtti=dst_base)
        # Kind conversions (including RTTI->SAFE, which re-checks the
        # subtype invariant per Figure 2's last row).
        self._representation_conversion(cast.e, src_k, dst_k, dst_base)

    def _conversion_checks(self, e: E.Exp, target: T.CType) -> None:
        """Checks for a value flowing into a differently-kinded slot."""
        src_k = _kind(e.type())
        dst_k = _kind(target)
        if src_k is None or dst_k is None or src_k is dst_k:
            return
        dst_base = T.unroll(target).base  # type: ignore[union-attr]
        self._representation_conversion(e, src_k, dst_k, dst_base)

    def _representation_conversion(self, e: E.Exp, src_k: PointerKind,
                                   dst_k: PointerKind,
                                   dst_base: T.CType) -> None:
        if src_k is dst_k:
            return
        size = _size_of(dst_base)
        seqish = (PointerKind.SEQ, PointerKind.FSEQ)
        if src_k in seqish and dst_k in (PointerKind.SAFE,
                                         PointerKind.RTTI):
            self._check(S.CheckKind.SEQ_TO_SAFE, [e], size=size)
        elif src_k is PointerKind.SAFE and dst_k in seqish:
            self._check(S.CheckKind.SAFE_TO_SEQ, [e], size=size)
        elif src_k in seqish and dst_k in seqish:
            pass  # SEQ<->FSEQ: drop or keep the base bound, no check
        elif src_k is PointerKind.RTTI and dst_k is PointerKind.SAFE:
            self._check(S.CheckKind.RTTI_CAST, [e], rtti=dst_base)
        elif src_k is PointerKind.RTTI and dst_k is PointerKind.SEQ:
            self._check(S.CheckKind.RTTI_CAST, [e], rtti=dst_base)
            self._check(S.CheckKind.SAFE_TO_SEQ, [e], size=size)
        # SAFE->RTTI attaches rttiOf(static type): free of checks.
        # WILD->WILD only; the solver guarantees no mixed WILD flows.

    # -- lvalues -------------------------------------------------------------

    def _lval_checks(self, lv: E.Lval, is_write: bool) -> None:
        if isinstance(lv.host, E.Mem):
            self._exp_checks(lv.host.exp)
            ptr = lv.host.exp
            k = _kind(ptr.type())
            access_t = lv.type()
            # Figure 11 checks ``*x : t*SEQ`` against sizeof(t) — the
            # whole pointee — which also covers any field offset into
            # it.  (Checking only the accessed field's size at the
            # host address would under-check interior accesses.)
            pt = T.unroll(ptr.type())
            pointee_t = pt.base if isinstance(pt, T.TPtr) else access_t
            size = _size_of(pointee_t)
            if k in (PointerKind.SAFE, PointerKind.RTTI, None):
                self._check(S.CheckKind.NULL, [ptr])
            elif k is PointerKind.SEQ:
                self._check(S.CheckKind.SEQ_BOUNDS, [ptr], size=size)
            elif k is PointerKind.FSEQ:
                self._check(S.CheckKind.FSEQ_BOUNDS, [ptr],
                            size=size)
            elif k is PointerKind.WILD:
                self._check(S.CheckKind.WILD_BOUNDS, [ptr], size=size)
                if not is_write and T.is_pointer(access_t):
                    # the tag belongs to the *accessed word*
                    self._check(S.CheckKind.WILD_READ_TAG,
                                [E.AddrOf(lv)])
            if self.an.options.temporal:
                # lock-and-key liveness, after the spatial check (so
                # null/bounds failures keep their spatial diagnosis)
                self._check(S.CheckKind.ALIVE, [ptr], size=size)
        self._offset_checks(lv)

    def _lval_addr_checks(self, lv: E.Lval) -> None:
        if isinstance(lv.host, E.Mem):
            self._exp_checks(lv.host.exp)
            ptr = lv.host.exp
            k = _kind(ptr.type())
            if k in (PointerKind.SEQ, PointerKind.FSEQ) \
                    and not isinstance(lv.offset, E.NoOffset):
                # &(x->f) converts SEQ to SAFE first (Figure 11).
                self._check(S.CheckKind.SEQ_TO_SAFE, [ptr],
                            size=_size_of(T.unroll(
                                ptr.type()).base))  # type: ignore
            elif k in (PointerKind.SAFE, PointerKind.RTTI) and \
                    not isinstance(lv.offset, E.NoOffset):
                self._check(S.CheckKind.NULL, [ptr])
        self._offset_checks(lv)

    def _offset_checks(self, lv: E.Lval) -> None:
        """Array-member indexing: check the index against the static
        array length."""
        t: T.CType
        if isinstance(lv.host, E.Var):
            t = lv.host.var.type
        else:
            pt = T.unroll(lv.host.exp.type())
            t = pt.base if isinstance(pt, T.TPtr) else T.int_t()
        off = lv.offset
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Field):
                t = off.field.type
                off = off.rest
            elif isinstance(off, E.Index):
                self._exp_checks(off.index)
                at = T.unroll(t)
                if isinstance(at, T.TArray) and at.length is not None:
                    if not (isinstance(off.index, E.Const)
                            and isinstance(off.index.value, int)
                            and 0 <= off.index.value < at.length):
                        self._check(S.CheckKind.INDEX, [off.index],
                                    size=at.length)
                    t = at.base
                else:
                    t = at.base if isinstance(at, T.TArray) else t
                off = off.rest
        return

    # -- stores ---------------------------------------------------------------

    def _store_checks(self, lv: E.Lval, value: E.Exp) -> None:
        """Writing a pointer through a pointer: the stored value must
        not be a stack pointer (escaping locals)."""
        if not T.is_pointer(value.type()):
            return
        if isinstance(lv.host, E.Mem):
            self._check(S.CheckKind.STORE_STACK_PTR, [value])
        elif lv.host.var.is_global:
            self._check(S.CheckKind.STORE_STACK_PTR, [value])


def instrument(an: Analysis) -> Counter:
    """Insert checks into ``an.prog``; returns check counts by kind."""
    return Instrumenter(an).run()

"""Lowering from the pycparser AST to the CIL-like IR.

This pass plays the role of CIL's "simplification" of C: after it, the
program consists of side-effect-free expressions, explicit casts at every
conversion, three-address-style instructions, and structured control
flow.  The properties the analysis relies on are established here:

* every implicit conversion becomes an explicit :class:`CastE` so the
  cast census and constraint generation see all of them;
* ``e1[e2]`` on pointers becomes ``*(e1 + e2)`` with the dedicated
  ``PLUS_PI`` operator, so every occurrence of pointer arithmetic is
  syntactically identifiable (paper appendix: "we will only consider
  pointer arithmetic");
* array values decay via :class:`StartOf`, preserving whole-array bounds
  for SEQ pointers;
* typedefs are structurally expanded with *fresh* ``TPtr`` instances so
  each syntactic pointer occurrence has its own qualifier variable;
* ``(T *)__trusted_cast(e)`` becomes a ``CastE`` with ``trusted=True``
  (the escape hatch of Section 3 of the paper).

Unsupported constructs (goto, setjmp, bitfields, real switch
fall-through, ``continue`` inside a switch, ``break``/``continue``
with no target) raise :class:`UnsupportedCError` with a source
location.
"""

from __future__ import annotations

from typing import Optional, Sequence

from pycparser import c_ast

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.cil.program import (GCompTag, GEnumTag, GFun, GPragma, GType,
                               GVar, GVarDecl, Program)


class UnsupportedCError(Exception):
    """A C construct outside the supported C99 subset."""

    def __init__(self, message: str, node: Optional[c_ast.Node] = None):
        coord = getattr(node, "coord", None)
        where = f" at {coord}" if coord else ""
        super().__init__(message + where)


_INT_TYPE_NAMES = {
    ("char",): T.IKind.CHAR,
    ("signed", "char"): T.IKind.SCHAR,
    ("unsigned", "char"): T.IKind.UCHAR,
    ("short",): T.IKind.SHORT,
    ("short", "int"): T.IKind.SHORT,
    ("signed", "short"): T.IKind.SHORT,
    ("signed", "short", "int"): T.IKind.SHORT,
    ("unsigned", "short"): T.IKind.USHORT,
    ("unsigned", "short", "int"): T.IKind.USHORT,
    ("int",): T.IKind.INT,
    ("signed",): T.IKind.INT,
    ("signed", "int"): T.IKind.INT,
    ("unsigned",): T.IKind.UINT,
    ("unsigned", "int"): T.IKind.UINT,
    ("long",): T.IKind.LONG,
    ("long", "int"): T.IKind.LONG,
    ("signed", "long"): T.IKind.LONG,
    ("signed", "long", "int"): T.IKind.LONG,
    ("unsigned", "long"): T.IKind.ULONG,
    ("unsigned", "long", "int"): T.IKind.ULONG,
    ("long", "long"): T.IKind.LLONG,
    ("long", "long", "int"): T.IKind.LLONG,
    ("signed", "long", "long"): T.IKind.LLONG,
    ("signed", "long", "long", "int"): T.IKind.LLONG,
    ("unsigned", "long", "long"): T.IKind.ULLONG,
    ("unsigned", "long", "long", "int"): T.IKind.ULLONG,
    ("_Bool",): T.IKind.BOOL,
}

#: allocation functions whose results are polymorphic fresh memory.
_ALLOCATORS = {"malloc", "calloc", "realloc", "strdup"}

_ASSIGN_OPS = {
    "+=": E.BinopKind.ADD, "-=": E.BinopKind.SUB, "*=": E.BinopKind.MUL,
    "/=": E.BinopKind.DIV, "%=": E.BinopKind.MOD, "<<=": E.BinopKind.SHL,
    ">>=": E.BinopKind.SHR, "&=": E.BinopKind.BAND,
    "^=": E.BinopKind.BXOR, "|=": E.BinopKind.BOR,
}

_BIN_OPS = {
    "+": E.BinopKind.ADD, "-": E.BinopKind.SUB, "*": E.BinopKind.MUL,
    "/": E.BinopKind.DIV, "%": E.BinopKind.MOD, "<<": E.BinopKind.SHL,
    ">>": E.BinopKind.SHR, "<": E.BinopKind.LT, ">": E.BinopKind.GT,
    "<=": E.BinopKind.LE, ">=": E.BinopKind.GE, "==": E.BinopKind.EQ,
    "!=": E.BinopKind.NE, "&": E.BinopKind.BAND, "^": E.BinopKind.BXOR,
    "|": E.BinopKind.BOR,
}


def fresh_type(t: T.CType) -> T.CType:
    """Deep-copy a type so every pointer occurrence is a fresh ``TPtr``.

    Composite references are shared (their fields are global
    declarations with their own, shared, qualifier variables — exactly
    CCured's treatment of "the address of every structure field").
    """
    if isinstance(t, T.TPtr):
        return T.TPtr(fresh_type(t.base))
    if isinstance(t, T.TArray):
        return T.TArray(fresh_type(t.base), t.length)
    if isinstance(t, T.TNamed):
        return fresh_type(t.actual)
    if isinstance(t, T.TFun):
        params = None
        if t.params is not None:
            params = [(n, fresh_type(pt)) for n, pt in t.params]
        return T.TFun(fresh_type(t.ret), params, t.varargs)
    return t


class _BlockBuilder:
    """Accumulates statements, merging consecutive instructions.

    ``owner`` (the :class:`Lowerer`) supplies the current source
    location, stamped onto every emitted instruction for diagnostics.
    """

    def __init__(self, owner: Optional["Lowerer"] = None) -> None:
        self.stmts: list[S.Stmt] = []
        self.owner = owner

    def emit(self, instr: S.Instr) -> None:
        if instr.loc is None and self.owner is not None:
            instr.loc = self.owner._cur_loc
        if self.stmts and isinstance(self.stmts[-1], S.InstrStmt):
            self.stmts[-1].instrs.append(instr)
        else:
            self.stmts.append(S.InstrStmt([instr]))

    def add(self, stmt: S.Stmt) -> None:
        self.stmts.append(stmt)

    def block(self) -> S.Block:
        return S.Block(self.stmts)


class Lowerer:
    """Lowers one or more pycparser translation units into a Program."""

    def __init__(self, prog: Optional[Program] = None,
                 name: str = "a") -> None:
        self.prog = prog if prog is not None else Program(name)
        self.scopes: list[dict[str, object]] = [dict()]
        self.cur_fun: Optional[S.Fundec] = None
        self.builder: Optional[_BlockBuilder] = None
        self._anon_counter = 0
        self._forbid_effects = False
        #: (file, line) of the statement currently being lowered.
        self._cur_loc: Optional[tuple[str, int]] = None
        #: the enclosing ``break``/``continue`` targets, innermost
        #: last: "loop" or "switch"
        self._targets: list[str] = []

    # ------------------------------------------------------------------
    # Scope handling
    # ------------------------------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, entry: object) -> None:
        self.scopes[-1][name] = entry

    def lookup(self, name: str) -> Optional[object]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def conv_type(self, node: c_ast.Node) -> T.CType:
        if isinstance(node, c_ast.TypeDecl):
            return self.conv_base_type(node.type)
        if isinstance(node, c_ast.PtrDecl):
            return T.TPtr(self.conv_type(node.type))
        if isinstance(node, c_ast.ArrayDecl):
            length = None
            if node.dim is not None:
                length = self.const_eval(node.dim)
            return T.TArray(self.conv_type(node.type), length)
        if isinstance(node, c_ast.FuncDecl):
            ret = self.conv_type(node.type)
            params: Optional[list[tuple[str, T.CType]]] = None
            varargs = False
            if node.args is not None:
                params = []
                for p in node.args.params:
                    if isinstance(p, c_ast.EllipsisParam):
                        varargs = True
                        continue
                    pt = self.conv_type(p.type) if not isinstance(
                        p, c_ast.ID) else T.int_t()
                    if T.is_void(pt):
                        continue  # (void) parameter list
                    # Array parameters decay to pointers.
                    if isinstance(T.unroll(pt), T.TArray):
                        pt = T.TPtr(T.unroll(pt).base)
                    pname = getattr(p, "name", None) or ""
                    params.append((pname, pt))
            return T.TFun(ret, params, varargs)
        if isinstance(node, c_ast.Typename):
            return self.conv_type(node.type)
        raise UnsupportedCError(f"type node {type(node).__name__}", node)

    def conv_base_type(self, node: c_ast.Node) -> T.CType:
        if isinstance(node, c_ast.IdentifierType):
            names = tuple(n for n in node.names if n not in
                          ("const", "volatile", "restrict"))
            if names == ("void",):
                return T.TVoid()
            if names == ("float",):
                return T.TFloat(T.FKind.FLOAT)
            if names == ("double",):
                return T.TFloat(T.FKind.DOUBLE)
            if names == ("long", "double"):
                return T.TFloat(T.FKind.LDOUBLE)
            if names in _INT_TYPE_NAMES:
                return T.TInt(_INT_TYPE_NAMES[names])
            if len(names) == 1:
                td = self.prog.typedefs.get(names[0])
                if td is not None:
                    return fresh_type(td)
            raise UnsupportedCError(f"unknown type {' '.join(names)}",
                                    node)
        if isinstance(node, (c_ast.Struct, c_ast.Union)):
            return T.TComp(self.conv_comp(node))
        if isinstance(node, c_ast.Enum):
            return T.TEnum(self.conv_enum(node))
        raise UnsupportedCError(f"base type {type(node).__name__}", node)

    def conv_comp(self, node: c_ast.Node) -> T.CompInfo:
        is_struct = isinstance(node, c_ast.Struct)
        name = node.name
        if name is None:
            self._anon_counter += 1
            name = f"__anon{self._anon_counter}"
        comp = self.prog.comps.get(name)
        if comp is None:
            comp = T.CompInfo(is_struct, name)
            self.prog.comps[name] = comp
            self.prog.add(GCompTag(comp))
        if node.decls is not None and not comp.defined:
            fields = []
            for d in node.decls:
                if d.name is None and isinstance(
                        d.type, c_ast.TypeDecl) and isinstance(
                        d.type.type, (c_ast.Struct, c_ast.Union)):
                    raise UnsupportedCError(
                        "anonymous struct/union members", d)
                if getattr(d, "bitsize", None) is not None:
                    raise UnsupportedCError("bitfields", d)
                fields.append(T.FieldInfo(d.name,
                                          self.conv_type(d.type)))
            comp.set_fields(fields)
        return comp

    def conv_enum(self, node: c_ast.Enum) -> T.EnumInfo:
        name = node.name
        if name is None:
            self._anon_counter += 1
            name = f"__anonenum{self._anon_counter}"
        info = self.prog.enums.get(name)
        if info is None:
            info = T.EnumInfo(name)
            self.prog.enums[name] = info
            self.prog.add(GEnumTag(info))
        if node.values is not None and not info.items:
            next_val = 0
            for enumerator in node.values.enumerators:
                if enumerator.value is not None:
                    next_val = self.const_eval(enumerator.value)
                info.items.append((enumerator.name, next_val))
                self.scopes[0][enumerator.name] = ("enumconst", next_val)
                next_val += 1
        return info

    # ------------------------------------------------------------------
    # Constant evaluation (array dims, enum values, #if already handled)
    # ------------------------------------------------------------------

    def const_eval(self, node: c_ast.Node) -> int:
        if isinstance(node, c_ast.Constant):
            if node.type in ("int", "long int", "unsigned int",
                             "long long int", "char"):
                return _parse_int_const(node.value)
            raise UnsupportedCError(
                f"non-integer constant {node.value}", node)
        if isinstance(node, c_ast.UnaryOp):
            v = self.const_eval(node.expr)
            return {"-": -v, "+": v, "~": ~v, "!": int(not v)}[node.op]
        if isinstance(node, c_ast.BinaryOp):
            a = self.const_eval(node.left)
            b = self.const_eval(node.right)
            return {
                "+": a + b, "-": a - b, "*": a * b,
                "/": int(a / b) if b else 0, "%": a % b if b else 0,
                "<<": a << b, ">>": a >> b, "&": a & b, "|": a | b,
                "^": a ^ b, "==": int(a == b), "!=": int(a != b),
                "<": int(a < b), ">": int(a > b), "<=": int(a <= b),
                ">=": int(a >= b), "&&": int(bool(a and b)),
                "||": int(bool(a or b)),
            }[node.op]
        if isinstance(node, c_ast.ID):
            entry = self.lookup(node.name)
            if isinstance(entry, tuple) and entry[0] == "enumconst":
                return entry[1]
            raise UnsupportedCError(
                f"non-constant identifier {node.name}", node)
        if isinstance(node, c_ast.Cast):
            return self.const_eval(node.expr)
        if isinstance(node, c_ast.UnaryOp):
            raise UnsupportedCError("constant op", node)
        if isinstance(node, c_ast.TernaryOp):
            return (self.const_eval(node.iftrue)
                    if self.const_eval(node.cond)
                    else self.const_eval(node.iffalse))
        if (isinstance(node, c_ast.UnaryOp)
                and node.op == "sizeof"):  # pragma: no cover
            return 0
        raise UnsupportedCError(
            f"non-constant expression {type(node).__name__}", node)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def lower_file(self, ast: c_ast.FileAST) -> Program:
        for ext in ast.ext:
            if isinstance(ext, c_ast.Decl):
                self.global_decl(ext)
            elif isinstance(ext, c_ast.Typedef):
                t = self.conv_type(ext.type)
                self.prog.typedefs[ext.name] = t
                self.prog.add(GType(ext.name, t))
            elif isinstance(ext, c_ast.FuncDef):
                self.func_def(ext)
            elif isinstance(ext, c_ast.Pragma):
                self._pragma(ext)
            elif isinstance(ext, c_ast.Ellipsis):  # pragma: no cover
                pass
            else:
                raise UnsupportedCError(
                    f"top-level {type(ext).__name__}", ext)
        return self.prog

    def _pragma(self, node: c_ast.Pragma) -> None:
        text = node.string or ""
        name, args = text, []
        if "(" in text:
            name = text[:text.index("(")].strip()
            inner = text[text.index("(") + 1:text.rindex(")")]
            args = [a.strip().strip('"') for a in inner.split(",")
                    if a.strip()]
        self.prog.add(GPragma(name.strip(), args))

    def global_decl(self, node: c_ast.Decl) -> None:
        # Bare struct/union/enum declaration.
        if node.name is None:
            if isinstance(node.type, (c_ast.Struct, c_ast.Union)):
                self.conv_comp(node.type)
            elif isinstance(node.type, c_ast.Enum):
                self.conv_enum(node.type)
            return
        t = self.conv_type(node.type)
        storage = "default"
        if "extern" in (node.storage or []):
            storage = "extern"
        elif "static" in (node.storage or []):
            storage = "static"
        existing = self.lookup(node.name)
        if isinstance(existing, E.Varinfo):
            var = existing
            if T.is_function(t) or isinstance(T.unroll(var.type),
                                              T.TFun):
                pass  # re-declaration of a function: keep first type
            else:
                var.type = t
        else:
            var = E.Varinfo(node.name, t, is_global=True,
                            storage=storage)
            self.scopes[0][node.name] = var
        if T.is_function(t) or storage == "extern":
            if (node.name not in self.prog.functions
                    and node.name not in self.prog.global_vars):
                self.prog.add(GVarDecl(var))
            return
        init = None
        if node.init is not None:
            init = self.conv_init(node.init, t)
        # Complete array lengths from string/brace initializers.
        ut = T.unroll(var.type)
        if isinstance(ut, T.TArray) and ut.length is None and init:
            ut.length = _init_length(init)
        self.prog.add(GVar(var, init))

    # ------------------------------------------------------------------
    # Initializers
    # ------------------------------------------------------------------

    def conv_init(self, node: c_ast.Node, t: T.CType) -> S.Init:
        if isinstance(node, c_ast.InitList):
            ut = T.unroll(t)
            entries: list[tuple[object, S.Init]] = []
            if isinstance(ut, T.TArray):
                idx = 0
                for item in node.exprs:
                    if isinstance(item, c_ast.NamedInitializer):
                        raise UnsupportedCError(
                            "designated array initializers", item)
                    entries.append(
                        (idx, self.conv_init(item, ut.base)))
                    idx += 1
            elif isinstance(ut, T.TComp):
                fields = ut.comp.fields
                fi = 0
                for item in node.exprs:
                    if isinstance(item, c_ast.NamedInitializer):
                        fname = item.name[0].name
                        field = ut.comp.field(fname)
                        fi = fields.index(field) + 1
                        entries.append(
                            (fname, self.conv_init(item.expr,
                                                   field.type)))
                    else:
                        if fi >= len(fields):
                            raise UnsupportedCError(
                                "too many initializers", item)
                        field = fields[fi]
                        fi += 1
                        entries.append(
                            (field.name,
                             self.conv_init(item, field.type)))
            else:
                if len(node.exprs) != 1:
                    raise UnsupportedCError("scalar brace init", node)
                return self.conv_init(node.exprs[0], t)
            return S.CompoundInit(t, entries)
        # Single expression initializer — must be effect-free at top
        # level; the caller enforces context.
        prev = self._forbid_effects
        if self.cur_fun is None:
            self._forbid_effects = True
        try:
            e = self._rvalue_nodecay(node)
        finally:
            self._forbid_effects = prev
        # char arr[] = "text": the string initializes the array
        # in place, no conversion involved.
        if isinstance(T.unroll(t), T.TArray) and isinstance(
                e, E.StrConst):
            return S.SingleInit(e)
        e = self._decay(e)
        return S.SingleInit(self.coerce(e, t))

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def func_def(self, node: c_ast.FuncDef) -> None:
        decl = node.decl
        ftype = self.conv_type(decl.type)
        uft = T.unroll(ftype)
        assert isinstance(uft, T.TFun)
        existing = self.lookup(decl.name)
        if isinstance(existing, E.Varinfo):
            svar = existing
            svar.type = ftype
        else:
            svar = E.Varinfo(decl.name, ftype, is_global=True)
            self.scopes[0][decl.name] = svar
        formals = []
        for pname, ptype in (uft.params or []):
            formals.append(E.Varinfo(pname or f"__arg{len(formals)}",
                                     ptype, is_formal=True))
        fd = S.Fundec(svar, formals)
        self.cur_fun = fd
        self.push_scope()
        for v in formals:
            self.bind(v.name, v)
        builder = _BlockBuilder(self)
        prev_builder = self.builder
        self.builder = builder
        self.compound(node.body, new_scope=True)
        fd.body = builder.block()
        self.builder = prev_builder
        self.pop_scope()
        self.cur_fun = None
        self.prog.add(GFun(fd))

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def compound(self, node: c_ast.Compound,
                 new_scope: bool = False) -> None:
        if new_scope:
            self.push_scope()
        for item in (node.block_items or []):
            self.statement(item)
        if new_scope:
            self.pop_scope()

    def _loc_of(self, node: c_ast.Node) -> Optional[tuple[str, int]]:
        coord = getattr(node, "coord", None)
        if coord is None or coord.file is None:
            return None
        return (coord.file, coord.line)

    def statement(self, node: c_ast.Node) -> None:
        assert self.builder is not None
        b = self.builder
        loc = self._loc_of(node)
        if loc is not None:
            self._cur_loc = loc
        if isinstance(node, c_ast.Decl):
            self.local_decl(node)
        elif isinstance(node, c_ast.Typedef):
            t = self.conv_type(node.type)
            self.prog.typedefs[node.name] = t
        elif isinstance(node, c_ast.Compound):
            inner = self.in_new_block(lambda: self.compound(
                node, new_scope=True))
            b.add(inner)
        elif isinstance(node, c_ast.If):
            cond = self.rvalue(node.cond)
            then = self.in_new_block(
                lambda: self.statement(node.iftrue)
                if node.iftrue else None)
            els = self.in_new_block(
                lambda: self.statement(node.iffalse)
                if node.iffalse else None)
            s = S.If(cond, then, els)
            s.loc = loc
            b.add(s)
        elif isinstance(node, c_ast.While):
            self._loop(cond_node=node.cond, body_node=node.stmt,
                       post=None, test_first=True)
        elif isinstance(node, c_ast.DoWhile):
            self._loop(cond_node=node.cond, body_node=node.stmt,
                       post=None, test_first=False)
        elif isinstance(node, c_ast.For):
            self.push_scope()
            if node.init is not None:
                if isinstance(node.init, c_ast.DeclList):
                    for d in node.init.decls:
                        self.local_decl(d)
                else:
                    self.expr_effect(node.init)
            self._loop(cond_node=node.cond, body_node=node.stmt,
                       post=node.next, test_first=True)
            self.pop_scope()
        elif isinstance(node, c_ast.Return):
            e = None
            if node.expr is not None:
                e = self.rvalue(node.expr)
                rt = T.unroll(self.cur_fun.svar.type).ret \
                    if self.cur_fun else T.int_t()
                if not T.is_void(rt):
                    e = self.coerce(e, rt)
            ret = S.Return(e)
            ret.loc = loc
            b.add(ret)
        elif isinstance(node, c_ast.Break):
            if not self._targets:
                raise UnsupportedCError("break outside a loop or switch",
                                        node)
            b.add(S.Break())
        elif isinstance(node, c_ast.Continue):
            if "loop" not in self._targets:
                raise UnsupportedCError("continue outside a loop", node)
            if self._targets[-1] == "switch":
                # the switch's run-once Loop would take the continue
                raise UnsupportedCError("continue inside a switch", node)
            b.add(S.Continue())
        elif isinstance(node, c_ast.Switch):
            self._switch(node)
        elif isinstance(node, c_ast.EmptyStatement):
            pass
        elif isinstance(node, c_ast.Pragma):
            self._pragma(node)
        elif isinstance(node, (c_ast.Goto, c_ast.Label)):
            raise UnsupportedCError("goto/labels", node)
        else:
            self.expr_effect(node)

    def in_new_block(self, fn) -> S.Block:
        assert self.builder is not None
        saved = self.builder
        self.builder = _BlockBuilder(self)
        try:
            fn()
            return self.builder.block()
        finally:
            self.builder = saved

    def _within(self, target: str, fn) -> None:
        """Lower ``fn``'s statements inside a ``break`` target."""
        self._targets.append(target)
        try:
            fn()
        finally:
            self._targets.pop()

    def _loop(self, cond_node, body_node, post, test_first: bool) -> None:
        """Lower while/do/for into CIL's ``Loop`` + explicit break test."""
        assert self.builder is not None

        def build_body() -> None:
            assert self.builder is not None
            if test_first and cond_node is not None:
                cloc = self._loc_of(cond_node)
                if cloc is not None:
                    self._cur_loc = cloc
                cond = self.rvalue(cond_node)
                test = S.If(E.UnOp(E.UnopKind.LNOT, cond, T.int_t()),
                            S.Block([S.Break()]), S.Block())
                test.loc = cloc
                self.builder.add(test)
            if body_node is not None:
                # ``continue`` must run the post-expression; we wrap the
                # body so that continue in for-loops is handled by
                # placing post inside a trailing block. Continue jumps to
                # the end of Loop body in our interpreter, which runs the
                # post expression placed after the user body.
                self._within("loop", lambda: self.statement(body_node))
            if post is not None:
                self.expr_effect(post)
            if not test_first and cond_node is not None:
                cloc = self._loc_of(cond_node)
                if cloc is not None:
                    self._cur_loc = cloc
                cond = self.rvalue(cond_node)
                test = S.If(E.UnOp(E.UnopKind.LNOT, cond, T.int_t()),
                            S.Block([S.Break()]), S.Block())
                test.loc = cloc
                self.builder.add(test)

        body = self.in_new_block(build_body)
        # Mark the trailing statements that `continue` must still run
        # (the for-loop post expression and do-while test).
        loop = S.Loop(body)
        n_trailing = 0
        if post is not None:
            n_trailing += 1
        if not test_first and cond_node is not None:
            n_trailing += 1
        loop.continue_runs_trailing = n_trailing  # type: ignore[attr-defined]
        self.builder.add(loop)

    def _switch(self, node: c_ast.Switch) -> None:
        """Lower switch into an if-else chain on a temporary.

        Case bodies that fall through to the next non-empty case are not
        supported (the workloads use break-terminated cases); stacked
        labels (``case 1: case 2: body`` and ``default:`` stacked with
        cases) are.  The default arm, if present, must come last.
        """
        assert self.builder is not None and self.cur_fun is not None
        scrut = self.rvalue(node.cond)
        tmp = self.cur_fun.new_temp(T.int_t(), "switch")
        self.builder.emit(S.Set(E.var_lval(tmp),
                                self.coerce(scrut, T.int_t())))
        if not isinstance(node.stmt, c_ast.Compound):
            raise UnsupportedCError("switch body must be a block", node)

        # Flatten into a stream of labels and plain statements.
        tokens: list[tuple[str, object]] = []

        def flatten(item: c_ast.Node) -> None:
            if isinstance(item, c_ast.Case):
                tokens.append(("label", self.const_eval(item.expr)))
                for s in (item.stmts or []):
                    flatten(s)
            elif isinstance(item, c_ast.Default):
                tokens.append(("label", None))
                for s in (item.stmts or []):
                    flatten(s)
            else:
                tokens.append(("stmt", item))

        for item in (node.stmt.block_items or []):
            flatten(item)

        # Group into arms: runs of labels followed by runs of statements.
        arms: list[tuple[list[Optional[int]], list[c_ast.Node]]] = []
        labels: list[Optional[int]] = []
        stmts: list[c_ast.Node] = []
        for kind, payload in tokens:
            if kind == "label":
                if stmts:
                    arms.append((labels, stmts))
                    labels, stmts = [], []
                labels.append(payload)  # type: ignore[arg-type]
            else:
                if not labels and not arms and not stmts:
                    raise UnsupportedCError(
                        "statement before first case label", node)
                stmts.append(payload)  # type: ignore[arg-type]
        if labels or stmts:
            arms.append((labels, stmts))

        def exits(sts: list[c_ast.Node]) -> bool:
            return bool(sts) and isinstance(
                sts[-1], (c_ast.Break, c_ast.Return))

        for i, (_, sts) in enumerate(arms):
            if i != len(arms) - 1 and not exits(sts):
                raise UnsupportedCError(
                    "switch fall-through between non-empty cases", node)

        def arm_block(sts: list[c_ast.Node]) -> S.Block:
            if sts and isinstance(sts[-1], c_ast.Break):
                sts = sts[:-1]

            def build() -> None:
                for s in sts:
                    self.statement(s)

            return self.in_new_block(lambda: self._within("switch", build))

        default_body = S.Block()
        if arms and None in arms[-1][0]:
            default_body = arm_block(arms[-1][1])
            arms = arms[:-1]
        if any(None in labs for labs, _ in arms):
            raise UnsupportedCError(
                "default arm must come last in switch", node)

        chain = default_body
        for labs, sts in reversed(arms):
            cond: Optional[E.Exp] = None
            for lab in labs:
                test = E.BinOp(E.BinopKind.EQ,
                               E.LvalExp(E.var_lval(tmp)),
                               E.Const(lab), T.int_t())
                cond = test if cond is None else E.BinOp(
                    E.BinopKind.BOR, cond, test, T.int_t())
            assert cond is not None
            chain = S.Block([S.If(cond, arm_block(sts), chain)])
        # A switch is a break target: wrap in a run-once Loop so that
        # ``break`` inside arms targets the switch, not an outer loop.
        wrapper = S.Loop(S.Block(list(chain.stmts) + [S.Break()]))
        self.builder.add(wrapper)

    # ------------------------------------------------------------------
    # Local declarations
    # ------------------------------------------------------------------

    def local_decl(self, node: c_ast.Decl) -> None:
        assert self.cur_fun is not None and self.builder is not None
        loc = self._loc_of(node)
        if loc is not None:
            self._cur_loc = loc
        if node.name is None:
            if isinstance(node.type, (c_ast.Struct, c_ast.Union)):
                self.conv_comp(node.type)
            elif isinstance(node.type, c_ast.Enum):
                self.conv_enum(node.type)
            return
        t = self.conv_type(node.type)
        if "static" in (node.storage or []):
            mangled = f"__static_{self.cur_fun.name}_{node.name}"
            var = E.Varinfo(mangled, t, is_global=True, storage="static")
            init = self.conv_init(node.init, t) if node.init else None
            self.prog.add(GVar(var, init))
            self.bind(node.name, var)
            return
        if "extern" in (node.storage or []):
            var = E.Varinfo(node.name, t, is_global=True,
                            storage="extern")
            self.prog.add(GVarDecl(var))
            self.bind(node.name, var)
            return
        ut = T.unroll(t)
        if isinstance(ut, T.TArray) and ut.length is None and node.init:
            init0 = self.conv_init(node.init, t)
            ut.length = _init_length(init0)
            var = self.cur_fun.new_local(node.name, t)
            var.decl_loc = loc
            self.bind(node.name, var)
            self._assign_init(E.var_lval(var), init0, t)
            return
        var = self.cur_fun.new_local(node.name, t)
        var.decl_loc = loc
        self.bind(node.name, var)
        if node.init is not None:
            init = self.conv_init(node.init, t)
            self._assign_init(E.var_lval(var), init, t)

    def _assign_init(self, lv: E.Lval, init: S.Init,
                     t: T.CType) -> None:
        assert self.builder is not None
        if isinstance(init, S.SingleInit):
            ut = T.unroll(t)
            if isinstance(ut, T.TArray):
                # char arr[] = "str"
                e = init.exp
                if isinstance(e, E.StrConst):
                    for i, ch in enumerate(e.value + "\0"):
                        self.builder.emit(S.Set(
                            E.Lval(lv.host, _append_offset(
                                lv.offset,
                                E.Index(E.Const(i)))),
                            E.Const(ord(ch), T.char_t())))
                    return
                raise UnsupportedCError("array initializer form")
            self.builder.emit(S.Set(lv, init.exp))
            return
        assert isinstance(init, S.CompoundInit)
        ut = T.unroll(t)
        if isinstance(ut, T.TArray):
            for idx, sub in init.entries:
                self._assign_init(
                    E.Lval(lv.host, _append_offset(
                        lv.offset, E.Index(E.Const(idx)))),
                    sub, ut.base)
        elif isinstance(ut, T.TComp):
            for fname, sub in init.entries:
                field = ut.comp.field(str(fname))
                self._assign_init(
                    E.Lval(lv.host, _append_offset(
                        lv.offset, E.Field(field))),
                    sub, field.type)
        else:
            raise UnsupportedCError("compound init for scalar")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def expr_effect(self, node: c_ast.Node) -> None:
        """Convert an expression evaluated for its side effects only."""
        if isinstance(node, c_ast.Assignment):
            self.assignment(node)
        elif isinstance(node, c_ast.UnaryOp) and node.op in (
                "p++", "p--", "++", "--"):
            self._incdec(node)
        elif isinstance(node, c_ast.FuncCall):
            self.call(node, want_result=False)
        elif isinstance(node, c_ast.ExprList):
            for sub in node.exprs:
                self.expr_effect(sub)
        else:
            # Evaluate and discard (may still have effects inside).
            self.rvalue(node)

    def emit(self, instr: S.Instr) -> None:
        if self._forbid_effects:
            raise UnsupportedCError(
                "side effect in constant initializer context")
        assert self.builder is not None
        self.builder.emit(instr)

    def rvalue(self, node: c_ast.Node) -> E.Exp:
        e = self._rvalue_nodecay(node)
        return self._decay(e)

    def _decay(self, e: E.Exp) -> E.Exp:
        t = T.unroll(e.type())
        if isinstance(t, T.TArray) and isinstance(e, E.LvalExp):
            return E.StartOf(e.lval)
        if isinstance(t, T.TFun) and isinstance(e, E.LvalExp):
            return E.AddrOf(e.lval)
        return e

    def _rvalue_nodecay(self, node: c_ast.Node) -> E.Exp:
        if isinstance(node, c_ast.Constant):
            return self._constant(node)
        if isinstance(node, c_ast.ID):
            entry = self.lookup(node.name)
            if isinstance(entry, tuple) and entry[0] == "enumconst":
                return E.Const(entry[1])
            if entry is None:
                entry = self._implicit_extern(node)
            assert isinstance(entry, E.Varinfo)
            return E.LvalExp(E.var_lval(entry))
        if isinstance(node, (c_ast.ArrayRef, c_ast.StructRef)):
            return E.LvalExp(self.lvalue(node))
        if isinstance(node, c_ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, c_ast.BinaryOp):
            return self._binary(node)
        if isinstance(node, c_ast.Assignment):
            lv = self.assignment(node)
            return E.LvalExp(lv)
        if isinstance(node, c_ast.TernaryOp):
            return self._ternary(node)
        if isinstance(node, c_ast.FuncCall):
            result = self.call(node, want_result=True)
            assert result is not None
            return result
        if isinstance(node, c_ast.Cast):
            return self._cast(node)
        if isinstance(node, c_ast.ExprList):
            for sub in node.exprs[:-1]:
                self.expr_effect(sub)
            return self.rvalue(node.exprs[-1])
        raise UnsupportedCError(
            f"expression {type(node).__name__}", node)

    def _implicit_extern(self, node: c_ast.ID) -> E.Varinfo:
        """An undeclared identifier used as a function: implicit
        ``extern int f()`` per K&R rules."""
        var = E.Varinfo(node.name,
                        T.TFun(T.int_t(), None, False),
                        is_global=True, storage="extern")
        self.scopes[0][node.name] = var
        self.prog.add(GVarDecl(var))
        return var

    def _constant(self, node: c_ast.Constant) -> E.Exp:
        kind = node.type
        v = node.value
        if kind == "string":
            text = _parse_c_string(v)
            return E.StrConst(text, T.TPtr(T.char_t()))
        if kind == "char":
            body = v[v.index("'") + 1:v.rindex("'")]
            text = _unescape(body)
            return E.Const(ord(text) if text else 0, T.char_t())
        if "float" in kind or "double" in kind:
            return E.Const(float(v.rstrip("fFlL")),
                           T.TFloat(T.FKind.DOUBLE if "f" not in
                                    v[-1].lower() else T.FKind.FLOAT))
        value = _parse_int_const(v)
        ik = T.IKind.INT
        suffix = v.lower()
        if "u" in suffix and "ll" in suffix:
            ik = T.IKind.ULLONG
        elif "ll" in suffix:
            ik = T.IKind.LLONG
        elif "u" in suffix and "l" in suffix:
            ik = T.IKind.ULONG
        elif suffix.endswith("l"):
            ik = T.IKind.LONG
        elif "u" in suffix:
            ik = T.IKind.UINT
        elif value > 0x7FFFFFFF:
            ik = T.IKind.UINT
        return E.Const(value, T.TInt(ik))

    def lvalue(self, node: c_ast.Node) -> E.Lval:
        if isinstance(node, c_ast.ID):
            entry = self.lookup(node.name)
            if not isinstance(entry, E.Varinfo):
                raise UnsupportedCError(
                    f"unknown variable {node.name}", node)
            return E.var_lval(entry)
        if isinstance(node, c_ast.UnaryOp) and node.op == "*":
            ptr = self.rvalue(node.expr)
            if not T.is_pointer(ptr.type()):
                raise UnsupportedCError("dereference of non-pointer",
                                        node)
            return E.mem_lval(ptr)
        if isinstance(node, c_ast.StructRef):
            if node.type == "->":
                base = self.rvalue(node.name)
                pt = T.unroll(base.type())
                if not isinstance(pt, T.TPtr):
                    raise UnsupportedCError("-> on non-pointer", node)
                comp_t = T.unroll(pt.base)
                if not isinstance(comp_t, T.TComp):
                    raise UnsupportedCError("-> on non-struct", node)
                field = comp_t.comp.field(node.field.name)
                return E.mem_lval(base, E.Field(field))
            lv = self.lvalue(node.name)
            comp_t = T.unroll(lv.type())
            if not isinstance(comp_t, T.TComp):
                raise UnsupportedCError(". on non-struct", node)
            field = comp_t.comp.field(node.field.name)
            return E.Lval(lv.host,
                          _append_offset(lv.offset, E.Field(field)))
        if isinstance(node, c_ast.ArrayRef):
            base = self._rvalue_nodecay(node.name)
            idx = self.rvalue(node.subscript)
            bt = T.unroll(base.type())
            if isinstance(bt, T.TArray) and isinstance(base, E.LvalExp):
                lv = base.lval
                return E.Lval(lv.host, _append_offset(
                    lv.offset, E.Index(idx)))
            base = self._decay(base)
            bt = T.unroll(base.type())
            if isinstance(bt, T.TPtr):
                return E.mem_lval(E.BinOp(E.BinopKind.PLUS_PI, base,
                                          idx, base.type()))
            raise UnsupportedCError("indexing non-pointer", node)
        if isinstance(node, c_ast.Cast):
            raise UnsupportedCError("cast as lvalue", node)
        raise UnsupportedCError(
            f"lvalue {type(node).__name__}", node)

    def _unary(self, node: c_ast.UnaryOp) -> E.Exp:
        op = node.op
        if op == "&":
            inner = node.expr
            lv = self.lvalue(inner)
            lt = T.unroll(lv.type())
            if isinstance(lt, T.TArray):
                return E.StartOf(lv)
            if isinstance(lt, T.TFun):
                return E.AddrOf(lv)
            if isinstance(lv.host, E.Var):
                lv.host.var.address_taken = True
            return E.AddrOf(lv)
        if op == "*":
            return E.LvalExp(self.lvalue(node))
        if op == "sizeof":
            if isinstance(node.expr, c_ast.Typename):
                return E.SizeOfT(self.conv_type(node.expr))
            e = self._rvalue_nodecay(node.expr)
            return E.SizeOfT(e.type())
        if op in ("++", "--", "p++", "p--"):
            return self._incdec(node)
        e = self.rvalue(node.expr)
        t = e.type()
        if op == "-":
            # Fold negated constants so the analysis sees their sign
            # (e.g. `p + (-1)` is backward pointer motion).
            if isinstance(e, E.Const) and isinstance(e.value,
                                                     (int, float)):
                return E.Const(-e.value, _promote(t))
            return E.UnOp(E.UnopKind.NEG, e, _promote(t))
        if op == "+":
            return e
        if op == "~":
            if isinstance(e, E.Const) and isinstance(e.value, int):
                return E.Const(~e.value, _promote(t))
            return E.UnOp(E.UnopKind.BNOT, e, _promote(t))
        if op == "!":
            return E.UnOp(E.UnopKind.LNOT, e, T.int_t())
        raise UnsupportedCError(f"unary {op}", node)

    def _incdec(self, node: c_ast.UnaryOp) -> E.Exp:
        """++x / --x / x++ / x-- lowered to a Set (plus a saved temp for
        the postfix forms)."""
        assert self.cur_fun is not None
        lv = self.lvalue(node.expr)
        t = lv.type()
        old = E.LvalExp(lv)
        if T.is_pointer(t):
            opk = (E.BinopKind.PLUS_PI if "+" in node.op
                   else E.BinopKind.MINUS_PI)
            new = E.BinOp(opk, old, E.Const(1), t)
        else:
            opk = E.BinopKind.ADD if "+" in node.op else E.BinopKind.SUB
            new = self.coerce(
                E.BinOp(opk, old, E.Const(1), _promote(t)), t)
        if node.op.startswith("p"):
            tmp = self.cur_fun.new_temp(t, "post")
            self.emit(S.Set(E.var_lval(tmp), old))
            self.emit(S.Set(lv, new))
            return E.LvalExp(E.var_lval(tmp))
        self.emit(S.Set(lv, new))
        return E.LvalExp(lv)

    def _binary(self, node: c_ast.BinaryOp) -> E.Exp:
        op = node.op
        if op in ("&&", "||"):
            return self._shortcircuit(node)
        e1 = self.rvalue(node.left)
        e2 = self.rvalue(node.right)
        t1, t2 = e1.type(), e2.type()
        p1, p2 = T.is_pointer(t1), T.is_pointer(t2)
        if op == "+":
            if p1 and T.is_integral(t2):
                return E.BinOp(E.BinopKind.PLUS_PI, e1, e2, t1)
            if p2 and T.is_integral(t1):
                return E.BinOp(E.BinopKind.PLUS_PI, e2, e1, t2)
        if op == "-":
            if p1 and T.is_integral(t2):
                return E.BinOp(E.BinopKind.MINUS_PI, e1, e2, t1)
            if p1 and p2:
                return E.BinOp(E.BinopKind.MINUS_PP, e1, e2, T.int_t())
        kind = _BIN_OPS.get(op)
        if kind is None:
            raise UnsupportedCError(f"binary {op}", node)
        if kind in E.COMPARISONS:
            if p1 and E.is_zero(e2):
                e2 = E.CastE(_same_ptr(t1), e2)
            elif p2 and E.is_zero(e1):
                e1 = E.CastE(_same_ptr(t2), e1)
            return E.BinOp(kind, e1, e2, T.int_t())
        rt = _usual_arith(t1, t2)
        return E.BinOp(kind, self.coerce(e1, rt), self.coerce(e2, rt),
                       rt)

    def _shortcircuit(self, node: c_ast.BinaryOp) -> E.Exp:
        assert self.cur_fun is not None and self.builder is not None
        tmp = self.cur_fun.new_temp(T.int_t(), "sc")
        a = self.rvalue(node.left)
        a_bool = _truth(a)

        def rhs() -> None:
            b = self.rvalue(node.right)
            self.emit(S.Set(E.var_lval(tmp), _truth(b)))

        if node.op == "&&":
            then = self.in_new_block(rhs)
            els = S.Block([S.InstrStmt(
                [S.Set(E.var_lval(tmp), E.Const(0))])])
            self.builder.add(S.If(a_bool, then, els))
        else:
            then = S.Block([S.InstrStmt(
                [S.Set(E.var_lval(tmp), E.Const(1))])])
            els = self.in_new_block(rhs)
            self.builder.add(S.If(a_bool, then, els))
        return E.LvalExp(E.var_lval(tmp))

    def _ternary(self, node: c_ast.TernaryOp) -> E.Exp:
        assert self.cur_fun is not None and self.builder is not None
        cond = self.rvalue(node.cond)
        # Determine the result type from both arms; convert both arms in
        # sub-blocks so their effects stay on the taken path.
        saved = self.builder
        self.builder = _BlockBuilder(self)
        a = self.rvalue(node.iftrue)
        then_bb = self.builder
        self.builder = _BlockBuilder(self)
        b = self.rvalue(node.iffalse)
        else_bb = self.builder
        self.builder = saved
        ta, tb = a.type(), b.type()
        if T.is_pointer(ta):
            rt: T.CType = ta if not E.is_zero(a) else (
                tb if T.is_pointer(tb) else ta)
        elif T.is_pointer(tb):
            rt = tb
        elif T.is_arithmetic(ta) and T.is_arithmetic(tb):
            rt = _usual_arith(ta, tb)
        else:
            rt = ta
        tmp = self.cur_fun.new_temp(rt, "cond")
        then_bb.emit(S.Set(E.var_lval(tmp), self.coerce(a, rt)))
        else_bb.emit(S.Set(E.var_lval(tmp), self.coerce(b, rt)))
        self.builder.add(S.If(cond, then_bb.block(), else_bb.block()))
        return E.LvalExp(E.var_lval(tmp))

    def _cast(self, node: c_ast.Cast) -> E.Exp:
        target = self.conv_type(node.to_type)
        # (T *)__trusted_cast(e): the trusted escape hatch.
        inner = node.expr
        if (isinstance(inner, c_ast.FuncCall)
                and isinstance(inner.name, c_ast.ID)
                and inner.name.name == "__trusted_cast"):
            args = inner.args.exprs if inner.args else []
            if len(args) != 1:
                raise UnsupportedCError("__trusted_cast takes one "
                                        "argument", node)
            e = self.rvalue(args[0])
            cast = E.CastE(target, e)
            cast.trusted = True
            self.prog.trusted_cast_count += 1
            return cast
        e = self.rvalue(inner)
        if T.is_void(target):
            return e
        return E.CastE(target, e)

    def assignment(self, node: c_ast.Assignment) -> E.Lval:
        lv = self.lvalue(node.lvalue)
        t = lv.type()
        if node.op == "=":
            rhs = self.coerce(self.rvalue(node.rvalue), t)
            self.emit(S.Set(lv, rhs))
            return lv
        opk = _ASSIGN_OPS.get(node.op)
        if opk is None:
            raise UnsupportedCError(f"assignment {node.op}", node)
        rhs = self.rvalue(node.rvalue)
        old = E.LvalExp(lv)
        if T.is_pointer(t) and opk in (E.BinopKind.ADD, E.BinopKind.SUB):
            pk = (E.BinopKind.PLUS_PI if opk is E.BinopKind.ADD
                  else E.BinopKind.MINUS_PI)
            new: E.Exp = E.BinOp(pk, old, rhs, t)
        else:
            rt = _usual_arith(t, rhs.type())
            new = self.coerce(
                E.BinOp(opk, self.coerce(old, rt),
                        self.coerce(rhs, rt), rt), t)
        self.emit(S.Set(lv, new))
        return lv

    def call(self, node: c_ast.FuncCall,
             want_result: bool) -> Optional[E.Exp]:
        assert self.cur_fun is not None
        if isinstance(node.name, c_ast.ID) and \
                node.name.name == "__trusted_cast":
            # A bare __trusted_cast(e) without an enclosing cast: treat
            # as a trusted cast to void*.
            args = node.args.exprs if node.args else []
            e = self.rvalue(args[0])
            cast = E.CastE(T.TPtr(T.void_t()), e)
            cast.trusted = True
            self.prog.trusted_cast_count += 1
            return cast
        fn = self._rvalue_nodecay(node.name)
        ft = T.unroll(fn.type())
        if isinstance(ft, T.TFun):
            pass
        else:
            fn = self._decay(fn)
            ft = T.unroll(fn.type())
            if isinstance(ft, T.TPtr):
                ft2 = T.unroll(ft.base)
                if not isinstance(ft2, T.TFun):
                    raise UnsupportedCError("call of non-function",
                                            node)
                ft = ft2
            else:
                raise UnsupportedCError("call of non-function", node)
        raw_args = node.args.exprs if node.args else []
        args: list[E.Exp] = []
        params = ft.params
        for i, a in enumerate(raw_args):
            e = self.rvalue(a)
            if params is not None and i < len(params):
                e = self.coerce(e, params[i][1])
            args.append(e)
        ret_t = ft.ret
        if want_result and not T.is_void(ret_t):
            # Allocator results get a recognizable temp name: casting
            # a fresh allocation to its intended type is not a checked
            # downcast (CCured recognizes allocators specially).
            callee = node.name.name if isinstance(
                node.name, c_ast.ID) else ""
            hint = "alloc" if callee in _ALLOCATORS else "call"
            tmp = self.cur_fun.new_temp(fresh_type(ret_t), hint)
            self.emit(S.Call(E.var_lval(tmp), fn, args))
            return E.LvalExp(E.var_lval(tmp))
        self.emit(S.Call(None, fn, args))
        if want_result:
            return E.Const(0)
        return None

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def coerce(self, e: E.Exp, target: T.CType) -> E.Exp:
        """Insert an explicit cast when ``e`` must convert to ``target``.

        Making *implicit* conversions explicit is what lets the
        constraint generator see, e.g., a ``void*`` flowing into a
        ``struct foo*`` parameter (a downcast needing RTTI).
        """
        ts, es = target.sig(), e.type().sig()
        if ts == es:
            return e
        ut = T.unroll(target)
        ue = T.unroll(e.type())
        if isinstance(ut, (T.TInt, T.TFloat, T.TEnum)) and isinstance(
                ue, (T.TInt, T.TFloat, T.TEnum)):
            return E.CastE(target, e)
        if isinstance(ut, T.TPtr):
            return E.CastE(target, e)
        if isinstance(ut, (T.TInt, T.TEnum)) and isinstance(ue, T.TPtr):
            return E.CastE(target, e)
        if isinstance(ut, T.TComp) and isinstance(ue, T.TComp) \
                and ut.comp is ue.comp:
            return e
        if T.is_void(target):
            return e
        raise UnsupportedCError(
            f"cannot convert {e.type()!r} to {target!r}")


def _append_offset(off: E.Offset, new: E.Offset) -> E.Offset:
    if isinstance(off, E.NoOffset):
        return new
    if isinstance(off, E.Field):
        return E.Field(off.field, _append_offset(off.rest, new))
    assert isinstance(off, E.Index)
    return E.Index(off.index, _append_offset(off.rest, new))


def _seq_blocks(body: S.Block, chain_is_else: S.Block) -> S.Block:
    out = S.Block(list(body.stmts) + list(chain_is_else.stmts))
    return out


def _truth(e: E.Exp) -> E.Exp:
    """Normalize an expression to 0/1 for storing into an int temp."""
    t = e.type()
    if T.is_pointer(t):
        return E.BinOp(E.BinopKind.NE, e,
                       E.CastE(_same_ptr(t), E.Const(0)), T.int_t())
    if isinstance(e, E.BinOp) and e.op in E.COMPARISONS:
        return e
    return E.BinOp(E.BinopKind.NE, e, E.Const(0), T.int_t())


def _same_ptr(t: T.CType) -> T.CType:
    """The same pointer type object, for null-constant casts.

    Sharing the ``TPtr`` (and hence its qualifier node) keeps the null
    literal from generating any constraints of its own.
    """
    return t


def _promote(t: T.CType) -> T.CType:
    u = T.unroll(t)
    if isinstance(u, T.TInt) and u.size() < 4:
        return T.int_t()
    if isinstance(u, T.TEnum):
        return T.int_t()
    return t


_RANK = {T.IKind.BOOL: 0, T.IKind.CHAR: 1, T.IKind.SCHAR: 1,
         T.IKind.UCHAR: 1, T.IKind.SHORT: 2, T.IKind.USHORT: 2,
         T.IKind.INT: 3, T.IKind.UINT: 4, T.IKind.LONG: 5,
         T.IKind.ULONG: 6, T.IKind.LLONG: 7, T.IKind.ULLONG: 8}


def _usual_arith(t1: T.CType, t2: T.CType) -> T.CType:
    u1, u2 = T.unroll(t1), T.unroll(t2)
    if isinstance(u1, T.TPtr):
        return t1
    if isinstance(u2, T.TPtr):
        return t2
    if isinstance(u1, T.TFloat) or isinstance(u2, T.TFloat):
        k1 = u1.kind if isinstance(u1, T.TFloat) else T.FKind.FLOAT
        k2 = u2.kind if isinstance(u2, T.TFloat) else T.FKind.FLOAT
        order = [T.FKind.FLOAT, T.FKind.DOUBLE, T.FKind.LDOUBLE]
        return T.TFloat(max(k1, k2, key=order.index))
    k1 = u1.kind if isinstance(u1, T.TInt) else T.IKind.INT
    k2 = u2.kind if isinstance(u2, T.TInt) else T.IKind.INT
    kind = k1 if _RANK[k1] >= _RANK[k2] else k2
    if _RANK[kind] < _RANK[T.IKind.INT]:
        kind = T.IKind.INT
    return T.TInt(kind)


def _parse_int_const(text: str) -> int:
    t = text.rstrip("uUlL")
    if t.lower().startswith("0x"):
        return int(t, 16)
    if t.startswith("0") and len(t) > 1:
        return int(t, 8)
    return int(t)


def _unescape(body: str) -> str:
    return (body.encode("latin-1", "backslashreplace")
            .decode("unicode_escape"))


def _parse_c_string(raw: str) -> str:
    # pycparser hands us the literal with quotes, possibly adjacent
    # concatenated segments.
    out = []
    i = 0
    while i < len(raw):
        if raw[i] == '"':
            j = i + 1
            while j < len(raw):
                if raw[j] == "\\":
                    j += 2
                    continue
                if raw[j] == '"':
                    break
                j += 1
            out.append(_unescape(raw[i + 1:j]))
            i = j + 1
        else:
            i += 1
    return "".join(out)


def _init_length(init: S.Init) -> int:
    if isinstance(init, S.CompoundInit):
        return len(init.entries)
    if isinstance(init, S.SingleInit) and isinstance(
            init.exp, E.StrConst):
        return len(init.exp.value) + 1
    raise UnsupportedCError("cannot size incomplete array")

"""Closure compilation of CIL to nested Python closures.

The tree-walking interpreter (:mod:`repro.interp.interp`) re-discovers
the shape of every statement, expression and type on every execution
step: ``isinstance`` chains, dispatch-dict lookups, offset walks and
type unrolling all happen *per step*.  Since the interpreter is also
the measurement instrument, that overhead bounds how much experiment
the suite can afford.

This module walks each :class:`~repro.cil.stmt.Fundec` **once** and
emits one Python closure per statement, instruction, lvalue and
expression.  Everything static is resolved at compile time:

* expression dispatch (one closure per node, no dict lookup),
* lvalue shape (register vs. home, constant field offsets folded,
  element sizes precomputed),
* scalar type facts (sizes, signedness, wrap masks),
* pointer-kind representation events (the wide/split counts of a
  pointer slot become precomputed constants),
* check kinds (one specialized closure per ``Check`` instruction).

For the hottest node shapes the compiler goes one step further and
*generates Python source* for the whole statement — the step count,
operand fetches (``f.regs[vid]`` for register variables, the literal
for constants), comparisons, ``!`` and wrapping integer operators,
store coercion, home lookup, constant offsets and the typed memory
access are all fused into a single ``exec``-compiled function, so a
``x = y + z`` statement executes as one Python frame instead of six
nested closure calls.  A multi-instruction statement is one fragment
that counts its step and calls each instruction's fragment.  A load
or store through a variable decodes in place in the home the fragment
already holds, and only an access that leaves the home goes through
:class:`~repro.runtime.memory.Memory`.  Generated sources keep all
varying quantities (vids, masks, sizes) in the function's globals, so
the small set of distinct source *shapes* hits a module-level
code-object cache and compilation stays cheap.

Control flow travels as return values, not exceptions.  A statement
runner returns ``None`` to fall through, the ``_BREAK`` or
``_CONTINUE`` sentinel for ``break``/``continue``, and ``(value,)``
for ``return value``.  A block stops at the first non-``None``
signal and returns it, an ``If`` returns its branch's, a ``Loop``
consumes break and continue (running the ``continue_runs_trailing``
tail on continue) and passes a return up, and
``Interpreter._call_fundec`` unwraps the tuple.  The front end rejects
a ``break``/``continue`` with no enclosing target, so only
fall-through or a return ever leaves a function body.  Unwinding an
exception through the nested runners cost ten times a plain return;
the tree walker keeps its ``_Break``/``_Continue``/``_Return``
exceptions, because as the oracle it should share as little of this
machinery as possible.

The closures are compiled per ``cured`` mode and parameterized over
``(ip, frame)`` so one compilation is shared by every
:class:`~repro.interp.interp.Interpreter` over the same tree.  The
compiled code replicates the tree-walker's cost-model counts, step
counting and error behaviour exactly — the differential test in
``tests/test_engine_parity.py`` asserts a bit-identical
``(status, stdout, cycles, steps)`` and count vector on every
workload, which is what licenses using the fast engine for the
paper's measurements.

The cache is a :class:`weakref.WeakKeyDictionary` keyed by ``Fundec``,
beside the tree rather than in it: compiled code never outlives its
tree, and a deep copy of a program (a pickle round trip, the bench
harness's cache discipline) starts uncompiled instead of carrying
closures bound to the original tree.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.core.qualifiers import PointerKind
from repro.runtime.checks import (BoundsError, DanglingPointerError,
                                  LinkError, MemorySafetyError,
                                  NullDereferenceError, ProgramAbort,
                                  WildTagError)
from repro.runtime.cost import mem_words
from repro.runtime.memory import (_LOAD_S, _LOAD_U, _LOAD_U32, _MASK,
                                  _STORE, _STORE_U32, PtrMeta,
                                  _clear_meta)
from repro.runtime.values import PtrVal

from repro.interp.interp import (_CMP_OPS, _FLOAT_OPS, _INT_OPS,
                                 _is_register_type)

#: compiled bodies per Fundec, keyed by the ``cured`` flag.  Weak keys:
#: a deep-copied tree compiles fresh, and dropped trees free their code.
_CACHE: "weakref.WeakKeyDictionary[S.Fundec, dict[bool, Callable]]" = \
    weakref.WeakKeyDictionary()

#: control signals a statement runner returns for ``break`` and
#: ``continue``; ``None`` falls through and ``return v`` yields ``(v,)``
_BREAK = "break"
_CONTINUE = "continue"


def compiled_body(fd: S.Fundec, cured: bool) -> Callable:
    """The compiled body runner ``(ip, frame) -> None | (value,)`` for
    ``fd``, compiling on first use."""
    per_fd = _CACHE.get(fd)
    if per_fd is None:
        per_fd = {}
        _CACHE[fd] = per_fd
    fn = per_fd.get(cured)
    if fn is None:
        fn = _Compiler(cured).block_body(fd.body)
        per_fd[cured] = fn
    return fn


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------
#
# Generated sources keep vids/masks/sizes in the function's globals (the
# ``env`` dict), never in the source text, so distinct nodes of the same
# *shape* share one code object.

_CODE_CACHE: dict[str, object] = {}


def _indent(code: str) -> str:
    """Indent generated source one level (for try/except nesting)."""
    return "".join("    " + line if line.strip() else line
                   for line in code.splitlines(keepends=True))


def _in_home(size: str, fast: str, slow: str) -> str:
    """Source lines running ``fast`` when ``[addr, addr + size)`` lies
    inside the variable's home ``h`` (its offset bound to ``off``) and
    ``slow`` — the ``Memory`` call, which traps or spills into the
    neighbouring home like hardware — otherwise."""
    return ("    off = addr - h.base\n"
            f"    if 0 <= off <= h.size - {size}:\n"
            + _indent(fast) + "    else:\n" + _indent(slow))


def _gen(src: str, env: dict) -> Callable:
    code = _CODE_CACHE.get(src)
    if code is None:
        code = compile(src, "<repro.interp.compiled>", "exec")
        _CODE_CACHE[src] = code
    ns = dict(env)
    exec(code, ns)
    return ns["run"]


_DEF = "def run(ip, f):\n"

#: per-instruction count that opens every Set/Call/Check source
_INSTR_COUNT = "    ip.cost.instrs += 1\n"

#: per-statement step accounting.  The limit compare goes against
#: ``_limit_at`` (== max_steps without a deadline); ``_over_limit``
#: raises or advances the clock checkpoint.
_STEP_HEAD = (
    _DEF +
    "    ip.steps += 1\n"
    "    if ip.steps > ip._limit_at:\n"
    "        ip._over_limit()\n")

#: comparison operators by symbol (fast path inlines the operator)
_CMP_SYM = {
    E.BinopKind.LT: "<", E.BinopKind.GT: ">",
    E.BinopKind.LE: "<=", E.BinopKind.GE: ">=",
    E.BinopKind.EQ: "==", E.BinopKind.NE: "!=",
}

#: integer binop fast-path expressions over operands ``{a}``/``{b}``
#: plus whether the expression can raise ZeroDivisionError.  The
#: DIV/MOD forms mirror the tree walker's C-style truncation
#: (``int(x / y)``).
_INT_EXPR = {
    E.BinopKind.ADD: ("{a} + {b}", False),
    E.BinopKind.SUB: ("{a} - {b}", False),
    E.BinopKind.MUL: ("{a} * {b}", False),
    E.BinopKind.DIV: ("int({a} / {b})", True),
    E.BinopKind.MOD: ("{a} - int({a} / {b}) * {b}", True),
    E.BinopKind.SHL: ("{a} << ({b} & 63)", False),
    E.BinopKind.SHR: ("{a} >> ({b} & 63)", False),
    E.BinopKind.BAND: ("{a} & {b}", False),
    E.BinopKind.BOR: ("{a} | {b}", False),
    E.BinopKind.BXOR: ("{a} ^ {b}", False),
}


# ---------------------------------------------------------------------------
# Small shared runtime helpers (mirror Interpreter._to_int/_to_float)
# ---------------------------------------------------------------------------

def _as_int(v: object) -> int:
    if isinstance(v, PtrVal):
        return v.addr
    if isinstance(v, float):
        return int(v)
    if isinstance(v, int):
        return v
    if v is None:
        return 0
    raise MemorySafetyError(f"expected integer, got {v!r}")


def _as_float(v: object) -> float:
    if isinstance(v, PtrVal):
        return float(v.addr)
    if v is None:
        return 0.0
    return float(v)  # type: ignore[arg-type]


def _binop_slow(v1: object, v2: object, iop: Callable,
                wrap: Callable) -> object:
    """Uncommon operand shapes (pointers, floats, bools, None) of an
    integer binop; mirrors the tree walker exactly."""
    if isinstance(v1, PtrVal):
        v1 = v1.addr
    if isinstance(v2, PtrVal):
        v2 = v2.addr
    try:
        out = iop(_as_int(v1), _as_int(v2))
    except ZeroDivisionError:
        raise ProgramAbort("integer division by zero")
    except ValueError:
        raise ProgramAbort("invalid shift amount")
    return wrap(out)


def _cmp_slow(v1: object, v2: object, cmpf: Callable) -> int:
    """Comparison over non-int operand shapes; tree semantics."""
    if isinstance(v1, PtrVal) or isinstance(v2, PtrVal):
        v1 = v1.addr if isinstance(v1, PtrVal) else _as_int(v1)
        v2 = v2.addr if isinstance(v2, PtrVal) else _as_int(v2)
    if isinstance(v1, float) or isinstance(v2, float):
        return int(cmpf(_as_float(v1), _as_float(v2)))
    return int(cmpf(_as_int(v1), _as_int(v2)))


def _cast_int_slow(v: object, wrap: Callable) -> int:
    if isinstance(v, PtrVal):
        v = v.addr
    return wrap(int(v) if isinstance(v, float) else _as_int(v))


def _neg_slow(v: object, wrap: Callable) -> object:
    if isinstance(v, PtrVal):
        v = v.addr
    return wrap(-v)  # type: ignore[operator]


def _bnot_slow(v: object, wrap: Callable) -> object:
    if isinstance(v, PtrVal):
        v = v.addr
    return wrap(~_as_int(v))


def _index_slow(idx: object) -> int:
    if isinstance(idx, PtrVal):
        return idx.addr
    return int(idx)  # type: ignore[arg-type]


def _seq_msg(v: PtrVal, size: int) -> str:
    return (f"SEQ bounds: 0x{v.addr:x} not in "
            f"[0x{v.b:x}, 0x{(v.e or 0):x} - {size}]")


def _fseq_msg(v: PtrVal, size: int) -> str:
    return f"FSEQ bounds: 0x{v.addr:x} not below 0x{v.e:x} - {size}"


def _wild_msg(v: PtrVal, home) -> str:
    return f"WILD bounds: 0x{v.addr:x} outside {home.name or 'area'}"


def _index_msg(idx: int, length: int) -> str:
    return f"array index {idx} out of bounds [0, {length})"


def _static_sizeof(t: T.CType) -> int:
    """Compile-time ``sizeof``; shares the per-type cache with the
    tree engine's ``Interpreter._sizeof``."""
    size = getattr(t, "_csize_cache", None)
    if size is not None:
        return size
    try:
        size = T.unroll(t).size()
    except T.IncompleteTypeError:
        size = 4
    t._csize_cache = size
    return size


def _noop(ip, f) -> None:
    return None


class _Compiler:
    """Compiles one function body; holds only the static mode flag."""

    __slots__ = ("cured",)

    def __init__(self, cured: bool) -> None:
        self.cured = cured

    # ------------------------------------------------------------------
    # Operand fetch: inline registers and constants, closure otherwise
    # ------------------------------------------------------------------

    def _fetch(self, e: E.Exp, n: int) -> tuple[str, dict]:
        """A source expression + env loading operand ``e``.  Register
        variables and constants inline (no closure call); anything else
        compiles to a closure invoked as ``e{n}c(ip, f)``."""
        if e.__class__ is E.LvalExp:
            lv = e.lval
            if lv.host.__class__ is E.Var and self._is_reg(lv.host.var):
                return f"f.regs[v{n}id]", {f"v{n}id": lv.host.var.vid}
        elif e.__class__ is E.Const:
            return f"k{n}", {f"k{n}": e.value}
        return f"e{n}c(ip, f)", {f"e{n}c": self.exp(e)}

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def block_body(self, b: S.Block) -> Callable:
        """Runner for a statement list *without* a step count for the
        block itself (If branches, loop bodies, function bodies); it
        stops at, and returns, the first statement's signal."""
        stmts = [self.stmt(s) for s in b.stmts]
        if not stmts:
            return _noop
        last = len(stmts) - 1
        if not last:
            return stmts[0]
        src = _DEF + "".join(f"    r = s{n}(ip, f)\n"
                             "    if r is not None:\n"
                             "        return r\n" for n in range(last))
        return _gen(src + f"    return s{last}(ip, f)\n",
                    {f"s{n}": s for n, s in enumerate(stmts)})

    def stmt(self, s: S.Stmt) -> Callable:
        cls = s.__class__
        if cls is S.InstrStmt:
            return self._compile_instr_stmt(s)
        if cls is S.If:
            return self._compile_if(s)
        if cls is S.Loop:
            return self._compile_loop(s)
        if cls is S.Return:
            return self._compile_return(s)
        if cls is S.Block:
            return _gen(_STEP_HEAD + "    return body(ip, f)\n",
                        {"body": self.block_body(s)})
        if cls is S.Break or cls is S.Continue:
            return _gen(_STEP_HEAD + "    return signal\n", {
                "signal": _BREAK if cls is S.Break else _CONTINUE})
        # Unknown statement classes: the tree walker counts the step
        # and falls through; replicate.
        return _gen(_STEP_HEAD, {})

    def _compile_instr_stmt(self, s: S.InstrStmt) -> Callable:
        """One fragment per statement: the step head, then the lone
        instruction's own lines, or a call per instruction."""
        codes = [self.instr(i) for i in s.instrs]
        if len(codes) == 1:
            src, env = codes[0]
            return _gen(_STEP_HEAD + src, env)
        src = _STEP_HEAD
        env = {}
        for n, (isrc, ienv) in enumerate(codes):
            env[f"i{n}"] = _gen(_DEF + isrc, ienv)
            src += f"    i{n}(ip, f)\n"
        return _gen(src, env)

    def _compile_if(self, s: S.If) -> Callable:
        fused = self._op_code(s.cond, "o")
        if fused is not None:
            test, env = fused
            test += "    if ro:\n"
        else:
            # truthiness matches the tree walker: ints by value,
            # pointers by address, everything else by bool()
            fcode, env = self._fetch(s.cond, 1)
            env["PtrVal"] = PtrVal
            test = (f"    v = {fcode}\n"
                    "    if v.__class__ is PtrVal:\n"
                    "        v = v.addr\n"
                    "    if v:\n")
        src = (_STEP_HEAD + "    ip.cost.branches += 1\n" + test
               + "        return thenb(ip, f)\n")
        env["thenb"] = self.block_body(s.then)
        if s.els.stmts:
            # an empty else (every loop's exit test) costs no call
            src += "    return elsb(ip, f)\n"
            env["elsb"] = self.block_body(s.els)
        return _gen(src, env)

    def _compile_loop(self, s: S.Loop) -> Callable:
        stmts = tuple(self.stmt(x) for x in s.body.stmts)
        trailing = s.continue_runs_trailing
        tail = stmts[len(stmts) - trailing:] if trailing else ()

        def run(ip, f):
            ip.steps += 1
            if ip.steps > ip._limit_at:
                ip._over_limit()
            while True:
                for x in stmts:
                    r = x(ip, f)
                    if r is not None:
                        break
                else:
                    continue
                if r is _CONTINUE:
                    # ``continue`` still runs the for-loop post
                    # expression and the do-while test
                    for x in tail:
                        r = x(ip, f)
                        if r is not None:
                            break
                    else:
                        continue
                return None if r is _BREAK else r
        return run

    def _compile_return(self, s: S.Return) -> Callable:
        if s.exp is None:
            return _gen(_STEP_HEAD + "    return (0,)\n", {})
        fcode, fenv = self._fetch(s.exp, 1)
        src = _STEP_HEAD + f"    return ({fcode},)\n"
        return _gen(src, fenv)

    # ------------------------------------------------------------------
    # Instructions
    # ------------------------------------------------------------------

    def instr(self, i: S.Instr) -> tuple[str, dict]:
        """The source lines (after the ``def``) and env of one
        instruction; its statement compiles them."""
        cls = i.__class__
        if cls is S.Set:
            return self._compile_set(i)
        if cls is S.Call:
            return self._compile_call(i)
        if cls is S.Check:
            return self._compile_check(i)
        raise MemorySafetyError(f"cannot compile instruction {i!r}")

    def _coerce_code(self, t: T.CType) -> tuple[str, dict]:
        """Source lines coercing the local ``value`` for a store into a
        ``t``-typed slot; the uncommon shapes fall back to the generic
        coercion closure."""
        u = T.unroll(t)
        env = {"coerce_slow": self.coerce(t)}
        if isinstance(u, (T.TInt, T.TEnum)):
            mask, top, span = self._wrap_params(t) or (0xFFFFFFFF, 0, 0)
            env.update(mask=mask, top=top, span=span)
            if not top:
                return ("    if value.__class__ is int:\n"
                        "        value = value & mask\n"
                        "    else:\n"
                        "        value = coerce_slow(value)\n"), env
            return ("    if value.__class__ is int:\n"
                    "        value = value & mask\n"
                    "        if value >= top:\n"
                    "            value = value - span\n"
                    "    else:\n"
                    "        value = coerce_slow(value)\n"), env
        if isinstance(u, T.TPtr):
            env["PtrVal"] = PtrVal
            return ("    if value.__class__ is not PtrVal:\n"
                    "        value = coerce_slow(value)\n"), env
        return "    value = coerce_slow(value)\n", env

    def _compile_set(self, i: S.Set) -> tuple[str, dict]:
        lv = i.lval
        fused = self._op_code(i.exp, "o")
        if fused is not None:
            vcode, venv = fused
            vcode += "    value = ro\n"
        else:
            fcode, venv = self._fetch(i.exp, 1)
            vcode = f"    value = {fcode}\n"
        ccode, cenv = self._coerce_code(lv.type())
        head = _INSTR_COUNT + vcode + ccode
        if lv.host.__class__ is E.Var and self._is_reg(lv.host.var):
            return head + "    f.regs[dvid] = value\n", {
                **venv, **cenv, "dvid": lv.host.var.vid}
        acode, aenv, t = self._addr_code(lv)
        body = self._write_body(t, lv.host.__class__ is E.Var)
        if body is not None:
            bcode, benv = body
            guard = ""
            if self.cured:
                guard = (
                    "    if value.__class__ is PtrVal "
                    "and value.addr != 0:\n"
                    "        ip._stack_escape_check(addr, value, f)\n")
            return head + acode + guard + bcode, {
                **venv, **cenv, **aenv, **benv, "PtrVal": PtrVal}
        return head + "    writec(ip, f, value)\n", {
            **venv, **cenv, "writec": self.write_lval(lv)}

    def _compile_call(self, i: S.Call) -> tuple[str, dict]:
        fetches = [self._fetch(a, n) for n, a in enumerate(i.args)]
        env: dict = {"instr": i}
        for _, fe in fetches:
            env.update(fe)
        args_expr = ", ".join(fc for fc, _ in fetches)
        head = _INSTR_COUNT + f"    args = [{args_expr}]\n"
        direct = (isinstance(i.fn, (E.AddrOf, E.LvalExp))
                  and isinstance(i.fn.lval.host, E.Var)
                  and isinstance(i.fn.lval.offset, E.NoOffset)
                  and T.is_function(i.fn.lval.host.var.type))
        if direct:
            env["name"] = i.fn.lval.host.var.name
            call = ("    ret = ip._dispatch_call(name, None, args, "
                    "instr, f)\n")
        else:
            fncode, fnenv = self._fetch(i.fn, 99)
            env.update(fnenv)
            env["PtrVal"] = PtrVal
            call = (
                f"    fv = {fncode}\n"
                "    if fv.__class__ is not PtrVal:\n"
                "        fv = PtrVal(int(fv))\n"
                "    ret = ip._dispatch_call(None, fv, args, "
                "instr, f)\n")
        store = ""
        if i.ret is not None:
            ccode, cenv = self._coerce_code(i.ret.type())
            env.update(cenv)
            store = "    value = ret\n" + ccode
            if (i.ret.host.__class__ is E.Var
                    and self._is_reg(i.ret.host.var)):
                env["rvid"] = i.ret.host.var.vid
                store += "    f.regs[rvid] = value\n"
            else:
                env["retw"] = self.write_lval(i.ret)
                store += "    retw(ip, f, value)\n"
        return head + call + store, env

    # ------------------------------------------------------------------
    # Checks (specialized per kind at compile time)
    # ------------------------------------------------------------------

    def _compile_check(self, c: S.Check) -> tuple[str, dict]:
        if not self.cured:
            # Raw runs of an instrumented program: the instruction is
            # counted but the check is inert.
            return _INSTR_COUNT, {}

        head = (_INSTR_COUNT
                + "    ip.cost.events[evk] += 1\n"
                # per-site hit counters for the observability layer;
                # a None mapping keeps this to one attribute test
                + "    hits = ip.site_hits\n"
                + "    if hits is not None:\n"
                + "        hits[sitek] = hits.get(sitek, 0) + 1\n")
        env: dict = {"evk": f"check:{c.kind.value}", "sitek": c.site}
        body = self._check_body_code(c)
        if body is None:
            return head, env
        bcode, benv = body
        # Mirror the tree walker's _exec_check: a failing check gets
        # its CheckFailure record attached before propagating.  The
        # Check node rides in the env, so the source text (and the
        # cached code object) stays shared across same-shape checks.
        src = (head
               + "    try:\n"
               + _indent(bcode)
               + "    except MemorySafetyError as exc:\n"
               + "        ip._attach_check_failure(exc, chk, "
               "f.fundec.name)\n"
               + "        raise\n")
        return src, {**env, **benv, "chk": c,
                     "MemorySafetyError": MemorySafetyError}

    def _check_body_code(self, c: S.Check) -> Optional[tuple[str, dict]]:
        K = S.CheckKind
        kind = c.kind
        if kind in (K.SAFE_TO_SEQ, K.STORE_STACK_PTR, K.VERIFY_NUL,
                    K.VERIFY_SIZE):
            return None  # counted only

        fcode, fenv = self._fetch(c.args[0], 1)

        if kind is K.INDEX:
            env = {**fenv, "PtrVal": PtrVal, "BoundsError": BoundsError,
                   "_index_msg": _index_msg, "length": c.size or 0}
            return ((f"    v = {fcode}\n"
                     "    if v.__class__ is PtrVal:\n"
                     "        idx = v.addr\n"
                     "    else:\n"
                     "        idx = int(v)\n"
                     "    if not (0 <= idx < length):\n"
                     "        raise BoundsError(_index_msg(idx, length),"
                     " f.fundec.name)\n"), env)

        prelude = (f"    v = {fcode}\n"
                   "    if v.__class__ is not PtrVal:\n"
                   "        v = PtrVal(int(v))\n")
        env = {**fenv, "PtrVal": PtrVal,
               "NullDereferenceError": NullDereferenceError,
               "BoundsError": BoundsError}

        if kind is K.NULL:
            return (prelude +
                    "    if v.addr == 0:\n"
                    "        raise NullDereferenceError("
                    "'null dereference', f.fundec.name)\n"
                    "    ip._check_alive(v, f)\n"), env

        if kind is K.ALIVE:
            # the lock-and-key logic lives in one shared interpreter
            # helper, so both engines raise identical errors
            return prelude + "    ip._check_temporal(v, f)\n", env

        if kind in (K.SEQ_BOUNDS, K.SEQ_TO_SAFE):
            env.update(size=c.size or 1, _seq_msg=_seq_msg)
            if kind is K.SEQ_TO_SAFE:
                null = "        return\n"  # null survives the conversion
            else:
                null = ("        raise NullDereferenceError("
                        "'null SEQ dereference', f.fundec.name)\n")
            return (prelude +
                    "    if v.addr == 0:\n" + null +
                    "    if not v.b:\n"
                    "        raise NullDereferenceError("
                    "'SEQ pointer is an integer in disguise "
                    "(null base)', f.fundec.name)\n"
                    "    if not (v.b <= v.addr <= v.e - size"
                    " if v.e is not None else False):\n"
                    "        raise BoundsError(_seq_msg(v, size), "
                    "f.fundec.name)\n"
                    "    ip._check_alive(v, f)\n"), env

        if kind is K.FSEQ_BOUNDS:
            env.update(size=c.size or 1, _fseq_msg=_fseq_msg)
            return (prelude +
                    "    if v.addr == 0:\n"
                    "        raise NullDereferenceError("
                    "'null FSEQ dereference', f.fundec.name)\n"
                    "    if v.e is None:\n"
                    "        raise NullDereferenceError("
                    "'FSEQ pointer is an integer in disguise', "
                    "f.fundec.name)\n"
                    "    lo = v.b if v.b is not None else v.addr\n"
                    "    if not (lo <= v.addr <= v.e - size):\n"
                    "        raise BoundsError(_fseq_msg(v, size), "
                    "f.fundec.name)\n"
                    "    ip._check_alive(v, f)\n"), env

        if kind is K.WILD_BOUNDS:
            env.update(size=c.size or 1, _wild_msg=_wild_msg,
                       DanglingPointerError=DanglingPointerError)
            return (prelude +
                    "    if v.addr == 0:\n"
                    "        raise NullDereferenceError("
                    "'null WILD dereference', f.fundec.name)\n"
                    "    if not v.b:\n"
                    "        raise NullDereferenceError("
                    "'WILD pointer is an integer in disguise', "
                    "f.fundec.name)\n"
                    "    home = ip.mem.home_of(v.b)\n"
                    "    if home is None:\n"
                    "        raise DanglingPointerError("
                    "'WILD base invalid', f.fundec.name)\n"
                    "    if not (home.base <= v.addr <= "
                    "home.end - size):\n"
                    "        raise BoundsError(_wild_msg(v, home), "
                    "f.fundec.name)\n"
                    "    ip._check_alive(v, f)\n"), env

        if kind is K.WILD_READ_TAG:
            env["WildTagError"] = WildTagError
            return (prelude +
                    "    if not ip.mem.has_ptr_tag(v.addr):\n"
                    "        raise WildTagError('WILD read: tag says "
                    "the word is not a pointer', f.fundec.name)\n"), env

        if kind is K.RTTI_CAST:
            env["rtti_t"] = c.rtti
            return (prelude +
                    "    if v.addr == 0:\n"
                    "        return\n"
                    "    target = ip.hierarchy.rtti_of(rtti_t)\n"
                    "    ip._rtti_check(v, target, f)\n"), env

        if kind is K.FUNPTR:
            env["WildTagError"] = WildTagError
            return (prelude +
                    "    if v.addr == 0:\n"
                    "        raise NullDereferenceError("
                    "'null function pointer', f.fundec.name)\n"
                    "    if v.addr not in ip._addr_to_func:\n"
                    "        raise WildTagError('function pointer does "
                    "not point to a function', f.fundec.name)\n"), env

        return None  # unknown kinds: cost only, like the tree walker

    # ------------------------------------------------------------------
    # Lvalues
    # ------------------------------------------------------------------

    @staticmethod
    def _is_reg(var: E.Varinfo) -> bool:
        """Static version of the frame-register test: matches exactly
        what ``Interpreter._build_call_plan`` puts into
        ``frame.regs``."""
        return (not var.is_global and _is_register_type(var.type)
                and not var.address_taken)

    def _host_code(self, lv: E.Lval) -> tuple[str, dict, str, T.CType]:
        """Source lines resolving the lvalue's host storage (register
        hosts excluded — callers handle those first).  Returns
        ``(lines, env, base_expr, host_type)``."""
        env: dict = {}
        lines: list[str] = []
        if lv.host.__class__ is E.Var:
            var = lv.host.var
            t: T.CType = var.type
            env["vid"] = var.vid
            env["LinkError"] = LinkError
            if var.is_global:
                env["vmsg"] = f"undefined external {var.name}"
                lines.append("    h = ip._global_homes.get(vid)\n")
            else:
                env["vmsg"] = f"variable {var.name} has no storage"
                lines.append("    h = f.homes.get(vid)\n")
            lines += ["    if h is None:\n",
                      "        raise LinkError(vmsg)\n"]
            base = "h.base"
        else:
            host = lv.host
            assert isinstance(host, E.Mem)
            pt = T.unroll(host.exp.type())
            t = pt.base if isinstance(pt, T.TPtr) else T.int_t()
            fcode, fenv = self._fetch(host.exp, 9)
            env.update(fenv)
            env["PtrVal"] = PtrVal
            lines += [f"    p = {fcode}\n",
                      "    if p.__class__ is not PtrVal:\n",
                      "        p = PtrVal(int(p))\n"]
            if self.cured:
                # Defense in depth: the Check in front should have fired.
                env["NullDereferenceError"] = NullDereferenceError
                lines += ["    if p.addr == 0:\n",
                          "        raise NullDereferenceError("
                          "'null dereference', f.fundec.name)\n"]
            base = "p.addr"
        return "".join(lines), env, base, t

    def _offset_code(self, lv: E.Lval) -> tuple:
        """The host lines plus the lvalue's offset chain, walked in
        chain order: field offsets and constant indices fold into one
        constant, register/constant indices inline.  Returns ``(lines,
        env, base, const, parts, t, best)``: the address is ``base +
        const`` plus the ``parts``, ``t`` is the lvalue's type, and
        ``best`` is ``(const, #parts, extent)`` at the innermost
        fixed-length indexed array (None if there is none)."""
        lines, env, base, t = self._host_code(lv)
        const = 0
        parts: list[str] = []
        best: Optional[tuple[int, int, int]] = None
        off = lv.offset
        n = 10
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Field):
                const += T.field_offset(off.field)
                t = off.field.type
            else:
                assert isinstance(off, E.Index)
                at = T.unroll(t)
                assert isinstance(at, T.TArray)
                esz = _static_sizeof(at.base)
                if at.length is not None:
                    best = (const, len(parts), at.length * esz)
                idx = off.index
                if idx.__class__ is E.Const and \
                        isinstance(idx.value, int):
                    const += idx.value * esz
                else:
                    fcode, fenv = self._fetch(idx, n)
                    env.update(fenv)
                    env[f"esz{n}"] = esz
                    env["_index_slow"] = _index_slow
                    lines += (f"    i{n} = {fcode}\n"
                              f"    if i{n}.__class__ is not int:\n"
                              f"        i{n} = _index_slow(i{n})\n")
                    parts.append(f"i{n} * esz{n}")
                    n += 1
                t = at.base
            off = off.rest
        return lines, env, base, const, parts, t, best

    @staticmethod
    def _sum(base: str, const: int, parts: list[str], env: dict,
             name: str) -> str:
        """``base`` plus the constant (bound to ``name``) and parts."""
        if const:
            env[name] = const
            base += " + " + name
        return " + ".join([base] + parts)

    def _addr_code(self, lv: E.Lval) -> tuple[str, dict, T.CType]:
        """Source lines computing the lvalue's address into ``addr``
        (register hosts excluded — callers handle those first)."""
        lines, env, base, const, parts, t, _ = self._offset_code(lv)
        addr = self._sum(base, const, parts, env, "delta")
        return lines + f"    addr = {addr}\n", env, t

    def read_lval(self, lv: E.Lval) -> Callable:
        if lv.host.__class__ is E.Var and self._is_reg(lv.host.var):
            vid = lv.host.var.vid

            def run(ip, f):
                return f.regs[vid]
            return run
        acode, aenv, t = self._addr_code(lv)
        body = self._read_body(t, lv.host.__class__ is E.Var)
        if body is not None:
            bcode, benv = body
            return _gen(_DEF + acode + bcode, {**aenv, **benv})
        # aggregates: the generic path handles blobs, counts and
        # shadow hooks
        addr_fn = _gen(_DEF + acode + "    return addr\n", aenv)

        def run(ip, f):
            return ip._read_mem(addr_fn(ip, f), t)
        return run

    def write_lval(self, lv: E.Lval) -> Callable:
        """Compile a store ``(ip, f, value) -> None``."""
        if lv.host.__class__ is E.Var and self._is_reg(lv.host.var):
            vid = lv.host.var.vid

            def run(ip, f, value):
                f.regs[vid] = value
            return run
        acode, aenv, t = self._addr_code(lv)
        guard = ""
        if self.cured:
            aenv = {**aenv, "PtrVal": PtrVal}
            guard = ("    if value.__class__ is PtrVal "
                     "and value.addr != 0:\n"
                     "        ip._stack_escape_check(addr, value, f)\n")
        body = self._write_body(t, lv.host.__class__ is E.Var)
        if body is not None:
            bcode, benv = body
            return _gen("def run(ip, f, value):\n" + acode + guard
                        + bcode, {**aenv, **benv})
        addr_fn = _gen(_DEF + acode + "    return addr\n", aenv)
        if self.cured:
            def run(ip, f, value):
                addr = addr_fn(ip, f)
                if isinstance(value, PtrVal) and value.addr != 0:
                    ip._stack_escape_check(addr, value, f)
                ip._write_mem(addr, t, value)
            return run

        def run(ip, f, value):
            ip._write_mem(addr_fn(ip, f), t, value)
        return run

    # ------------------------------------------------------------------
    # Typed memory access (specialized on the static type)
    # ------------------------------------------------------------------

    def _ptr_slot_events(self, u: T.CType,
                         store: bool) -> dict[str, int]:
        """Precompute ``Interpreter._count_ptr_slot``: the events one
        move of a ``u``-typed slot counts beside its memory words."""
        node = u.node if isinstance(u, T.TPtr) else None
        if node is None or not self.cured:
            return {}
        kind = node.kind
        events: dict[str, int] = {}
        if node.split:
            ops = 0
            if kind is PointerKind.SEQ:
                ops = 2
            elif kind in (PointerKind.FSEQ, PointerKind.RTTI):
                ops = 1
            if node.has_meta:
                ops += 1
            if ops:
                events["split"] = ops
        elif kind is not PointerKind.SAFE:
            events["wide:" + kind.name] = 1
        if store and kind is PointerKind.WILD:
            events["wild_tag"] = 1
        return events

    def _count_code(self, u: T.CType, hook: str) -> tuple[str, dict]:
        """Source lines counting one access of a ``u``-typed slot at
        ``addr`` (its memory words and pointer-slot events), then
        showing it to the shadow tool's ``hook``."""
        size = _static_sizeof(u)
        env: dict = {"words": mem_words(size), "size": size}
        lines = "    ip.cost.words += words\n"
        events = self._ptr_slot_events(u, hook == "on_write")
        for n, (key, count) in enumerate(events.items()):
            env[f"ek{n}"] = key
            env[f"en{n}"] = count
            lines += f"    ip.cost.events[ek{n}] += en{n}\n"
        return (lines + "    sh = ip.shadow\n"
                "    if sh is not None:\n"
                f"        sh.{hook}(addr, size)\n", env)

    def _read_body(self, t: T.CType,
                   in_home: bool) -> Optional[tuple[str, dict]]:
        """Source lines loading a ``t``-typed value from ``addr`` (the
        counts and the shadow hook included); None for aggregates.
        ``in_home``: the lvalue's host is a variable, whose home the
        lines already hold in ``h``, so an access inside it decodes in
        place."""
        u = T.unroll(t)
        count, env = self._count_code(u, "on_read")
        if isinstance(u, (T.TInt, T.TEnum)):
            signed = u.kind.is_signed if isinstance(u, T.TInt) else True
            env["signed"] = signed
            slow = "    return ip.mem.read_int(addr, size, signed)\n"
            if in_home and env["size"] in _STORE:
                env["load"] = (_LOAD_S if signed else _LOAD_U)[env["size"]]
                return count + _in_home(
                    "size", "    return load(h.data, off)[0]\n", slow), env
            return count + slow, env
        if isinstance(u, T.TFloat):
            return (count +
                    "    return ip.mem.read_float(addr, size)\n", env)
        if isinstance(u, T.TPtr):
            env["from_meta"] = PtrVal.from_meta
            slow = "    value, meta = ip.mem.read_ptr(addr)\n"
            if in_home:
                env["load32"] = _LOAD_U32
                lines = count + _in_home(
                    "4", "    value = load32(h.data, off)[0]\n"
                    "    meta = h.meta.get(off)\n", slow)
            else:
                lines = count + slow
            if self.cured and u.node is not None and u.node.split:
                # Section 4.2: SPLIT data written by a library has no
                # shadow metadata yet; the allocator's ground truth
                # provides sound bounds.
                env["PtrMeta"] = PtrMeta
                lines += (
                    "    if meta is None and value != 0:\n"
                    "        home = ip.mem.home_of(value)\n"
                    "        if home is not None:\n"
                    "            meta = PtrMeta(b=home.base, "
                    "e=home.end)\n"
                    "            ip.cost.events['manufacture'] += 1\n")
            return lines + "    return from_meta(value, meta)\n", env
        return None

    def _write_body(self, t: T.CType,
                    in_home: bool) -> Optional[tuple[str, dict]]:
        """Source lines storing ``value`` at ``addr``; None for
        aggregates (generic ``_write_mem`` handles those).  With
        ``in_home`` a store inside the variable's home ``h`` encodes in
        place and drops the pointer tags it overlaps."""
        u = T.unroll(t)
        count, env = self._count_code(u, "on_write")
        if isinstance(u, (T.TInt, T.TEnum)):
            env["_as_int"] = _as_int
            size = env["size"]
            if in_home and size in _STORE:
                env.update(store=_STORE[size], smask=_MASK[size],
                           _clear_meta=_clear_meta)
                return (count +
                        "    if value.__class__ is not int:\n"
                        "        value = _as_int(value)\n" + _in_home(
                            "size",
                            "    store(h.data, off, value & smask)\n"
                            "    if h.meta:\n"
                            "        _clear_meta(h, off, size)\n",
                            "    ip.mem.write_int(addr, value, size)\n"),
                        env)
            return (count +
                    "    ip.mem.write_int(addr, value if "
                    "value.__class__ is int else _as_int(value), "
                    "size)\n", env)
        if isinstance(u, T.TFloat):
            env["_as_float"] = _as_float
            return (count +
                    "    ip.mem.write_float(addr, _as_float(value), "
                    "size)\n", env)
        if isinstance(u, T.TPtr):
            env.update(PtrVal=PtrVal, _as_int=_as_int)
            lines = (count
                     + "    v = value if value.__class__ is PtrVal "
                     "else PtrVal(_as_int(value))\n"
                     "    meta = v.meta()\n")
            # Figure 10/11: every cured pointer store into a tagged
            # area sets the word's tag; a raw store only keeps a
            # pointer's own metadata.
            tag = "    h.meta[off] = meta\n"
            if self.cured:
                env["PtrMeta"] = PtrMeta
                lines += ("    if meta is None:\n"
                          "        meta = PtrMeta()\n")
            else:
                tag = "    if meta is not None:\n" + _indent(tag)
            slow = "    ip.mem.write_ptr(addr, v.addr, meta)\n"
            if not in_home:
                return lines + slow, env
            env.update(store32=_STORE_U32, _clear_meta=_clear_meta)
            return lines + _in_home(
                "4", "    store32(h.data, off, v.addr & 0xFFFFFFFF)\n"
                "    if h.meta:\n"
                "        _clear_meta(h, off, 4)\n" + tag, slow), env
        return None

    # ------------------------------------------------------------------
    # Store coercion and integer wrapping (static per type)
    # ------------------------------------------------------------------

    @staticmethod
    def _wrap_params(t: T.CType) -> Optional[tuple[int, int, int]]:
        """``(mask, top, span)`` for integer wrapping at type ``t``, or
        ``None`` for float (no wrapping).  ``top``/``span`` are 0 for
        unsigned types."""
        u = T.unroll(t)
        if isinstance(u, T.TFloat):
            return None
        if isinstance(u, T.TInt):
            bits = 8 * u.size()
            signed = u.kind.is_signed
        else:
            bits, signed = 32, False
        mask = (1 << bits) - 1
        if not signed:
            return mask, 0, 0
        return mask, 1 << (bits - 1), 1 << bits

    def wrap_for(self, t: T.CType) -> Callable:
        """Static version of ``Interpreter._wrap_to`` for type ``t``."""
        params = self._wrap_params(t)
        if params is None:
            return lambda v: v
        mask, top, span = params

        def wrap(v):
            if not isinstance(v, int):
                v = int(v)
            v &= mask
            return v - span if top and v >= top else v
        return wrap

    def coerce(self, t: T.CType) -> Callable:
        """Static version of ``Interpreter._coerce_store`` (the slow
        path of ``_coerce_code``)."""
        u = T.unroll(t)
        if isinstance(u, (T.TInt, T.TEnum)):
            wrap = self.wrap_for(t)

            def run(v):
                if isinstance(v, PtrVal):
                    v = v.addr
                elif isinstance(v, float):
                    v = int(v)
                return wrap(_as_int(v))
            return run
        if isinstance(u, T.TFloat):
            def run(v):
                if isinstance(v, PtrVal):
                    return float(v.addr)
                if v is None:
                    return 0.0
                return float(v)
            return run
        if isinstance(u, T.TPtr):
            def run(v):
                if isinstance(v, PtrVal):
                    return v
                return PtrVal(_as_int(v))
            return run
        return lambda v: v

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def exp(self, e: E.Exp) -> Callable:
        cls = e.__class__
        if cls is E.Const:
            value = e.value
            return lambda ip, f: value
        if cls is E.LvalExp:
            return self.read_lval(e.lval)
        if cls is E.BinOp:
            return self._compile_binop(e)
        if cls is E.CastE:
            return self._compile_cast(e)
        if cls is E.UnOp:
            return self._compile_unop(e)
        if cls is E.StrConst:
            text = e.value

            def run(ip, f):
                home = ip.intern_string(text)
                return PtrVal(home.base, b=home.base, e=home.end)
            return run
        if cls is E.SizeOfT:
            value = _static_sizeof(e.t)
            return lambda ip, f: value
        if cls is E.AddrOf:
            fast = self._compile_addrof(e.lval)
            if fast is not None:
                return fast
            # Index offsets walk the chain up to three times with
            # interleaved counts; delegate to the tree engine's exact
            # code to keep cycle parity (cold relative to plain loads).
            lv = e.lval
            return lambda ip, f: ip._eval_addrof(lv, f)
        if cls is E.StartOf:
            fast = self._compile_startof(e.lval)
            if fast is not None:
                return fast
            lv = e.lval
            return lambda ip, f: ip._eval_startof(lv, f)
        raise MemorySafetyError(f"cannot evaluate {e!r}")

    def _counts_nothing(self, e: E.Exp) -> bool:
        """Evaluating ``e`` counts no events and has no side effects,
        so the tree engine may evaluate it once or three times with
        identical cost — exactly constants and register reads."""
        if e.__class__ is E.Const:
            return True
        if e.__class__ is E.LvalExp:
            lv = e.lval
            return (lv.host.__class__ is E.Var and
                    lv.offset.__class__ is E.NoOffset and
                    self._is_reg(lv.host.var))
        return False

    def _compile_addrof(self, lv: E.Lval) -> Optional[Callable]:
        """``&lval`` compiled when every Index expression in the offset
        chain counts nothing: the tree engine walks the chain three
        times (location, ``_offset_delta``, the bounds walk), so a
        counting index would be counted thrice there but once here.
        Bounds replicate ``_bounds_for_addr``: the extent of the
        innermost fixed-length indexed array, else the object itself."""
        if lv.host.__class__ is E.Var:
            var = lv.host.var
            if T.is_function(var.type):
                return None  # code designator: delegates (alloc stubs)
            if self._is_reg(var):
                return None  # tree raises its own diagnostic
        off = lv.offset
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Index) and \
                    not self._counts_nothing(off.index):
                return None
            off = off.rest
        lines, env, base, const, parts, t, best = self._offset_code(lv)
        env["PtrVal"] = PtrVal
        if best is None:
            env["size"] = _static_sizeof(t)
            addr = self._sum(base, const, parts, env, "delta")
            lines += (f"    addr = {addr}\n"
                      "    return PtrVal(addr, b=addr, e=addr + size)\n")
        else:
            bconst, bn, extent = best
            env["extent"] = extent
            b = self._sum(base, bconst, parts[:bn], env, "bdelta")
            addr = self._sum("b", const - bconst, parts[bn:], env,
                             "sdelta")
            lines += (f"    b = {b}\n"
                      f"    addr = {addr}\n"
                      "    return PtrVal(addr, b=b, e=b + extent)\n")
        return _gen(_DEF + lines, env)

    def _compile_startof(self, lv: E.Lval) -> Optional[Callable]:
        """Array-to-pointer decay.  The tree engine resolves the
        location with a single offset walk (indices evaluated and
        counted once), so any offset chain compiles directly."""
        if lv.host.__class__ is E.Var and self._is_reg(lv.host.var):
            return None  # tree asserts; keep its diagnostic
        code, env, t = self._addr_code(lv)
        at = T.unroll(t)
        if not isinstance(at, T.TArray):
            return None  # tree asserts; keep its diagnostic
        env["PtrVal"] = PtrVal
        if at.length is not None:
            env["extent"] = at.length * _static_sizeof(at.base)
            tail = "    return PtrVal(addr, b=addr, e=addr + extent)\n"
        else:
            tail = ("    home = ip.mem.home_of(addr)\n"
                    "    return PtrVal(addr, b=addr, "
                    "e=home.end if home else addr)\n")
        return _gen("def run(ip, f):\n" + code + tail, env)

    # ------------------------------------------------------------------
    # Fused operators
    # ------------------------------------------------------------------

    def _op_code(self, e: E.Exp, tag: str) -> Optional[tuple[str, dict]]:
        """Source lines leaving the value of ``e`` in the local
        ``r{tag}`` when ``e`` is a comparison, ``!`` or a wrapping
        integer operator; None for any other expression.  Operands
        that are such operators fuse in recursively (tags ``{tag}1``,
        ``{tag}2``), registers and constants inline, and anything else
        is a fragment call.  Counting order is the tree walker's: the
        operator, then its operands left to right.  The result is
        always a plain ``int``."""
        cls = e.__class__
        r = "r" + tag
        if cls is E.BinOp:
            op = e.op
            if op in E.COMPARISONS:
                params = None
            elif op in _INT_EXPR:
                params = self._wrap_params(e.type())
                if params is None:
                    return None
            else:
                return None
            l1, env, a, int1 = self._operand(e.e1, tag + "1")
            l2, env2, b, int2 = self._operand(e.e2, tag + "2")
            env.update(env2)
            test = " and ".join(f"{x}.__class__ is int"
                                for x, known in ((a, int1), (b, int2))
                                if not known)
            if params is None:
                env.update(_cmp_slow=_cmp_slow, **{
                    f"cmpf{tag}": _CMP_OPS[op]})
                fast = f"    {r} = 1 if {a} {_CMP_SYM[op]} {b} else 0\n"
                slow = f"    {r} = _cmp_slow({a}, {b}, cmpf{tag})\n"
            else:
                expr, may_raise = _INT_EXPR[op]
                fast = self._wrap_code(r, expr.format(a=a, b=b), tag,
                                       params, env)
                if may_raise:
                    env["ProgramAbort"] = ProgramAbort
                    fast = ("    try:\n" + _indent(fast) +
                            "    except ZeroDivisionError:\n"
                            "        raise ProgramAbort('integer "
                            "division by zero')\n")
                env.update(_binop_slow=_binop_slow, **{
                    f"iop{tag}": _INT_OPS[op],
                    f"wrap{tag}": self.wrap_for(e.type())})
                slow = (f"    {r} = _binop_slow({a}, {b}, iop{tag}, "
                        f"wrap{tag})\n")
            lines = l1 + l2
        elif cls is E.UnOp:
            lnot = e.op is E.UnopKind.LNOT
            params = None if lnot else self._wrap_params(e.type())
            if not lnot and params is None:
                return None
            lines, env, a, known = self._operand(e.e, tag + "1")
            if params is None:
                test = "" if known else f"{a}.__class__ is not PtrVal"
                env["PtrVal"] = PtrVal
                fast = f"    {r} = 0 if {a} else 1\n"
                slow = f"    {r} = 0 if {a}.addr != 0 else 1\n"
            else:
                neg = e.op is E.UnopKind.NEG
                test = "" if known else f"{a}.__class__ is int"
                fast = self._wrap_code(r, ("-" if neg else "~") + a,
                                       tag, params, env)
                env[f"wrap{tag}"] = self.wrap_for(e.type())
                env[f"slow{tag}"] = _neg_slow if neg else _bnot_slow
                slow = f"    {r} = slow{tag}({a}, wrap{tag})\n"
        else:
            return None
        lines = "    ip.cost.ops += 1\n" + lines
        if not test:
            return lines + fast, env
        return (lines + f"    if {test}:\n" + _indent(fast)
                + "    else:\n" + _indent(slow)), env

    def _operand(self, e: E.Exp,
                 tag: str) -> tuple[str, dict, str, bool]:
        """``(lines, env, name, is_int)`` for one operand of a fused
        operator: the lines leave its value in the local or env
        ``name``, and ``is_int`` says it is statically a plain int."""
        fused = self._op_code(e, tag)
        if fused is not None:
            return fused[0], fused[1], "r" + tag, True
        if e.__class__ is E.Const and e.value.__class__ is int:
            return "", {f"k{tag}": e.value}, f"k{tag}", True
        fcode, env = self._fetch(e, tag)
        return f"    x{tag} = {fcode}\n", env, f"x{tag}", False

    @staticmethod
    def _wrap_code(r: str, expr: str, tag: str,
                   params: tuple[int, int, int], env: dict) -> str:
        """Lines wrapping the int ``expr`` to the operator's type into
        ``r`` (the mask, and the sign fold of a signed type)."""
        mask, top, span = params
        env[f"mask{tag}"] = mask
        lines = f"    {r} = ({expr}) & mask{tag}\n"
        if top:
            env[f"top{tag}"] = top
            env[f"span{tag}"] = span
            lines += (f"    if {r} >= top{tag}:\n"
                      f"        {r} -= span{tag}\n")
        return lines

    def _compile_unop(self, e: E.UnOp) -> Callable:
        fused = self._op_code(e, "o")
        if fused is not None:
            lines, env = fused
            return _gen(_DEF + lines + "    return ro\n", env)
        # float-typed negation (and complement): no wrapping
        sub = self.exp(e.e)
        neg = e.op is E.UnopKind.NEG

        def run(ip, f):
            ip.cost.ops += 1
            v = sub(ip, f)
            if isinstance(v, PtrVal):
                v = v.addr
            return -v if neg else ~_as_int(v)  # type: ignore[operator]
        return run

    @staticmethod
    def _elem_size_of(e: E.Exp) -> int:
        bt = T.unroll(e.type())
        return _static_sizeof(bt.base) if isinstance(bt, T.TPtr) else 1

    def _compile_binop(self, e: E.BinOp) -> Callable:
        fused = self._op_code(e, "o")
        if fused is not None:
            lines, env = fused
            return _gen(_DEF + lines + "    return ro\n", env)
        op = e.op
        f1, env1 = self._fetch(e.e1, 1)
        f2, env2 = self._fetch(e.e2, 2)
        head = (_DEF +
                "    ip.cost.ops += 1\n"
                f"    v1 = {f1}\n"
                f"    v2 = {f2}\n")
        if op is E.BinopKind.PLUS_PI or op is E.BinopKind.MINUS_PI:
            esz = self._elem_size_of(e.e1)
            mult = esz if op is E.BinopKind.PLUS_PI else -esz
            src = (head +
                   "    p = v1 if v1.__class__ is PtrVal else "
                   "PtrVal(_as_int(v1))\n"
                   "    if v2.__class__ is int:\n"
                   "        return p.with_addr(p.addr + v2 * mult)\n"
                   "    return p.with_addr(p.addr + _as_int(v2) "
                   "* mult)\n")
            return _gen(src, {**env1, **env2, "PtrVal": PtrVal,
                              "_as_int": _as_int, "mult": mult})
        if op is E.BinopKind.MINUS_PP:
            esz = self._elem_size_of(e.e1)
            src = (head +
                   "    a1 = v1.addr if v1.__class__ is PtrVal "
                   "else _as_int(v1)\n"
                   "    a2 = v2.addr if v2.__class__ is PtrVal "
                   "else _as_int(v2)\n"
                   "    return (a1 - a2) // esz\n")
            return _gen(src, {**env1, **env2, "PtrVal": PtrVal,
                              "_as_int": _as_int, "esz": esz})
        fop = _FLOAT_OPS.get(op)
        if fop is None or not isinstance(T.unroll(e.type()), T.TFloat):
            return lambda ip, f: ip._eval_binop(e, f)
        src = (head +
               "    if v1.__class__ is PtrVal:\n"
               "        v1 = v1.addr\n"
               "    if v2.__class__ is PtrVal:\n"
               "        v2 = v2.addr\n"
               "    try:\n"
               "        return fop(_as_float(v1), _as_float(v2))\n"
               "    except ZeroDivisionError:\n"
               "        raise ProgramAbort('floating division by "
               "zero')\n")
        return _gen(src, {**env1, **env2, "fop": fop,
                          "_as_float": _as_float, "PtrVal": PtrVal,
                          "ProgramAbort": ProgramAbort})

    def _compile_cast(self, e: E.CastE) -> Callable:
        fcode, fenv = self._fetch(e.e, 1)
        head = ("def run(ip, f):\n"
                "    ip.cost.ops += 1\n"
                f"    v = {fcode}\n")
        target = T.unroll(e.t)
        if isinstance(target, (T.TInt, T.TEnum)):
            wrap = self.wrap_for(e.t)
            mask, top, span = self._wrap_params(e.t) or (0xFFFFFFFF,
                                                         0, 0)
            if not top:
                body = "        return v & mask\n"
            else:
                body = ("        v = v & mask\n"
                        "        return v - span if v >= top else v\n")
            src = (head +
                   "    if v.__class__ is int:\n" + body +
                   "    return _cast_int_slow(v, wrap)\n")
            return _gen(src, {**fenv, "mask": mask, "top": top,
                              "span": span, "wrap": wrap,
                              "_cast_int_slow": _cast_int_slow})
        if isinstance(target, T.TFloat):
            src = (head +
                   "    return _as_float(v.addr if v.__class__ is "
                   "PtrVal else v)\n")
            return _gen(src, {**fenv, "_as_float": _as_float,
                              "PtrVal": PtrVal})
        if isinstance(target, T.TPtr):
            env = {**fenv, "PtrVal": PtrVal}
            if self.cured:
                kind = target.kind
                if kind in (PointerKind.SEQ, PointerKind.FSEQ):
                    env["size"] = _static_sizeof(target.base)
                    src = (head +
                           "    if v.__class__ is not PtrVal:\n"
                           "        return PtrVal(int(v))\n"
                           "    if v.b is None and v.addr != 0:\n"
                           "        return PtrVal(v.addr, b=v.addr, "
                           "e=v.addr + size, rtti=v.rtti, "
                           "key=v.key)\n"
                           "    return v\n")
                    return _gen(src, env)
                if kind is PointerKind.RTTI:
                    env.update(caste=e, target=target)
                    src = (head +
                           "    if v.__class__ is not PtrVal:\n"
                           "        return PtrVal(int(v))\n"
                           "    return ip._cured_ptr_cast(v, caste, "
                           "target)\n")
                    return _gen(src, env)
            src = (head +
                   "    if v.__class__ is PtrVal:\n"
                   "        return v\n"
                   "    return PtrVal(int(v))\n")
            return _gen(src, env)
        return _gen(head + "    return v\n", fenv)

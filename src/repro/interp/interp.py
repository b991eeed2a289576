"""The CIL interpreter: executes cured or raw programs.

Two modes share one abstract machine:

* **cured** — executes a :class:`repro.core.CuredProgram`: fat pointer
  values flow according to the inferred kinds, ``Check`` instructions
  perform CCured's run-time checks (raising the errors of
  :mod:`repro.runtime.checks`), library calls go through wrappers, and
  the cost model counts checks and wide/split representations.

* **raw** — executes the uninstrumented program with hardware
  semantics: no checks, overflows corrupt adjacent memory (homes are
  packed contiguously), unmapped accesses raise
  :class:`SegmentationFault`.  An optional *shadow checker* (the
  Purify/Valgrind baselines) observes every access through hooks.

The interpreter is also the measurement instrument: it counts every
executed instruction, branch test, operator, memory word and check in
the deterministic cost model (:mod:`repro.runtime.cost` prices the
counts), so benchmark ratios (cured/raw, purify/raw, …) are exactly
reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.cil.program import GVar, Program
from repro.core.curer import CuredProgram
from repro.core.qualifiers import PointerKind
from repro.core.split import needs_metadata
from repro.runtime import libc as libc_mod
from repro.runtime.checks import (BoundsError, CompatibilityError,
                                  DanglingPointerError,
                                  DoubleFreeError,
                                  InterpreterLimitError,
                                  InvalidFreeError, LinkError,
                                  MemorySafetyError,
                                  NullDereferenceError, ProgramAbort,
                                  ProgramExit, RttiCastError,
                                  SegmentationFault, StackEscapeError,
                                  UninitializedError,
                                  UseAfterFreeError, WildTagError,
                                  attach_failure)
from repro.obs.tracer import TRACER
from repro.runtime.cost import CostModel, mem_words
from repro.runtime.memory import Home, Memory, PtrMeta
from repro.runtime.values import NULL, POISON_ADDR, BlobVal, PtrVal

if TYPE_CHECKING:
    from repro.baselines.base import ShadowChecker


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: object) -> None:
        self.value = value


class Frame:
    __slots__ = ("fundec", "regs", "homes", "frame_id")

    def __init__(self, fundec: S.Fundec, frame_id: int,
                 regs: dict[int, object]) -> None:
        self.fundec = fundec
        self.regs = regs
        self.homes: dict[int, Home] = {}
        self.frame_id = frame_id


@dataclass
class ExecResult:
    """The outcome of a terminated run."""

    status: int
    stdout: str
    cost: CostModel
    steps: int
    error: Optional[BaseException] = None

    @property
    def cycles(self) -> int:
        return self.cost.cycles

    @property
    def checks_executed(self) -> int:
        """Run-time checks this execution actually performed —
        statically elided checks cost nothing and are not counted."""
        return self.cost.checks_executed()

    def __repr__(self) -> str:
        e = f", error={type(self.error).__name__}" if self.error else ""
        return (f"<exit {self.status}, {self.steps} steps, "
                f"{self.cost.cycles} cycles{e}>")


def _is_register_type(t: T.CType) -> bool:
    return T.is_scalar(T.unroll(t))


#: execution engines: "closures" compiles each function body to nested
#: Python closures once (fast, the default); "tree" walks the CIL tree
#: per step (the differential-testing oracle).
ENGINES = ("closures", "tree")


class Interpreter:
    """One program execution."""

    MAX_CALL_DEPTH = 400

    def __init__(self, prog: Program, *,
                 cured: Optional[CuredProgram] = None,
                 shadow: Optional["ShadowChecker"] = None,
                 max_steps: int = 50_000_000,
                 stdin: str = "",
                 engine: str = "closures",
                 stdout_limit: int = 4_000_000,
                 deadline: Optional[float] = None,
                 detect_uninit: bool = False,
                 site_hits: Optional[dict] = None,
                 reuse_freed: bool = False) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} "
                             f"(expected one of {ENGINES})")
        self.engine = engine
        self._use_closures = engine == "closures"
        if self._use_closures:
            # imported lazily: compile.py imports this module
            from repro.interp.compile import compiled_body
            self._compiled_body = compiled_body
        self.stdout_limit = stdout_limit
        self.prog = prog
        self.cured_prog = cured
        self.cured = cured is not None
        #: temporal (lock-and-key) checking is active: the program was
        #: cured with ``CureOptions.temporal`` (CHECK_ALIVE emitted),
        #: heap allocations issue keys, and ``free`` releases locks
        self.temporal = (cured is not None
                         and cured.options.temporal)
        # blame graph for failure forensics, built lazily on the first
        # failing check whose node carries provenance
        self._blame_graph = None
        self.hierarchy = cured.hierarchy if cured else None
        self.shadow = shadow
        if self.cured:
            gaps = {"stack", "heap", "global", "rodata", "code"}
        elif shadow is not None and shadow.wants_redzones:
            gaps = {"heap"}  # red zones on the heap, silent stack
        else:
            gaps = set()  # bare hardware: overflows corrupt neighbours
        self.mem = Memory(gap_regions=gaps, reuse_freed=reuse_freed)
        # priced for the attached tool (cost.TOOL_PRICES)
        self.cost = CostModel(shadow.name if shadow is not None else "")
        # attach before globals are initialized: the shadow tools see
        # every access from the very first write
        if shadow is not None:
            shadow.attach(self)
        self.max_steps = max_steps
        self.steps = 0
        self.detect_uninit = detect_uninit
        #: per-check-site hit counters (site id -> executions), filled
        #: only when a mapping is supplied — the observability layer's
        #: histogram.  ``None`` keeps both engines on their fast path.
        self.site_hits = site_hits
        # Wall-clock deadline, enforced at step-count checkpoints: the
        # fast path compares steps against _limit_at only; every
        # _clock_every steps _over_limit() consults the monotonic
        # clock.  With no deadline the limit is max_steps and the
        # clock is never read — behaviour is bit-identical.
        self.deadline = deadline
        self._clock_every = 65536
        if deadline is not None:
            self._deadline_at = time.monotonic() + deadline
            self._next_clock = self._clock_every
            self._limit_at = min(max_steps, self._next_clock)
        else:
            self._deadline_at = None
            self._next_clock = None
            self._limit_at = max_steps
        self._stdout: list[str] = []
        self._stdout_len = 0
        self._stdin = stdin
        self._stdin_pos = 0
        self.rand_state = 1
        self._frames: list[Frame] = []
        self._frame_counter = 0
        #: per-Fundec call plans (body runner + formal/local binding
        #: recipe)
        self._call_plans: dict[S.Fundec, tuple] = {}
        self._str_homes: dict[str, Home] = {}
        # functions and their code addresses
        self.functions: dict[str, S.Fundec] = dict(prog.functions)
        self._func_homes: dict[str, Home] = {}
        self._addr_to_func: dict[int, str] = {}
        for name in self.functions:
            h = self.mem.alloc(4, "code", f"fn:{name}")
            self._func_homes[name] = h
            self._addr_to_func[h.base] = name
        # wrapper registrations (#pragma ccuredWrapperOf)
        self.wrapper_of: dict[str, str] = {}
        for g in prog.pragmas("ccuredWrapperOf"):
            if len(g.args) >= 2 and g.args[0] in self.functions:
                self.wrapper_of[g.args[1]] = g.args[0]
        # global variables
        self._global_homes: dict[int, Home] = {}
        self._alloc_globals()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _alloc_globals(self) -> None:
        for g in self.prog.globals:
            if isinstance(g, GVar):
                size = self._sizeof(g.var.type)
                home = self.mem.alloc(size, "global", g.var.name)
                self._global_homes[g.var.vid] = home
        # builtin external objects: stdin/stdout/stderr FILE structs
        for name, var in self.prog.externals.items():
            if name in ("stdin", "stdout", "stderr"):
                fh = self.mem.alloc(4, "global", f"FILE:{name}")
                ph = self.mem.alloc(4, "global", name)
                ph.meta[0] = PtrMeta(b=fh.base, e=fh.end)
                self.mem.write_raw(ph.base,
                                   fh.base.to_bytes(4, "little"))
                self._global_homes[var.vid] = ph
        for g in self.prog.globals:
            if isinstance(g, GVar) and g.init is not None:
                home = self._global_homes[g.var.vid]
                self._store_init(home.base, g.var.type, g.init)

    def _store_init(self, addr: int, t: T.CType, init: S.Init) -> None:
        if isinstance(init, S.SingleInit):
            v = self.eval(init.exp, None)
            ut = T.unroll(t)
            if isinstance(ut, T.TArray) and isinstance(
                    init.exp, E.StrConst):
                text = init.exp.value
                data = text.encode("latin-1") + b"\0"
                self.mem.write_raw(addr, data[:ut.size()])
                return
            self._write_mem(addr, t, self._coerce_store(v, t))
            return
        assert isinstance(init, S.CompoundInit)
        ut = T.unroll(t)
        if isinstance(ut, T.TArray):
            esz = self._sizeof(ut.base)
            for key, sub in init.entries:
                self._store_init(addr + int(key) * esz, ut.base, sub)
        elif isinstance(ut, T.TComp):
            for key, sub in init.entries:
                f = ut.comp.field(str(key))
                self._store_init(addr + T.field_offset(f), f.type, sub)

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def _current_function(self) -> Optional[str]:
        """Name of the innermost C frame, for failure records raised
        outside a Check instruction (wrappers, dispatch)."""
        if self._frames:
            return self._frames[-1].fundec.name
        return None

    def _sizeof(self, t: T.CType) -> int:
        size = getattr(t, "_csize_cache", None)
        if size is not None:
            return size
        try:
            size = T.unroll(t).size()
        except T.IncompleteTypeError:
            size = 4
        t._csize_cache = size
        return size

    def _over_limit(self) -> None:
        """Slow path of the step/deadline limiter.  Raises on a real
        budget overrun, otherwise reads the clock (deadline mode) and
        advances the next checkpoint."""
        if self.steps > self.max_steps:
            raise InterpreterLimitError("step budget exceeded")
        if self._deadline_at is not None \
                and time.monotonic() >= self._deadline_at:
            raise InterpreterLimitError(
                f"wall-clock deadline of {self.deadline:g}s exceeded")
        assert self._next_clock is not None
        self._next_clock += self._clock_every
        self._limit_at = min(self.max_steps, self._next_clock)

    def write_stdout(self, text: str) -> None:
        self._stdout.append(text)
        self._stdout_len += len(text)
        if self._stdout_len > self.stdout_limit:
            raise InterpreterLimitError("stdout too large")

    def read_stdin_char(self) -> int:
        if self._stdin_pos >= len(self._stdin):
            return -1
        ch = self._stdin[self._stdin_pos]
        self._stdin_pos += 1
        return ord(ch)

    def read_stdin_line(self, limit: int) -> Optional[str]:
        if self._stdin_pos >= len(self._stdin):
            return None
        end = self._stdin.find("\n", self._stdin_pos)
        if end < 0:
            end = len(self._stdin) - 1
        line = self._stdin[self._stdin_pos:end + 1][:limit]
        self._stdin_pos += len(line)
        return line

    def stdout_text(self) -> str:
        return "".join(self._stdout)

    # -- heap management.  Spatial-only cured mode never reuses homes,
    # like the paper's conservative-GC configuration; temporal mode
    # (and raw mode) may recycle addresses when the Memory was built
    # with reuse_freed=True ---------------------------------------------

    def heap_alloc(self, size: int, name: str) -> Home:
        if self.mem.bytes_allocated > 1 << 28:
            raise InterpreterLimitError("heap exhausted")
        home = self.mem.alloc(size, "heap", name)
        if self.shadow is not None:
            self.shadow.on_alloc(home)
        return home

    def heap_free(self, p: PtrVal) -> None:
        home = self.mem.home_of(p.addr)
        if self.shadow is not None:
            # the shadow checker must observe every free *attempt* —
            # including non-heap, interior and double frees, which raw
            # execution otherwise swallows silently — so that
            # Purify/Valgrind-style baselines report them at the free
            self.shadow.on_free(p.addr, home)
        if home is None or home.region != "heap":
            if self.cured:
                raise attach_failure(
                    InvalidFreeError("free of non-heap pointer"),
                    check="FREE", function=self._current_function())
            return
        if p.addr != home.base:
            # C requires the exact pointer malloc returned
            if self.cured:
                raise attach_failure(
                    InvalidFreeError(
                        f"free of interior pointer 0x{p.addr:x} "
                        f"(block starts at 0x{home.base:x})"),
                    check="FREE", function=self._current_function())
            return
        if home.freed:
            if self.cured:
                raise attach_failure(
                    DoubleFreeError(
                        f"double free of block at 0x{home.base:x}"),
                    check="FREE", function=self._current_function())
            return
        if not self.cured:
            if self.mem.reuse_freed:
                # real-malloc semantics: the address is recycled and
                # stale bytes are handed back out (silently, as on
                # hardware — the differential the temporal mode traps)
                self.mem.free(home)
            else:
                # the block becomes unmapped-ish; we keep bytes but
                # mark dead so baselines can detect UAF
                home.alive = False
                home.freed = True
        elif not self.temporal:
            # cured, spatial-only: conservative-GC semantics — the
            # home stays readable (and is never recycled) so dangling
            # SEQ pointers stay memory-safe
            home.freed = True
        else:
            # temporal mode: release the lock so every stale key (and
            # the freed-home state itself) traps at the next
            # CHECK_ALIVE; under reuse_freed the address re-enters
            # circulation with a fresh lock
            self.mem.free(home)

    # -- strings ----------------------------------------------------------

    def intern_string(self, text: str) -> Home:
        home = self._str_homes.get(text)
        if home is None:
            data = text.encode("latin-1", "replace") + b"\0"
            home = self.mem.alloc(len(data), "rodata", "str")
            self.mem.write_raw(home.base, data)
            self._str_homes[text] = home
        return home

    def read_cstring(self, p: PtrVal, limit: int = 1 << 20) -> str:
        """The C string at ``p``, found with one ``bytearray.find`` per
        home.  Cured (``__verify_nul``): the NUL must lie within ``p``'s
        home and bounds.  Raw (hardware): the scan runs on into a home
        that begins where the last one ends, traps at the first
        unmapped byte, and gives up after ``limit`` bytes."""
        if p.is_null:
            raise attach_failure(
                NullDereferenceError("string is NULL"),
                check="CHECK_VERIFY_NUL",
                function=self._current_function())
        addr = p.addr
        home = self.mem.home_of(addr)
        if self.cured:
            if home is None:
                raise attach_failure(
                    DanglingPointerError(
                        f"string pointer 0x{addr:x} not in any "
                        f"object"),
                    check="CHECK_VERIFY_NUL",
                    function=self._current_function())
            stop = home.end if p.e is None else min(home.end, p.e)
        else:
            stop = addr + limit
        chunks: list[bytearray] = []
        error: Optional[Exception] = None
        while addr < stop:
            if home is None:
                error = SegmentationFault(
                    f"read of unmapped address 0x{addr:x}")
                break
            base = home.base
            hi = min(home.end, stop) - base
            nul = home.data.find(0, addr - base, hi)
            if nul >= 0:
                chunks.append(home.data[addr - base:nul])
                break
            chunks.append(home.data[addr - base:hi])
            addr = base + hi
            # a cured ``stop`` lies inside ``home``: only raw scans
            # go round again
            home = self.mem.home_of(addr)
        else:
            # ran off the bounds (cured) or the read limit (raw)
            # without meeting a NUL: a bounds violation of the scan
            # itself, not a budget problem of the interpreter
            error = attach_failure(
                BoundsError(
                    "__verify_nul: string not NUL-terminated within "
                    "bounds" if self.cured else
                    f"string not NUL-terminated within {limit} bytes"),
                check="CHECK_VERIFY_NUL",
                function=self._current_function())
        text = b"".join(chunks)
        sh = self.shadow
        if sh is not None:
            if self.cured:
                if error is None:
                    sh.on_read(p.addr, len(text) + 1)
            else:
                # hardware reads byte by byte: a shadow tool counts
                # and checks each one, up to the NUL or the trap
                for a in range(p.addr, p.addr + len(text)
                               + (error is None)):
                    sh.on_read(a, 1)
        if error is not None:
            raise error
        return text.decode("latin-1")

    def write_cstring(self, p: PtrVal, text: str) -> None:
        data = text.encode("latin-1", "replace") + b"\0"
        if self.shadow is not None:
            self.shadow.on_write(p.addr, len(data))
        self.mem.write_raw(p.addr, data)

    def verify_size(self, p: PtrVal, n: int, what: str) -> None:
        """The wrapper precondition __verify_size: ``n`` bytes must be
        available at ``p`` (within its bounds and its home)."""
        if p.is_null:
            raise attach_failure(
                NullDereferenceError(f"{what}: NULL buffer"),
                check="CHECK_VERIFY_SIZE",
                function=self._current_function())
        home = self.mem.home_of(p.addr)
        if home is None:
            raise attach_failure(
                DanglingPointerError(f"{what}: invalid pointer"),
                check="CHECK_VERIFY_SIZE",
                function=self._current_function())
        end = home.end
        if p.e is not None:
            end = min(end, p.e)
        if p.addr + n > end:
            raise attach_failure(
                BoundsError(
                    f"{what}: needs {n} bytes, only {end - p.addr} "
                    f"available in {home.name or home.region}"),
                check="CHECK_VERIFY_SIZE",
                function=self._current_function())

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, args: Optional[Sequence[str]] = None) -> ExecResult:
        with TRACER.span("exec", engine=self.engine,
                         mode="cured" if self.cured else "raw",
                         program=self.prog.name):
            return self._run_main(args)

    def _run_main(self,
                  args: Optional[Sequence[str]] = None) -> ExecResult:
        main = self.functions.get("main")
        if main is None:
            raise LinkError("no main function")
        call_args: list[object] = []
        if main.formals:
            argv = ["program"] + list(args or [])
            arr = self.heap_alloc(4 * (len(argv) + 1), "argv")
            for i, a in enumerate(argv):
                sh = self.intern_string(a)
                self.mem.write_ptr(arr.base + 4 * i, sh.base,
                                   PtrMeta(b=sh.base, e=sh.end))
            call_args = [len(argv),
                         PtrVal(arr.base, b=arr.base, e=arr.end)]
        status = 0
        error: Optional[BaseException] = None
        # The interpreter uses ~25 Python frames per C call frame, so
        # MAX_CALL_DEPTH C frames need headroom beyond the default
        # Python recursion limit.
        import sys
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100_000))
        try:
            ret = self._call_fundec(main, call_args)
            if isinstance(ret, int):
                status = ret
        except ProgramExit as px:
            status = px.status
        finally:
            sys.setrecursionlimit(old_limit)
        return ExecResult(status, self.stdout_text(), self.cost,
                          self.steps, error)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _call_fundec(self, fd: S.Fundec, args: list[object]) -> object:
        if len(self._frames) >= self.MAX_CALL_DEPTH:
            raise InterpreterLimitError("call depth exceeded")
        plan = self._call_plans.get(fd)
        if plan is None:
            plan = self._call_plans[fd] = self._build_call_plan(fd)
        body, formals, reg_formals, zeros, home_locals = plan
        self._frame_counter += 1
        fid = self._frame_counter
        frame = Frame(fd, fid, zeros.copy())
        self._frames.append(frame)
        try:
            if reg_formals is not None and len(args) >= len(reg_formals):
                frame.regs.update(zip(reg_formals, args))
            else:
                # address-taken formals get a home holding the coerced
                # value; a missing actual reads 0
                for i, (vid, is_reg, size, label, t) in enumerate(formals):
                    value = args[i] if i < len(args) else 0
                    if is_reg:
                        frame.regs[vid] = value
                    else:
                        home = self.mem.alloc(size, "stack", label)
                        home.frame_id = fid
                        frame.homes[vid] = home
                        self._write_mem(home.base, t,
                                        self._coerce_store(value, t))
            for vid, size, label in home_locals:
                home = self.mem.alloc(size, "stack", label)
                home.frame_id = fid
                frame.homes[vid] = home
            # the body yields None (fell off the end) or (value,)
            ret = body(self, frame)
            return 0 if ret is None else ret[0]
        finally:
            popped = self._frames.pop()
            if popped.homes:
                locks = self.mem.locks
                for home in popped.homes.values():
                    home.alive = False
                    # frame pop invalidates the lock, like free does
                    locks.release(home.lock_slot)

    def _build_call_plan(self, fd: S.Fundec) -> tuple:
        """The per-function call recipe: a body runner plus the
        register/home decision, zero value, home size and label of
        every formal and local — all static per variable for this
        execution (``address_taken`` only changes during curing, which
        happens before any Interpreter exists).  Register locals never
        allocate, so splitting them out preserves the stack layout."""
        if self._use_closures:
            # compiled once per (tree, mode); cached weakly
            body = self._compiled_body(fd, self.cured)
        else:
            blk = fd.body

            def body(ip: "Interpreter", frame: Frame) -> Optional[tuple]:
                try:
                    ip._exec_block(blk, frame)
                except _Return as r:
                    return (r.value,)
                return None
        formals = []
        for v in fd.formals:
            if _is_register_type(v.type) and not v.address_taken:
                formals.append((v.vid, True, 0, "", v.type))
            else:
                formals.append((v.vid, False, self._sizeof(v.type),
                                f"{fd.name}:{v.name}", v.type))
        # when every formal is a register, binding is one dict update
        reg_formals = None
        if all(f[1] for f in formals):
            reg_formals = tuple(f[0] for f in formals)
        zeros = {}
        home_locals = []
        for v in fd.locals:
            if _is_register_type(v.type) and not v.address_taken:
                zeros[v.vid] = self._zero_of(v.type)
            else:
                home_locals.append((v.vid, self._sizeof(v.type),
                                    f"{fd.name}:{v.name}"))
        return (body, tuple(formals), reg_formals, zeros,
                tuple(home_locals))

    def _zero_of(self, t: T.CType) -> object:
        u = T.unroll(t)
        if isinstance(u, T.TFloat):
            return 0.0
        if isinstance(u, T.TPtr):
            if self.detect_uninit and self.cured:
                # Poison register pointer locals so a use before any
                # assignment trips UninitializedError instead of
                # silently reading as NULL.
                return PtrVal(POISON_ADDR)
            return NULL
        return 0

    def call_function_value(self, fn: PtrVal,
                            args: list[object]) -> object:
        """Call through a function pointer value (used by qsort etc.)."""
        name = self._addr_to_func.get(fn.addr)
        if name is None:
            raise NullDereferenceError(
                f"call through invalid function pointer 0x{fn.addr:x}")
        return self._call_fundec(self.functions[name], args)

    def _dispatch_call(self, name: Optional[str], fnval: Optional[PtrVal],
                       args: list[object],
                       instr: Optional[S.Call],
                       frame: Optional[Frame]) -> object:
        if name is None and fnval is not None:
            name = self._addr_to_func.get(fnval.addr)
            if name is None:
                raise NullDereferenceError(
                    "call through invalid function pointer")
        assert name is not None
        # wrapper redirection: calls to a wrapped library function go
        # to the wrapper, except from inside the wrapper itself.
        wrapper = self.wrapper_of.get(name)
        if wrapper is not None and (frame is None
                                    or frame.fundec.name != wrapper):
            return self._call_fundec(self.functions[wrapper], args)
        if name in self.functions:
            return self._call_fundec(self.functions[name], args)
        impl = libc_mod.BUILTINS.get(name)
        if impl is None:
            raise attach_failure(
                LinkError(f"undefined external function {name}"),
                check="LINK", function=self._current_function())
        if self.cured and instr is not None:
            self._check_library_compat(name, instr)
        self.cost.events["libcall"] += 1
        return impl(self, *args)

    def _check_library_compat(self, name: str,
                              instr: S.Call) -> None:
        """Section 4.1/4.2: passing a pointer whose base type carries
        interleaved metadata to an unwrapped library fails to link —
        unless the data is SPLIT (compatible representation)."""
        if name not in libc_mod.RAW_LIBRARY:
            return  # wrapped builtins handle their own marshalling
        from repro.core.split import contains_wild
        for a in instr.args:
            # Look through casts: (void *)&x hides x's real type, and
            # the library sees the underlying data.
            layers = [a]
            while isinstance(layers[-1], E.CastE):
                layers.append(layers[-1].e)
            for e in layers:
                u = T.unroll(e.type())
                if not isinstance(u, T.TPtr):
                    continue
                node = u.node
                kind = node.kind if node is not None else None
                if kind is PointerKind.WILD or contains_wild(u.base):
                    raise attach_failure(
                        CompatibilityError(
                            f"{name}: WILD data cannot cross the "
                            "library boundary (tagged areas have no "
                            "C layout)"),
                        check="LIBRARY_COMPAT",
                        pointer_kind=kind.name if kind else None,
                        function=self._current_function())
                if node is not None and needs_metadata(u.base) \
                        and not node.split:
                    raise attach_failure(
                        CompatibilityError(
                            f"{name}: argument type "
                            f"{u.base!r} needs interleaved metadata; "
                            "a wrapper or a SPLIT representation is "
                            "required"),
                        check="LIBRARY_COMPAT",
                        pointer_kind=kind.name if kind else None,
                        function=self._current_function())

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_block(self, b: S.Block, frame: Frame) -> None:
        for s in b.stmts:
            self._exec_stmt(s, frame)

    def _exec_stmt(self, s: S.Stmt, frame: Frame) -> None:
        self.steps += 1
        if self.steps > self._limit_at:
            self._over_limit()
        if isinstance(s, S.InstrStmt):
            for i in s.instrs:
                self._exec_instr(i, frame)
        elif isinstance(s, S.Return):
            value: object = 0
            if s.exp is not None:
                value = self.eval(s.exp, frame)
            raise _Return(value)
        elif isinstance(s, S.Block):
            self._exec_block(s, frame)
        elif isinstance(s, S.If):
            self.cost.branches += 1
            if self._truthy(self.eval(s.cond, frame)):
                self._exec_block(s.then, frame)
            else:
                self._exec_block(s.els, frame)
        elif isinstance(s, S.Loop):
            self._exec_loop(s, frame)
        elif isinstance(s, S.Break):
            raise _Break()
        elif isinstance(s, S.Continue):
            raise _Continue()

    def _exec_loop(self, loop: S.Loop, frame: Frame) -> None:
        stmts = loop.body.stmts
        trailing = loop.continue_runs_trailing
        tail = stmts[len(stmts) - trailing:] if trailing else []
        while True:
            try:
                for s in stmts:
                    self._exec_stmt(s, frame)
            except _Break:
                return
            except _Continue:
                try:
                    for s in tail:
                        self._exec_stmt(s, frame)
                except _Break:
                    return

    def _exec_instr(self, i: S.Instr, frame: Frame) -> None:
        self.cost.instrs += 1
        if isinstance(i, S.Set):
            v = self.eval(i.exp, frame)
            self._write_lval(i.lval, frame,
                             self._coerce_store(v, i.lval.type()))
        elif isinstance(i, S.Call):
            self._exec_call(i, frame)
        elif isinstance(i, S.Check):
            self._exec_check(i, frame)

    def _exec_call(self, i: S.Call, frame: Frame) -> None:
        args = [self.eval(a, frame) for a in i.args]
        name: Optional[str] = None
        fnval: Optional[PtrVal] = None
        if isinstance(i.fn, (E.AddrOf, E.LvalExp)) and isinstance(
                i.fn.lval.host, E.Var) and isinstance(
                i.fn.lval.offset, E.NoOffset) and (
                T.is_function(i.fn.lval.host.var.type)):
            name = i.fn.lval.host.var.name
        else:
            fv = self.eval(i.fn, frame)
            fnval = fv if isinstance(fv, PtrVal) else PtrVal(
                int(fv))  # type: ignore[arg-type]
        ret = self._dispatch_call(name, fnval, args, i, frame)
        if i.ret is not None:
            self._write_lval(i.ret, frame,
                             self._coerce_store(ret,
                                                i.ret.type()))

    # ------------------------------------------------------------------
    # Checks (Figures 2 and 11)
    # ------------------------------------------------------------------

    def _exec_check(self, c: S.Check, frame: Frame) -> None:
        if not self.cured:
            return  # raw runs of an instrumented program skip checks
        hits = self.site_hits
        if hits is not None:
            # a failing check still counts: the site was reached
            hits[c.site] = hits.get(c.site, 0) + 1
        try:
            self._exec_check_kind(c, frame)
        except MemorySafetyError as exc:
            self._attach_check_failure(exc, c, frame.fundec.name)
            raise

    def _attach_check_failure(self, exc: MemorySafetyError,
                              c: S.Check, fname: str) -> None:
        """Attach the structured record of a failed Check (both
        engines route their check raises through here)."""
        attach_failure(exc, check=c.kind.value,
                       pointer_kind=_check_pointer_kind(c),
                       function=fname, site=c.site,
                       blame=self._check_blame(c))

    def _check_blame(self, c: S.Check) -> Optional[list]:
        """Blame chain of the pointer a failing Check guards (cached
        on the Check node, like its static kind).  None unless the
        program was cured with ``CureOptions.provenance`` on."""
        cached = getattr(c, "_blame_cache", False)
        if cached is not False:
            return cached
        blame: Optional[list] = None
        try:
            if c.args and self.cured_prog is not None:
                u = T.unroll(c.args[0].type())
                node = u.node if isinstance(u, T.TPtr) else None
                if node is not None and node.prov:
                    if self._blame_graph is None:
                        from repro.obs.blame import BlameGraph
                        self._blame_graph = BlameGraph.from_cured(
                            self.cured_prog)
                    ch = self._blame_graph.chain_of(node.id)
                    if ch is not None:
                        blame = [s.to_json() for s in ch.steps]
        except Exception:
            blame = None
        c._blame_cache = blame
        return blame

    def _exec_check_kind(self, c: S.Check, frame: Frame) -> None:
        self.cost.events["check:" + c.kind.value] += 1
        K = S.CheckKind
        if c.kind is K.NULL:
            v = self._ptr_arg(c, frame)
            if v.is_null:
                raise NullDereferenceError("null dereference",
                                           frame.fundec.name)
            self._check_alive(v, frame)
        elif c.kind in (K.SEQ_BOUNDS, K.SEQ_TO_SAFE):
            v = self._ptr_arg(c, frame)
            if c.kind is K.SEQ_TO_SAFE and v.is_null:
                return  # null survives the conversion (Figure 11)
            if v.is_null:
                raise NullDereferenceError("null SEQ dereference",
                                           frame.fundec.name)
            if not v.b:
                raise NullDereferenceError(
                    "SEQ pointer is an integer in disguise "
                    "(null base)", frame.fundec.name)
            size = c.size or 1
            if not (v.b <= v.addr <= v.e - size
                    if v.e is not None else False):
                raise BoundsError(
                    f"SEQ bounds: 0x{v.addr:x} not in "
                    f"[0x{v.b:x}, 0x{(v.e or 0):x} - {size}]",
                    frame.fundec.name)
            self._check_alive(v, frame)
        elif c.kind is K.FSEQ_BOUNDS:
            v = self._ptr_arg(c, frame)
            if v.is_null:
                raise NullDereferenceError("null FSEQ dereference",
                                           frame.fundec.name)
            if v.e is None:
                raise NullDereferenceError(
                    "FSEQ pointer is an integer in disguise",
                    frame.fundec.name)
            size = c.size or 1
            lo = v.b if v.b is not None else v.addr
            if not (lo <= v.addr <= v.e - size):
                raise BoundsError(
                    f"FSEQ bounds: 0x{v.addr:x} not below "
                    f"0x{v.e:x} - {size}", frame.fundec.name)
            self._check_alive(v, frame)
        elif c.kind is K.SAFE_TO_SEQ:
            pass  # manufactures bounds; counted only
        elif c.kind is K.ALIVE:
            v = self._ptr_arg(c, frame)
            self._check_temporal(v, frame)
        elif c.kind is K.WILD_BOUNDS:
            v = self._ptr_arg(c, frame)
            if v.is_null:
                raise NullDereferenceError("null WILD dereference",
                                           frame.fundec.name)
            if not v.b:
                raise NullDereferenceError(
                    "WILD pointer is an integer in disguise",
                    frame.fundec.name)
            home = self.mem.home_of(v.b)
            if home is None:
                raise DanglingPointerError("WILD base invalid",
                                           frame.fundec.name)
            size = c.size or 1
            if not (home.base <= v.addr <= home.end - size):
                raise BoundsError(
                    f"WILD bounds: 0x{v.addr:x} outside "
                    f"{home.name or 'area'}", frame.fundec.name)
            self._check_alive(v, frame)
        elif c.kind is K.WILD_READ_TAG:
            v = self._ptr_arg(c, frame)
            if not self.mem.has_ptr_tag(v.addr):
                raise WildTagError(
                    "WILD read: tag says the word is not a pointer",
                    frame.fundec.name)
        elif c.kind is K.STORE_STACK_PTR:
            pass  # enforced at the store itself; counted here
        elif c.kind is K.RTTI_CAST:
            v = self._ptr_arg(c, frame)
            if v.is_null:
                return
            assert c.rtti is not None and self.hierarchy is not None
            target = self.hierarchy.rtti_of(c.rtti)
            self._rtti_check(v, target, frame)
        elif c.kind is K.FUNPTR:
            v = self._ptr_arg(c, frame)
            if v.is_null:
                raise NullDereferenceError("null function pointer",
                                           frame.fundec.name)
            if v.addr not in self._addr_to_func:
                raise WildTagError(
                    "function pointer does not point to a function",
                    frame.fundec.name)
        elif c.kind is K.INDEX:
            idx = self._int_arg(c, frame)
            length = c.size or 0
            if not (0 <= idx < length):
                raise BoundsError(
                    f"array index {idx} out of bounds [0, {length})",
                    frame.fundec.name)
        elif c.kind in (K.VERIFY_NUL, K.VERIFY_SIZE):
            pass  # performed inside wrappers

    def _rtti_check(self, v: PtrVal, target: int,
                    frame: Frame) -> None:
        assert self.hierarchy is not None
        if v.rtti is not None:
            if not self.hierarchy.is_subtype(v.rtti, target):
                raise RttiCastError(
                    f"downcast to {self.hierarchy.nodes[target].type!r}"
                    f" fails: dynamic type is "
                    f"{self.hierarchy.nodes[v.rtti].type!r}",
                    frame.fundec.name)
            return
        # Untyped pointer (e.g. fresh malloc): brand the home with its
        # first effective type, like C's effective-type rule.
        home = self.mem.home_of(v.addr)
        if home is None:
            raise DanglingPointerError("RTTI cast of invalid pointer",
                                       frame.fundec.name)
        tsize = self._sizeof(self.hierarchy.nodes[target].type)
        if home.dynamic_rtti is None:
            if v.addr + tsize > home.end:
                raise BoundsError(
                    f"downcast: object of {home.end - v.addr} bytes "
                    f"cannot hold type of {tsize} bytes",
                    frame.fundec.name)
            home.dynamic_rtti = target
            return
        if self.hierarchy.is_subtype(home.dynamic_rtti, target):
            return
        # Effective-type refinement: the object was first seen at a
        # supertype; a later checked cast *down* the same chain (that
        # fits) refines the brand rather than failing.
        if self.hierarchy.is_subtype(target, home.dynamic_rtti) \
                and v.addr + tsize <= home.end:
            home.dynamic_rtti = target
            return
        raise RttiCastError(
            "downcast fails against the object's effective type",
            frame.fundec.name)

    def _check_temporal(self, v: PtrVal, frame: Frame) -> None:
        """CHECK_ALIVE — the lock-and-key temporal check.  Both
        engines call this one helper, so failure classes and message
        strings are identical by construction.

        Null passes (the spatial check ahead owns that diagnosis).  A
        freed home traps; a keyed pointer whose key no longer matches
        the home's lock traps — which is what catches stale pointers
        into *recycled* homes under ``Memory(reuse_freed=True)``;
        key-less pointers into never-recycled regions fall back to
        home state, exactly like the spatial liveness screen."""
        if v.addr == 0:
            return
        home = self.mem.home_of(v.addr)
        if home is None:
            # unmapped/poison: same screening as the spatial path
            self._check_alive(v, frame)
            return
        if home.freed:
            raise UseAfterFreeError(
                f"use after free of block at 0x{home.base:x}",
                frame.fundec.name)
        if v.key is not None and not self.mem.locks.valid(
                home.lock_slot, v.key):
            raise UseAfterFreeError(
                f"stale pointer 0x{v.addr:x}: key does not match "
                f"the home's current lock (address was recycled)",
                frame.fundec.name)
        if not home.alive and home.region == "stack":
            raise StackEscapeError(
                f"dereference of dead stack storage "
                f"({home.name})", frame.fundec.name)

    def _check_alive(self, v: PtrVal, frame: Frame) -> None:
        home = self.mem.home_of(v.addr)
        if home is None:
            if self.detect_uninit and v.addr == POISON_ADDR:
                raise UninitializedError(
                    "use of uninitialized pointer",
                    frame.fundec.name)
            raise DanglingPointerError(
                f"pointer 0x{v.addr:x} into unmapped memory",
                frame.fundec.name)
        if not home.alive and home.region == "stack":
            raise StackEscapeError(
                f"dereference of dead stack storage "
                f"({home.name})", frame.fundec.name)

    def _ptr_arg(self, c: S.Check, frame: Frame) -> PtrVal:
        v = self.eval(c.args[0], frame)
        if isinstance(v, PtrVal):
            return v
        return PtrVal(int(v))  # type: ignore[arg-type]

    def _int_arg(self, c: S.Check, frame: Frame) -> int:
        v = self.eval(c.args[0], frame)
        if isinstance(v, PtrVal):
            return v.addr
        if isinstance(v, float):
            return int(v)
        return int(v)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Lvalues
    # ------------------------------------------------------------------

    def _lval_location(self, lv: E.Lval,
                       frame: Frame) -> tuple[str, object, T.CType]:
        """Resolve an lvalue to ``("reg", vid, t)`` or
        ``("mem", addr, t)``."""
        if isinstance(lv.host, E.Var):
            var = lv.host.var
            if not var.is_global and frame is not None and \
                    var.vid in frame.regs:
                assert isinstance(lv.offset, E.NoOffset)
                return ("reg", var.vid, var.type)
            home = self._home_of_var(var, frame)
            addr, t = self._apply_offset(home.base, var.type,
                                         lv.offset, frame)
            return ("mem", addr, t)
        assert isinstance(lv.host, E.Mem)
        p = self.eval(lv.host.exp, frame)
        if not isinstance(p, PtrVal):
            p = PtrVal(int(p))  # type: ignore[arg-type]
        base_t = T.unroll(lv.host.exp.type())
        pointee = base_t.base if isinstance(base_t, T.TPtr) else \
            T.int_t()
        if self.cured and p.is_null:
            # Defense in depth: the Check in front should have fired.
            raise NullDereferenceError("null dereference",
                                       frame.fundec.name)
        addr, t = self._apply_offset(p.addr, pointee, lv.offset, frame)
        return ("mem", addr, t)

    def _home_of_var(self, var: E.Varinfo, frame: Frame) -> Home:
        if var.is_global:
            home = self._global_homes.get(var.vid)
            if home is None:
                raise LinkError(f"undefined external {var.name}")
            return home
        assert frame is not None
        home = frame.homes.get(var.vid)
        if home is None:
            raise LinkError(f"variable {var.name} has no storage")
        return home

    def _apply_offset(self, addr: int, t: T.CType, off: E.Offset,
                      frame: Frame) -> tuple[int, T.CType]:
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Field):
                addr += T.field_offset(off.field)
                t = off.field.type
                off = off.rest
            else:
                assert isinstance(off, E.Index)
                idx = self.eval(off.index, frame)
                if isinstance(idx, PtrVal):
                    idx = idx.addr
                at = T.unroll(t)
                assert isinstance(at, T.TArray)
                addr += int(idx) * self._sizeof(at.base)
                t = at.base
                off = off.rest
        return addr, t

    def _read_lval(self, lv: E.Lval, frame: Frame) -> object:
        kind, where, t = self._lval_location(lv, frame)
        if kind == "reg":
            return frame.regs[where]  # type: ignore[index]
        return self._read_mem(where, t)  # type: ignore[arg-type]

    def _write_lval(self, lv: E.Lval, frame: Frame,
                    value: object) -> None:
        kind, where, t = self._lval_location(lv, frame)
        if kind == "reg":
            frame.regs[where] = value  # type: ignore[index]
            return
        addr = where  # type: ignore[assignment]
        if self.cured and isinstance(value, PtrVal) \
                and not value.is_null:
            self._stack_escape_check(int(addr), value, frame)
        self._write_mem(int(addr), t, value)

    def _stack_escape_check(self, dest_addr: int, value: PtrVal,
                            frame: Frame) -> None:
        dest_home = self.mem.home_of(dest_addr)
        if dest_home is None or dest_home.region == "stack":
            return
        src_home = self.mem.home_of(value.addr)
        if src_home is not None and src_home.region == "stack":
            raise attach_failure(
                StackEscapeError(
                    f"storing stack pointer ({src_home.name}) into "
                    f"{dest_home.region} memory", frame.fundec.name),
                check="CHECK_STORE_STACK_PTR",
                function=frame.fundec.name)

    # ------------------------------------------------------------------
    # Typed memory access
    # ------------------------------------------------------------------

    def _read_mem(self, addr: int, t: T.CType) -> object:
        u = T.unroll(t)
        size = self._sizeof(u)
        self.cost.words += mem_words(size)
        if self.shadow is not None:
            self.shadow.on_read(addr, size)
        if isinstance(u, (T.TInt, T.TEnum)):
            signed = u.kind.is_signed if isinstance(u, T.TInt) else True
            return self.mem.read_int(addr, size, signed)
        if isinstance(u, T.TFloat):
            return self.mem.read_float(addr, size)
        if isinstance(u, T.TPtr):
            self._count_ptr_slot(u)
            value, meta = self.mem.read_ptr(addr)
            if (meta is None and value != 0 and self.cured
                    and u.node is not None and u.node.split):
                # SPLIT data written by an uninstrumented library has
                # no shadow metadata yet; CCured "must generate new
                # metadata when the library returns a newly allocated
                # object" (Section 4.2).  The allocator's ground truth
                # (the home's extent) provides sound bounds.
                home = self.mem.home_of(value)
                if home is not None:
                    meta = PtrMeta(b=home.base, e=home.end)
                    self.cost.events["manufacture"] += 1
            return PtrVal.from_meta(value, meta)
        if isinstance(u, (T.TComp, T.TArray)):
            data = self.mem.read_raw(addr, size)
            home = self.mem.home_of(addr)
            meta = {}
            if home is not None:
                off0 = addr - home.base
                meta = {off - off0: m for off, m in home.meta.items()
                        if off0 <= off < off0 + size}
            return BlobVal(data, meta)
        raise MemorySafetyError(f"cannot read type {t!r}")

    def _write_mem(self, addr: int, t: T.CType, value: object) -> None:
        u = T.unroll(t)
        size = self._sizeof(u)
        self.cost.words += mem_words(size)
        if self.shadow is not None:
            self.shadow.on_write(addr, size)
        if isinstance(u, (T.TInt, T.TEnum)):
            self.mem.write_int(addr, self._to_int(value), size)
            return
        if isinstance(u, T.TFloat):
            self.mem.write_float(addr, self._to_float(value), size)
            return
        if isinstance(u, T.TPtr):
            self._count_ptr_slot(u, store=True)
            v = value if isinstance(value, PtrVal) else PtrVal(
                self._to_int(value))
            meta = v.meta()
            if meta is None and self.cured:
                # Figure 10/11: *every* pointer store into a tagged
                # area sets the word's tag — including null pointers
                # and integers-in-disguise (their base stays null).
                meta = PtrMeta()
            self.mem.write_ptr(addr, v.addr, meta)
            return
        if isinstance(u, (T.TComp, T.TArray)):
            if isinstance(value, BlobVal):
                self.mem.write_raw(addr, value.data[:size])
                home = self.mem.home_of(addr)
                if home is not None:
                    off0 = addr - home.base
                    for rel, m in value.meta.items():
                        if rel < size:
                            home.meta[off0 + rel] = m
                return
            if isinstance(value, int) and value == 0:
                self.mem.write_raw(addr, b"\0" * size)
                return
        raise MemorySafetyError(f"cannot write type {t!r}")

    def _count_ptr_slot(self, u: T.TPtr, store: bool = False) -> None:
        """Count the representation events of moving this pointer
        slot: wide kinds move extra words (interleaved) or do parallel
        metadata accesses (split)."""
        node = u.node
        if node is None or not self.cured:
            return
        kind = node.kind
        events = self.cost.events
        if node.split:
            # Split representation: the pointer's own metadata (b/e
            # for SEQ, the type word for RTTI) lives in the *parallel*
            # metadata structure, so moving the pointer costs extra
            # dereferences there — more than the interleaved layout's
            # adjacent words, which is exactly why the paper restricts
            # SPLIT to where compatibility requires it.
            ops = 0
            if kind is PointerKind.SEQ:
                ops = 2  # b and e through the parallel structure
            elif kind in (PointerKind.FSEQ, PointerKind.RTTI):
                ops = 1
            if node.has_meta:
                ops += 1  # the m link to the base type's metadata
            if ops:
                events["split"] += ops
        elif kind is not PointerKind.SAFE:
            events["wide:" + kind.name] += 1
        if store and kind is PointerKind.WILD:
            events["wild_tag"] += 1

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval(self, e: E.Exp, frame: Optional[Frame]) -> object:
        # Dispatch on the concrete expression class (hot path).
        fn = _EVAL_DISPATCH.get(e.__class__)
        if fn is None:
            raise MemorySafetyError(f"cannot evaluate {e!r}")
        return fn(self, e, frame)

    def _ev_const(self, e: E.Const, frame: Optional[Frame]) -> object:
        return e.value

    def _ev_str(self, e: E.StrConst, frame: Optional[Frame]) -> object:
        home = self.intern_string(e.value)
        return PtrVal(home.base, b=home.base, e=home.end)

    def _ev_lval(self, e: E.LvalExp,
                 frame: Optional[Frame]) -> object:
        return self._read_lval(e.lval, frame)  # type: ignore[arg-type]

    def _ev_sizeof(self, e: E.SizeOfT,
                   frame: Optional[Frame]) -> object:
        return self._sizeof(e.t)

    def _ev_addrof(self, e: E.AddrOf,
                   frame: Optional[Frame]) -> object:
        return self._eval_addrof(e.lval, frame)

    def _ev_startof(self, e: E.StartOf,
                    frame: Optional[Frame]) -> object:
        return self._eval_startof(e.lval, frame)

    def _eval_addrof(self, lv: E.Lval,
                     frame: Optional[Frame]) -> PtrVal:
        # Function designators: the code address.
        if isinstance(lv.host, E.Var) and T.is_function(
                lv.host.var.type):
            h = self._func_homes.get(lv.host.var.name)
            if h is None:
                # external function used as a value: give it a stub
                h = self.mem.alloc(4, "code",
                                   f"fn:{lv.host.var.name}")
                self._func_homes[lv.host.var.name] = h
                self._addr_to_func[h.base] = lv.host.var.name
                if lv.host.var.name not in self.functions and \
                        lv.host.var.name in libc_mod.BUILTINS:
                    pass  # dispatched by name at call time
            return PtrVal(h.base, b=h.base, e=h.end)
        kind, where, t = self._lval_location(lv, frame)  # type: ignore
        if kind == "reg":
            raise MemorySafetyError(
                "address of register variable (frontend should have "
                "marked it address-taken)")
        addr = int(where)  # type: ignore[arg-type]
        b, e_ = self._bounds_for_addr(lv, addr, t, frame)
        return PtrVal(addr, b=b, e=e_)

    def _bounds_for_addr(self, lv: E.Lval, addr: int, t: T.CType,
                         frame: Optional[Frame]) -> tuple[int, int]:
        """Bounds for ``&lval``: the extent of the innermost indexed
        array if any, else the addressed object itself."""
        size = self._sizeof(t)
        # find the innermost Index offset's array extent
        if isinstance(lv.host, E.Var):
            base_t: T.CType = lv.host.var.type
        else:
            pt = T.unroll(lv.host.exp.type())
            base_t = pt.base if isinstance(pt, T.TPtr) else T.int_t()
        # walk offsets tracking the last array start
        cur_addr = addr - self._offset_delta(lv, frame)
        best: Optional[tuple[int, int]] = None
        t_walk = base_t
        a_walk = cur_addr
        off = lv.offset
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Field):
                a_walk += T.field_offset(off.field)
                t_walk = off.field.type
                off = off.rest
            else:
                assert isinstance(off, E.Index)
                at = T.unroll(t_walk)
                assert isinstance(at, T.TArray)
                if at.length is not None:
                    best = (a_walk,
                            a_walk + at.length * self._sizeof(at.base))
                idx = self.eval(off.index, frame)
                if isinstance(idx, PtrVal):
                    idx = idx.addr
                a_walk += int(idx) * self._sizeof(at.base)
                t_walk = at.base
                off = off.rest
        if best is not None:
            return best
        return addr, addr + size

    def _offset_delta(self, lv: E.Lval,
                      frame: Optional[Frame]) -> int:
        """Byte delta contributed by the lvalue's offset chain."""
        if isinstance(lv.host, E.Var):
            t: T.CType = lv.host.var.type
        else:
            pt = T.unroll(lv.host.exp.type())
            t = pt.base if isinstance(pt, T.TPtr) else T.int_t()
        delta = 0
        off = lv.offset
        while not isinstance(off, E.NoOffset):
            if isinstance(off, E.Field):
                delta += T.field_offset(off.field)
                t = off.field.type
                off = off.rest
            else:
                assert isinstance(off, E.Index)
                at = T.unroll(t)
                assert isinstance(at, T.TArray)
                idx = self.eval(off.index, frame)
                if isinstance(idx, PtrVal):
                    idx = idx.addr
                delta += int(idx) * self._sizeof(at.base)
                t = at.base
                off = off.rest
        return delta

    def _eval_startof(self, lv: E.Lval,
                      frame: Optional[Frame]) -> PtrVal:
        kind, where, t = self._lval_location(lv, frame)  # type: ignore
        assert kind == "mem"
        addr = int(where)  # type: ignore[arg-type]
        at = T.unroll(t)
        assert isinstance(at, T.TArray)
        if at.length is not None:
            end = addr + at.length * self._sizeof(at.base)
        else:
            home = self.mem.home_of(addr)
            end = home.end if home else addr
        return PtrVal(addr, b=addr, e=end)

    def _eval_unop(self, e: E.UnOp, frame: Optional[Frame]) -> object:
        self.cost.ops += 1
        v = self.eval(e.e, frame)
        if e.op is E.UnopKind.LNOT:
            return 0 if self._truthy(v) else 1
        if isinstance(v, PtrVal):
            v = v.addr
        if e.op is E.UnopKind.NEG:
            out: object = -v  # type: ignore[operator]
        else:
            out = ~self._to_int(v)
        return self._wrap_to(out, e.type())

    def _eval_binop(self, e: E.BinOp, frame: Optional[Frame]) -> object:
        self.cost.ops += 1
        op = e.op
        v1 = self.eval(e.e1, frame)
        v2 = self.eval(e.e2, frame)
        if op is E.BinopKind.PLUS_PI or op is E.BinopKind.MINUS_PI:
            p = v1 if isinstance(v1, PtrVal) else PtrVal(
                self._to_int(v1))
            n = self._to_int(v2)
            esz = getattr(e, "_esz_cache", None)
            if esz is None:
                bt = T.unroll(e.e1.type())
                esz = self._sizeof(bt.base) if isinstance(
                    bt, T.TPtr) else 1
                e._esz_cache = esz
            delta = n * esz if op is E.BinopKind.PLUS_PI else -n * esz
            return p.with_addr(p.addr + delta)
        if op is E.BinopKind.MINUS_PP:
            a1 = v1.addr if isinstance(v1, PtrVal) else self._to_int(v1)
            a2 = v2.addr if isinstance(v2, PtrVal) else self._to_int(v2)
            bt = T.unroll(e.e1.type())
            esz = self._sizeof(bt.base) if isinstance(bt, T.TPtr) \
                else 1
            return (a1 - a2) // esz
        if op in E.COMPARISONS:
            return self._compare(op, v1, v2)
        # arithmetic / bitwise
        if isinstance(v1, PtrVal):
            v1 = v1.addr
        if isinstance(v2, PtrVal):
            v2 = v2.addr
        rt = T.unroll(e.type())
        if isinstance(rt, T.TFloat):
            x = self._to_float(v1)
            y = self._to_float(v2)
            try:
                out = _FLOAT_OPS[op](x, y)
            except ZeroDivisionError:
                raise ProgramAbort("floating division by zero")
            return out
        x = self._to_int(v1)
        y = self._to_int(v2)
        try:
            out = _INT_OPS[op](x, y)
        except ZeroDivisionError:
            raise ProgramAbort("integer division by zero")
        except ValueError:
            raise ProgramAbort("invalid shift amount")
        return self._wrap_to(out, e.type())

    def _compare(self, op: E.BinopKind, v1: object,
                 v2: object) -> int:
        if isinstance(v1, PtrVal) or isinstance(v2, PtrVal):
            a1 = v1.addr if isinstance(v1, PtrVal) else self._to_int(v1)
            a2 = v2.addr if isinstance(v2, PtrVal) else self._to_int(v2)
            v1, v2 = a1, a2
        if isinstance(v1, float) or isinstance(v2, float):
            x, y = self._to_float(v1), self._to_float(v2)
        else:
            x, y = self._to_int(v1), self._to_int(v2)
        return int(_CMP_OPS[op](x, y))

    def _eval_cast(self, e: E.CastE, frame: Optional[Frame]) -> object:
        self.cost.ops += 1
        v = self.eval(e.e, frame)
        target = T.unroll(e.t)
        if isinstance(target, (T.TInt, T.TEnum)):
            if isinstance(v, PtrVal):
                v = v.addr
            return self._wrap_to(self._to_int(v)
                                 if not isinstance(v, float)
                                 else int(v), e.t)
        if isinstance(target, T.TFloat):
            return self._to_float(v.addr if isinstance(v, PtrVal)
                                  else v)
        if isinstance(target, T.TPtr):
            if not isinstance(v, PtrVal):
                iv = int(v) if not isinstance(v, float) else int(v)
                return PtrVal(iv)
            if not self.cured:
                return v
            return self._cured_ptr_cast(v, e, target)
        return v

    def _cured_ptr_cast(self, v: PtrVal, e: E.CastE,
                        target: T.TPtr) -> PtrVal:
        """Adjust fat-pointer metadata per the target kind (Figure 2
        and Figure 11's cast rows).  The *checks* were inserted as
        separate Check instructions; this is the value plumbing."""
        kind = target.kind
        if kind in (PointerKind.SEQ, PointerKind.FSEQ):
            if v.b is None and not v.is_null:
                size = self._sizeof(target.base)
                return PtrVal(v.addr, b=v.addr, e=v.addr + size,
                              rtti=v.rtti, key=v.key)
            return v
        if kind is PointerKind.RTTI:
            if v.rtti is None and not v.is_null \
                    and self.hierarchy is not None:
                from repro.core.constraints import _is_alloc_result
                src_t = T.unroll(e.e.type())
                if _is_alloc_result(e.e):
                    # Fresh allocation: it *becomes* the target type.
                    rid = self.hierarchy.rtti_of(target.base)
                    return PtrVal(v.addr, b=v.b, e=v.e, rtti=rid,
                                  key=v.key)
                if isinstance(src_t, T.TPtr) and not T.is_void(
                        src_t.base):
                    # Figure 2, row 1: record the static source type.
                    rid = self.hierarchy.rtti_of(src_t.base)
                    return PtrVal(v.addr, b=v.b, e=v.e, rtti=rid,
                                  key=v.key)
                # A void* of unknown dynamic type: stay untyped and
                # let the home's effective type answer later checks.
            return v
        return v

    # -- conversions on store -------------------------------------------

    def _coerce_store(self, v: object, t: T.CType) -> object:
        u = T.unroll(t)
        if isinstance(u, (T.TInt, T.TEnum)):
            if isinstance(v, PtrVal):
                v = v.addr
            if isinstance(v, float):
                v = int(v)
            return self._wrap_to(self._to_int(v), t)
        if isinstance(u, T.TFloat):
            return self._to_float(v.addr if isinstance(v, PtrVal)
                                  else v)
        if isinstance(u, T.TPtr):
            if isinstance(v, PtrVal):
                return v
            return PtrVal(self._to_int(v))
        return v

    # -- numeric helpers ---------------------------------------------------

    @staticmethod
    def _to_int(v: object) -> int:
        if isinstance(v, PtrVal):
            return v.addr
        if isinstance(v, float):
            return int(v)
        if isinstance(v, int):
            return v
        if v is None:
            return 0
        raise MemorySafetyError(f"expected integer, got {v!r}")

    @staticmethod
    def _to_float(v: object) -> float:
        if isinstance(v, PtrVal):
            return float(v.addr)
        if v is None:
            return 0.0
        return float(v)  # type: ignore[arg-type]

    def _truthy(self, v: object) -> bool:
        if isinstance(v, PtrVal):
            return v.addr != 0
        return bool(v)

    def _wrap_to(self, value: object, t: T.CType) -> int:
        info = getattr(t, "_wrap_cache", None)
        if info is None:
            u = T.unroll(t)
            if isinstance(u, T.TFloat):
                info = ("float", 0, False)
            elif isinstance(u, T.TInt):
                bits = 8 * u.size()
                info = ("int", bits, u.kind.is_signed)
            else:
                info = ("int", 32, False)
            t._wrap_cache = info
        kind, bits, signed = info
        if kind == "float":
            return value  # type: ignore[return-value]
        if not isinstance(value, int):
            value = int(value)  # type: ignore[arg-type]
        value &= (1 << bits) - 1
        if signed and value >= (1 << (bits - 1)):
            value -= 1 << bits
        return value


def _check_pointer_kind(c: S.Check) -> Optional[str]:
    """Static kind of the pointer a Check guards, for failure
    records; cached on the Check node (checks run hot)."""
    cached = getattr(c, "_pkind_cache", False)
    if cached is not False:
        return cached
    kind: Optional[str] = None
    if c.args:
        try:
            u = T.unroll(c.args[0].type())
            if isinstance(u, T.TPtr) and u.node is not None:
                kind = u.node.kind.name
        except Exception:
            kind = None
    c._pkind_cache = kind
    return kind


_EVAL_DISPATCH = {
    E.Const: Interpreter._ev_const,
    E.StrConst: Interpreter._ev_str,
    E.LvalExp: Interpreter._ev_lval,
    E.SizeOfT: Interpreter._ev_sizeof,
    E.UnOp: Interpreter._eval_unop,
    E.BinOp: Interpreter._eval_binop,
    E.CastE: Interpreter._eval_cast,
    E.AddrOf: Interpreter._ev_addrof,
    E.StartOf: Interpreter._ev_startof,
}

_INT_OPS = {
    E.BinopKind.ADD: lambda x, y: x + y,
    E.BinopKind.SUB: lambda x, y: x - y,
    E.BinopKind.MUL: lambda x, y: x * y,
    E.BinopKind.DIV: lambda x, y: int(x / y),
    E.BinopKind.MOD: lambda x, y: x - int(x / y) * y,
    # Mask shift amounts at the widest supported width (64 bits);
    # shifting a 32-bit value by >= 32 is UB in C, and 64-bit operands
    # legitimately shift by up to 63.
    E.BinopKind.SHL: lambda x, y: x << (y & 63),
    E.BinopKind.SHR: lambda x, y: x >> (y & 63),
    E.BinopKind.BAND: lambda x, y: x & y,
    E.BinopKind.BOR: lambda x, y: x | y,
    E.BinopKind.BXOR: lambda x, y: x ^ y,
}

_FLOAT_OPS = {
    E.BinopKind.ADD: lambda x, y: x + y,
    E.BinopKind.SUB: lambda x, y: x - y,
    E.BinopKind.MUL: lambda x, y: x * y,
    E.BinopKind.DIV: lambda x, y: x / y,
}

_CMP_OPS = {
    E.BinopKind.LT: lambda x, y: x < y,
    E.BinopKind.GT: lambda x, y: x > y,
    E.BinopKind.LE: lambda x, y: x <= y,
    E.BinopKind.GE: lambda x, y: x >= y,
    E.BinopKind.EQ: lambda x, y: x == y,
    E.BinopKind.NE: lambda x, y: x != y,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_cured(cured: CuredProgram,
              args: Optional[Sequence[str]] = None,
              stdin: str = "",
              max_steps: int = 50_000_000,
              engine: str = "closures",
              stdout_limit: int = 4_000_000,
              deadline: Optional[float] = None,
              detect_uninit: bool = False,
              site_hits: Optional[dict] = None,
              reuse_freed: bool = False) -> ExecResult:
    """Execute a cured program with all run-time checks active.

    ``site_hits`` (a mutable mapping, typically a ``Counter``) makes
    both engines count executions per check site into it."""
    ip = Interpreter(cured.prog, cured=cured, stdin=stdin,
                     max_steps=max_steps, engine=engine,
                     stdout_limit=stdout_limit, deadline=deadline,
                     detect_uninit=detect_uninit,
                     site_hits=site_hits, reuse_freed=reuse_freed)
    return ip.run(args)


def run_raw(prog: Program,
            args: Optional[Sequence[str]] = None,
            stdin: str = "",
            shadow: Optional["ShadowChecker"] = None,
            max_steps: int = 50_000_000,
            engine: str = "closures",
            stdout_limit: int = 4_000_000,
            deadline: Optional[float] = None,
            reuse_freed: bool = False) -> ExecResult:
    """Execute the uninstrumented program (hardware semantics),
    optionally under a shadow-memory checker (the baselines)."""
    ip = Interpreter(prog, cured=None, shadow=shadow, stdin=stdin,
                     max_steps=max_steps, engine=engine,
                     stdout_limit=stdout_limit, deadline=deadline,
                     reuse_freed=reuse_freed)
    return ip.run(args)

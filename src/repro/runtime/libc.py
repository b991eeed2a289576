"""Builtin C library functions and their CCured wrappers.

Every entry here plays two roles, matching Section 4.1 of the paper:

* in **raw** mode it behaves exactly like the uninstrumented library
  routine — ``strcpy`` copies until NUL no matter what it overwrites
  (this is what makes the exploit demos corrupt memory);
* in **cured** mode it behaves like CCured's *wrapper* for the routine:
  it first validates the assumptions the library relies on (``strcpy``
  checks that the destination has room for the source, ``strchr``'s
  wrapper runs ``__verify_nul`` — the exact example of Figure 3), and
  rebuilds fat pointers for results (``__mkptr``), so the wrapper cost
  is paid but memory safety is preserved.

The functions receive the interpreter (``ip``) and evaluated argument
values; they use the interpreter's helper API (``read_cstring``,
``heap_alloc``, ``bounds_of`` …) rather than touching memory directly.

A few entries (``gethostbyname``, ``recvmsg`` …) are flagged *raw
library* functions: they have **no** wrapper, they read and write plain
C layouts, and in cured mode the call is only legal if the pointed-to
data needs no interleaved metadata (i.e. is SPLIT or metadata-free) —
reproducing the compatibility story of Section 4.2.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.checks import (BoundsError, NullDereferenceError,
                                  ProgramAbort, ProgramExit)
from repro.runtime.memory import PtrMeta
from repro.runtime.values import NULL, PtrVal

BuiltinImpl = Callable[..., object]

BUILTINS: dict[str, BuiltinImpl] = {}
#: library functions with no wrapper: only split/metadata-free data may
#: cross (Section 4.2).
RAW_LIBRARY: set[str] = set()


def builtin(name: str, raw_library: bool = False):
    def deco(fn: BuiltinImpl) -> BuiltinImpl:
        BUILTINS[name] = fn
        if raw_library:
            RAW_LIBRARY.add(name)
        return fn
    return deco


def _as_int(v: object) -> int:
    if isinstance(v, PtrVal):
        return v.addr
    if isinstance(v, float):
        return int(v)
    assert isinstance(v, int)
    return v


def _as_ptr(v: object) -> PtrVal:
    if isinstance(v, PtrVal):
        return v
    return PtrVal(_as_int(v))


def _heap_ptr(ip, home) -> PtrVal:
    """The fat pointer an allocator returns for ``home``.  Under
    temporal checking it carries the home's lock value as its key."""
    return PtrVal(home.base, b=home.base, e=home.base + home.size,
                  key=home.lock_key if ip.temporal else None)


# ---------------------------------------------------------------------------
# stdlib.h
# ---------------------------------------------------------------------------

@builtin("malloc")
def _malloc(ip, size: object) -> PtrVal:
    n = _as_int(size)
    if n < 0:
        raise BoundsError(f"malloc of negative size {n}")
    home = ip.heap_alloc(max(n, 1), "malloc")
    return _heap_ptr(ip, home)


@builtin("calloc")
def _calloc(ip, nmemb: object, size: object) -> PtrVal:
    n = _as_int(nmemb) * _as_int(size)
    home = ip.heap_alloc(max(n, 1), "calloc")
    return _heap_ptr(ip, home)


@builtin("realloc")
def _realloc(ip, p: object, size: object) -> PtrVal:
    old = _as_ptr(p)
    n = max(_as_int(size), 1)
    home = ip.heap_alloc(n, "realloc")
    if not old.is_null:
        old_home = ip.mem.home_of(old.addr)
        if old_home is not None:
            take = min(old_home.end - old.addr, n)
            data = ip.mem.read_raw(old.addr, take)
            ip.mem.write_raw(home.base, data)
            # Migrate the shadow metadata of the copied prefix.  Copy
            # each PtrMeta (not the reference): freeing the old home
            # clears its map, and under reuse_freed the old dicts get
            # repopulated by the address's next tenant.  Stored keys
            # migrate verbatim — they lock *other* homes, which the
            # realloc does not touch.
            for off, m in list(old_home.meta.items()):
                rel = off - (old.addr - old_home.base)
                if 0 <= rel < take:
                    home.meta[rel] = PtrMeta(m.b, m.e, m.rtti, m.key)
            # the effective-type brand travels with the object
            home.dynamic_rtti = old_home.dynamic_rtti
            ip.heap_free(old)
    return _heap_ptr(ip, home)


@builtin("free")
def _free(ip, p: object) -> None:
    """C semantics: ``free(NULL)`` is a no-op; in cured mode
    ``heap_free`` raises :class:`InvalidFreeError` for a pointer that
    is not the start of a heap block and :class:`DoubleFreeError` for
    a block already freed (with or without ``temporal``)."""
    v = _as_ptr(p)
    if not v.is_null:
        ip.heap_free(v)


@builtin("exit")
def _exit(ip, status: object) -> None:
    raise ProgramExit(_as_int(status))


@builtin("abort")
def _abort(ip) -> None:
    raise ProgramAbort("abort() called")


@builtin("__assert_fail")
def _assert_fail(ip, msg: object) -> None:
    text = ip.read_cstring(_as_ptr(msg)) if isinstance(
        msg, PtrVal) else "assertion failed"
    raise ProgramAbort(text)


@builtin("atoi")
def _atoi(ip, s: object) -> int:
    text = ip.read_cstring(_as_ptr(s))
    text = text.strip()
    sign = 1
    if text[:1] in "+-":
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    for ch in text:
        if ch.isdigit():
            digits += ch
        else:
            break
    return sign * int(digits) if digits else 0


@builtin("atol")
def _atol(ip, s: object) -> int:
    return _atoi(ip, s)


@builtin("abs")
def _abs(ip, v: object) -> int:
    return abs(_as_int(v))


@builtin("rand")
def _rand(ip) -> int:
    # Deterministic LCG (glibc constants) for reproducible benchmarks.
    ip.rand_state = (ip.rand_state * 1103515245 + 12345) & 0x7FFFFFFF
    return ip.rand_state


@builtin("srand")
def _srand(ip, seed: object) -> None:
    ip.rand_state = _as_int(seed) & 0x7FFFFFFF


@builtin("qsort")
def _qsort(ip, base: object, nmemb: object, size: object,
           compar: object) -> None:
    bp = _as_ptr(base)
    n = _as_int(nmemb)
    sz = _as_int(size)
    if n <= 1:
        return
    if ip.cured:
        ip.verify_size(bp, n * sz, "qsort")
    elems = [ip.mem.read_raw(bp.addr + i * sz, sz) for i in range(n)]
    metas = []
    home = ip.mem.home_of(bp.addr)
    for i in range(n):
        base_off = bp.addr - home.base + i * sz if home else 0
        metas.append({off - base_off: m
                      for off, m in (home.meta.items() if home else [])
                      if base_off <= off < base_off + sz})
    # scratch homes to hand element pointers to the comparator
    import functools

    scratch_a = ip.heap_alloc(sz, "qsort.a")
    scratch_b = ip.heap_alloc(sz, "qsort.b")

    def cmp(ia: int, ib: int) -> int:
        ip.mem.write_raw(scratch_a.base, elems[ia])
        ip.mem.write_raw(scratch_b.base, elems[ib])
        scratch_a.meta.clear()
        scratch_a.meta.update(metas[ia])
        scratch_b.meta.clear()
        scratch_b.meta.update(metas[ib])
        pa = PtrVal(scratch_a.base, b=scratch_a.base,
                    e=scratch_a.base + sz)
        pb = PtrVal(scratch_b.base, b=scratch_b.base,
                    e=scratch_b.base + sz)
        return _as_int(ip.call_function_value(_as_ptr(compar),
                                              [pa, pb]))

    order = sorted(range(n), key=functools.cmp_to_key(cmp))
    if home is not None:
        base_off0 = bp.addr - home.base
        for off in [o for o in home.meta
                    if base_off0 <= o < base_off0 + n * sz]:
            del home.meta[off]
    for i, src in enumerate(order):
        ip.mem.write_raw(bp.addr + i * sz, elems[src])
        if home is not None:
            for rel, m in metas[src].items():
                home.meta[bp.addr - home.base + i * sz + rel] = m


# ---------------------------------------------------------------------------
# string.h
# ---------------------------------------------------------------------------

@builtin("strlen")
def _strlen(ip, s: object) -> int:
    return len(ip.read_cstring(_as_ptr(s)))


@builtin("strcpy")
def _strcpy(ip, dest: object, src: object) -> PtrVal:
    d, s = _as_ptr(dest), _as_ptr(src)
    text = ip.read_cstring(s)
    if ip.cured:
        ip.verify_size(d, len(text) + 1, "strcpy")
    ip.write_cstring(d, text)
    return d


@builtin("strncpy")
def _strncpy(ip, dest: object, src: object, n: object) -> PtrVal:
    d, s = _as_ptr(dest), _as_ptr(src)
    limit = _as_int(n)
    text = ip.read_cstring(s)[:limit]
    if ip.cured:
        ip.verify_size(d, limit, "strncpy")
    padded = text + "\0" * (limit - len(text))
    ip.mem.write_raw(d.addr, padded.encode("latin-1"))
    return d


@builtin("strcat")
def _strcat(ip, dest: object, src: object) -> PtrVal:
    d, s = _as_ptr(dest), _as_ptr(src)
    old = ip.read_cstring(d)
    add = ip.read_cstring(s)
    if ip.cured:
        ip.verify_size(d, len(old) + len(add) + 1, "strcat")
    ip.write_cstring(d.with_addr(d.addr + len(old)), add)
    return d


@builtin("strncat")
def _strncat(ip, dest: object, src: object, n: object) -> PtrVal:
    d, s = _as_ptr(dest), _as_ptr(src)
    old = ip.read_cstring(d)
    add = ip.read_cstring(s)[:_as_int(n)]
    if ip.cured:
        ip.verify_size(d, len(old) + len(add) + 1, "strncat")
    ip.write_cstring(d.with_addr(d.addr + len(old)), add)
    return d


@builtin("strcmp")
def _strcmp(ip, a: object, b: object) -> int:
    x = ip.read_cstring(_as_ptr(a))
    y = ip.read_cstring(_as_ptr(b))
    return (x > y) - (x < y)


@builtin("strncmp")
def _strncmp(ip, a: object, b: object, n: object) -> int:
    limit = _as_int(n)
    x = ip.read_cstring(_as_ptr(a))[:limit]
    y = ip.read_cstring(_as_ptr(b))[:limit]
    return (x > y) - (x < y)


@builtin("strchr")
def _strchr(ip, s: object, c: object) -> PtrVal:
    # The wrapper of Figure 3: __verify_nul, call, __mkptr.
    p = _as_ptr(s)
    text = ip.read_cstring(p)  # performs __verify_nul in cured mode
    ch = chr(_as_int(c) & 0xFF)
    idx = text.find(ch) if ch != "\0" else len(text)
    if idx < 0:
        return NULL
    return p.with_addr(p.addr + idx)  # __mkptr(result, str)


@builtin("strrchr")
def _strrchr(ip, s: object, c: object) -> PtrVal:
    p = _as_ptr(s)
    text = ip.read_cstring(p)
    ch = chr(_as_int(c) & 0xFF)
    idx = text.rfind(ch) if ch != "\0" else len(text)
    if idx < 0:
        return NULL
    return p.with_addr(p.addr + idx)


@builtin("strstr")
def _strstr(ip, hay: object, needle: object) -> PtrVal:
    h = _as_ptr(hay)
    text = ip.read_cstring(h)
    sub = ip.read_cstring(_as_ptr(needle))
    idx = text.find(sub)
    if idx < 0:
        return NULL
    return h.with_addr(h.addr + idx)


@builtin("strdup")
def _strdup(ip, s: object) -> PtrVal:
    text = ip.read_cstring(_as_ptr(s))
    home = ip.heap_alloc(len(text) + 1, "strdup")
    ip.mem.write_raw(home.base, text.encode("latin-1") + b"\0")
    return _heap_ptr(ip, home)


@builtin("memcpy")
def _memcpy(ip, dest: object, src: object, n: object) -> PtrVal:
    d, s = _as_ptr(dest), _as_ptr(src)
    count = _as_int(n)
    if count <= 0:
        return d
    if ip.cured:
        ip.verify_size(d, count, "memcpy dest")
        ip.verify_size(s, count, "memcpy src")
    data = ip.mem.read_raw(s.addr, count)
    ip.mem.write_raw(d.addr, data)
    # move shadow metadata along with the bytes
    sh = ip.mem.home_of(s.addr)
    dh = ip.mem.home_of(d.addr)
    if sh is not None and dh is not None:
        s0 = s.addr - sh.base
        d0 = d.addr - dh.base
        for off, m in list(sh.meta.items()):
            if s0 <= off < s0 + count:
                dh.meta[d0 + (off - s0)] = m
    return d


@builtin("memmove")
def _memmove(ip, dest: object, src: object, n: object) -> PtrVal:
    return _memcpy(ip, dest, src, n)


@builtin("memset")
def _memset(ip, s: object, c: object, n: object) -> PtrVal:
    p = _as_ptr(s)
    count = _as_int(n)
    if count <= 0:
        return p
    if ip.cured:
        ip.verify_size(p, count, "memset")
    ip.mem.write_raw(p.addr, bytes([_as_int(c) & 0xFF]) * count)
    return p


@builtin("memcmp")
def _memcmp(ip, a: object, b: object, n: object) -> int:
    count = _as_int(n)
    if count <= 0:
        return 0
    pa, pb = _as_ptr(a), _as_ptr(b)
    if ip.cured:
        ip.verify_size(pa, count, "memcmp")
        ip.verify_size(pb, count, "memcmp")
    x = ip.mem.read_raw(pa.addr, count)
    y = ip.mem.read_raw(pb.addr, count)
    return (x > y) - (x < y)


# ---------------------------------------------------------------------------
# stdio.h
# ---------------------------------------------------------------------------

def _format(ip, fmt: str, args: list[object]) -> str:
    out = []
    ai = 0
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        j = i + 1
        # flags/width/precision
        while j < n and (fmt[j] in "-+ #0." or fmt[j].isdigit()):
            j += 1
        length = ""
        while j < n and fmt[j] in "hlLzq":
            length += fmt[j]
            j += 1
        if j >= n:
            out.append("%")
            break
        conv = fmt[j]
        spec = fmt[i:j + 1].replace(length, "")
        if conv == "%":
            out.append("%")
        else:
            arg = args[ai] if ai < len(args) else 0
            ai += 1
            if conv in "dioubxX":
                pyconv = {"i": "d", "u": "d", "b": "d"}.get(conv, conv)
                v = _as_int(arg)
                if conv == "u" and v < 0:
                    v &= 0xFFFFFFFF
                out.append(("%" + spec[1:-1] + pyconv) % v)
            elif conv in "eEfgG":
                v = arg if isinstance(arg, float) else float(
                    _as_int(arg))
                out.append(("%" + spec[1:-1] + conv) % v)
            elif conv == "c":
                out.append(chr(_as_int(arg) & 0xFF))
            elif conv == "s":
                out.append(ip.read_cstring(_as_ptr(arg)))
            elif conv == "p":
                out.append(f"0x{_as_int(arg):x}")
            else:
                out.append(spec)
        i = j + 1
    return "".join(out)


def _io(ip, nbytes: int = 0) -> None:
    """Count one I/O operation and the whole quarter-words (4-byte
    units) it moves: cost.py prices the simulated kernel/device
    latency, and dilates it under a shadow tool."""
    events = ip.cost.events
    events["io"] += 1
    events["io_quarter"] += nbytes >> 2


@builtin("printf")
def _printf(ip, fmt: object, *args: object) -> int:
    text = _format(ip, ip.read_cstring(_as_ptr(fmt)), list(args))
    ip.write_stdout(text)
    _io(ip, len(text))
    return len(text)


@builtin("fprintf")
def _fprintf(ip, stream: object, fmt: object, *args: object) -> int:
    text = _format(ip, ip.read_cstring(_as_ptr(fmt)), list(args))
    ip.write_stdout(text)
    _io(ip, len(text))
    return len(text)


@builtin("sprintf")
def _sprintf(ip, dest: object, fmt: object, *args: object) -> int:
    d = _as_ptr(dest)
    text = _format(ip, ip.read_cstring(_as_ptr(fmt)), list(args))
    if ip.cured:
        ip.verify_size(d, len(text) + 1, "sprintf")
    ip.write_cstring(d, text)
    return len(text)


@builtin("snprintf")
def _snprintf(ip, dest: object, size: object, fmt: object,
              *args: object) -> int:
    d = _as_ptr(dest)
    limit = _as_int(size)
    text = _format(ip, ip.read_cstring(_as_ptr(fmt)), list(args))
    if limit > 0:
        clipped = text[:limit - 1]
        if ip.cured:
            ip.verify_size(d, len(clipped) + 1, "snprintf")
        ip.write_cstring(d, clipped)
    return len(text)


@builtin("puts")
def _puts(ip, s: object) -> int:
    text = ip.read_cstring(_as_ptr(s))
    ip.write_stdout(text + "\n")
    _io(ip, len(text) + 1)
    return len(text) + 1


@builtin("putchar")
def _putchar(ip, c: object) -> int:
    ip.write_stdout(chr(_as_int(c) & 0xFF))
    _io(ip, 1)
    return _as_int(c)


@builtin("getchar")
def _getchar(ip) -> int:
    _io(ip, 1)
    return ip.read_stdin_char()


@builtin("fgets")
def _fgets(ip, s: object, size: object, stream: object) -> PtrVal:
    p = _as_ptr(s)
    limit = _as_int(size)
    line = ip.read_stdin_line(limit - 1)
    _io(ip, len(line) if line else 0)
    if line is None:
        return NULL
    if ip.cured:
        ip.verify_size(p, len(line) + 1, "fgets")
    ip.write_cstring(p, line)
    return p


# ---------------------------------------------------------------------------
# ccured.h helpers (usable directly from user code and wrappers)
# ---------------------------------------------------------------------------

@builtin("__ptrof")
def _ptrof(ip, p: object) -> PtrVal:
    """Strip metadata: the one-word library view of a pointer."""
    v = _as_ptr(p)
    return PtrVal(v.addr)


@builtin("__mkptr")
def _mkptr(ip, p: object, home: object) -> PtrVal:
    """Rebuild a fat pointer for ``p`` using ``home``'s metadata."""
    v, h = _as_ptr(p), _as_ptr(home)
    return PtrVal(v.addr, b=h.b, e=h.e, rtti=h.rtti)


@builtin("__verify_nul")
def _verify_nul(ip, s: object) -> None:
    ip.read_cstring(_as_ptr(s))


@builtin("__verify_size")
def _verify_size(ip, p: object, n: object) -> None:
    if ip.cured:
        ip.verify_size(_as_ptr(p), _as_int(n), "__verify_size")


@builtin("__ccured_length")
def _ccured_length(ip, p: object) -> int:
    v = _as_ptr(p)
    home = ip.mem.home_of(v.addr)
    if home is None:
        return 0
    return home.end - v.addr


@builtin("__io_write")
def _io_write(ip, buf: object, n: object) -> int:
    """Simulated device/network write: the program hands ``n`` bytes
    to the kernel.  Workloads use this to model the I/O their real
    counterparts perform (responses on a socket, DMA to a NIC, sectors
    to a disk) so that I/O-bound subjects show the paper's ~1.0x
    CCured ratios."""
    count = _as_int(n)
    p = _as_ptr(buf)
    if ip.cured and not p.is_null and count > 0:
        ip.verify_size(p, min(count, 1), "__io_write")
    _io(ip, count)
    return count


@builtin("__trusted_cast")
def _trusted_cast(ip, p: object) -> object:
    return p


# ---------------------------------------------------------------------------
# "Complicated interface" library functions with no wrappers.
# These exercise the compatible (SPLIT) representation of Section 4.2:
# they produce/consume nested pointer structures in plain C layout.
# ---------------------------------------------------------------------------

@builtin("gethostbyname", raw_library=True)
def _gethostbyname(ip, name: object) -> PtrVal:
    """Returns a ``struct hostent*`` built in plain C layout, exactly
    as an uninstrumented resolver library would (paper Section 4.2)."""
    hostname = ip.read_cstring(_as_ptr(name))
    # struct hostent { char *h_name; char **h_aliases; int h_addrtype; }
    name_home = ip.heap_alloc(len(hostname) + 1, "hostent.name")
    ip.mem.write_raw(name_home.base,
                     hostname.encode("latin-1") + b"\0")
    aliases = [f"{hostname}.alias{i}" for i in range(2)]
    alias_homes = []
    for a in aliases:
        ah = ip.heap_alloc(len(a) + 1, "hostent.alias")
        ip.mem.write_raw(ah.base, a.encode("latin-1") + b"\0")
        alias_homes.append(ah)
    arr = ip.heap_alloc(4 * (len(aliases) + 1), "hostent.aliases")
    for i, ah in enumerate(alias_homes):
        # plain C layout: raw addresses, no shadow metadata
        ip.mem.write_raw(arr.base + 4 * i,
                         ah.base.to_bytes(4, "little"))
    he = ip.heap_alloc(12, "hostent")
    ip.mem.write_raw(he.base, name_home.base.to_bytes(4, "little"))
    ip.mem.write_raw(he.base + 4, arr.base.to_bytes(4, "little"))
    ip.mem.write_raw(he.base + 8, (2).to_bytes(4, "little"))  # AF_INET
    return _heap_ptr(ip, he)


@builtin("recvmsg", raw_library=True)
def _recvmsg(ip, sock: object, buf: object, n: object) -> int:
    """Fill a plain character buffer, like the kernel would."""
    _io(ip, _as_int(n))
    p = _as_ptr(buf)
    count = min(_as_int(n), 64)
    payload = (b"payload:" + bytes(
        [65 + (i % 26) for i in range(count)]))[:count]
    if ip.cured:
        ip.verify_size(p, count, "recvmsg")
    ip.mem.write_raw(p.addr, payload)
    return count


@builtin("sendmsg", raw_library=True)
def _sendmsg(ip, sock: object, msg: object, flags: object) -> int:
    """Consume a nested message structure in plain C layout."""
    v = _as_ptr(msg)
    _io(ip, 64)
    if v.is_null:
        raise NullDereferenceError("sendmsg(NULL)")
    # read struct msghdr { void *base; int len; } and the buffer
    base, _ = ip.mem.read_ptr(v.addr)
    ln = ip.mem.read_int(v.addr + 4, 4, True)
    if base and ln > 0:
        ip.mem.read_raw(base, min(ln, 4096))
    return max(ln, 0)

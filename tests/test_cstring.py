"""The C-string scanner (``Interpreter.read_cstring``) against the
per-byte scan it replaced.

The reference below is the scanner as it was: cured mode copies the
rest of the home and searches it, raw mode fetches every byte through
its own ``Memory.read_raw`` and reports it to a shadow tool before
looking at the next.  The production scanner searches one home at a
time; these tests require the same text, the same exception (type and
message) and the same shadow-tool calls in the same order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import PurifyChecker, ValgrindChecker
from repro.bench import pristine_parse
from repro.core import cure
from repro.frontend import parse_program
from repro.interp import Interpreter, run_raw
from repro.runtime.checks import (BoundsError, DanglingPointerError,
                                  NullDereferenceError, attach_failure)
from repro.runtime.memory import Memory
from repro.runtime.values import PtrVal
from repro.workloads import get

_MAIN = "int main(void) { return 0; }"


def reference_read_cstring(self, p, limit=1 << 20):
    """The per-byte scanner, kept verbatim as the oracle."""
    if p.is_null:
        raise attach_failure(
            NullDereferenceError("string is NULL"),
            check="CHECK_VERIFY_NUL",
            function=self._current_function())
    if self.cured:
        home = self.mem.home_of(p.addr)
        if home is None:
            raise attach_failure(
                DanglingPointerError(
                    f"string pointer 0x{p.addr:x} not in any "
                    f"object"),
                check="CHECK_VERIFY_NUL",
                function=self._current_function())
        end = home.end
        if p.e is not None:
            end = min(end, p.e)
        raw = self.mem.read_raw(p.addr, end - p.addr)
        idx = raw.find(b"\0")
        if idx < 0:
            raise attach_failure(
                BoundsError(
                    "__verify_nul: string not NUL-terminated "
                    "within bounds"),
                check="CHECK_VERIFY_NUL",
                function=self._current_function())
        if self.shadow is not None:
            self.shadow.on_read(p.addr, idx + 1)
        return raw[:idx].decode("latin-1")
    out = bytearray()
    addr = p.addr
    for _ in range(limit):
        b = self.mem.read_raw(addr, 1)
        if self.shadow is not None:
            self.shadow.on_read(addr, 1)
        if b == b"\0":
            return out.decode("latin-1")
        out += b
        addr += 1
    raise attach_failure(
        BoundsError(
            f"string not NUL-terminated within {limit} bytes"),
        check="CHECK_VERIFY_NUL",
        function=self._current_function())


class _Recorder:
    """A shadow tool that only records its read hooks."""

    def __init__(self):
        self.reads = []

    def on_read(self, addr, size):
        self.reads.append((addr, size))


def _outcome(scan, ip, p, limit):
    ip.shadow = _Recorder()
    try:
        got = ("text", scan(ip, p, limit))
    except Exception as exc:  # the exception *is* the outcome
        got = (type(exc).__name__, str(exc))
    return got, ip.shadow.reads


_byte = st.sampled_from([0, 0x20, 0x41, 0x61, 0x7a, 0xc9, 0xff])

#: one home: its bytes (mostly non-NUL), whether a gap of unmapped
#: bytes follows it, and whether it is freed.  Whole words pack homes
#: back to back; other sizes leave an alignment hole behind them.
_homes = st.lists(
    st.tuples(st.one_of(st.lists(_byte, min_size=4, max_size=4),
                        st.lists(_byte, min_size=8, max_size=8),
                        st.lists(_byte, min_size=1, max_size=10)),
              st.booleans(), st.booleans()),
    min_size=1, max_size=6)


def _layout(ip, homes):
    ip.mem = mem = Memory(gap_regions=set())
    placed = []
    for data, gap_after, freed in homes:
        if gap_after:
            mem.gap_regions.add("heap")
        h = mem.alloc(len(data), "heap")
        mem.gap_regions.discard("heap")
        h.data[:] = bytes(data)
        if freed:
            mem.free(h)
        placed.append(h)
    return placed


@pytest.mark.parametrize("mode", ("raw", "cured"))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(homes=_homes, which=st.integers(0, 5), start=st.integers(0, 11),
       limit=st.integers(0, 40),
       end=st.one_of(st.none(), st.integers(-4, 40)))
def test_scanner_matches_reference(mode, homes, which, start, limit,
                                   end):
    if mode == "cured":
        cured = cure(_MAIN, name="s")
        ip = Interpreter(cured.prog, cured=cured)
    else:
        ip = Interpreter(parse_program(_MAIN, "s"))
    placed = _layout(ip, homes)
    # may start in a hole, or past the last home
    addr = placed[which % len(placed)].base + start
    p = PtrVal(addr, b=addr, e=None if end is None else addr + end)
    assert _outcome(Interpreter.read_cstring, ip, p, limit) == \
        _outcome(reference_read_cstring, ip, p, limit)


@pytest.mark.parametrize("tool", (PurifyChecker, ValgrindChecker),
                         ids=("purify", "valgrind"))
@pytest.mark.parametrize("name", ("apache_urlcount", "apache_headers",
                                  "ptrdist_anagram"))
def test_shadow_tools_see_the_reference_scan(name, tool, monkeypatch):
    w = get(name)
    prog = pristine_parse(w)

    def measure():
        shadow = tool()
        try:
            res = run_raw(prog, args=list(w.args) or None,
                          stdin=w.stdin, shadow=shadow)
            got = (res.status, res.stdout, res.cycles, res.steps)
        except Exception as exc:
            got = (type(exc).__name__, str(exc))
        return got, shadow.errors_reported, shadow.reads, shadow.writes

    fast = measure()
    monkeypatch.setattr(Interpreter, "read_cstring",
                        reference_read_cstring)
    assert measure() == fast

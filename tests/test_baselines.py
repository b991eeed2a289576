"""Tests for the Purify-like and Valgrind-like baseline checkers:
what they catch, what they miss, and their overhead shape versus
CCured (the comparison underpinning Section 5 of the paper)."""

import re

import pytest

from helpers import cure_src

from repro.baselines import (BaselineViolation, PurifyChecker,
                             ValgrindChecker)
from repro.frontend import parse_program
from repro.interp import ENGINES, run_cured, run_raw
from repro.runtime.checks import MemorySafetyError

HEAP_OVERRUN = """
#include <stdlib.h>
int main(void) {
  int *a = (int *)malloc(4 * sizeof(int));
  a[5] = 1;
  return 0;
}
"""

USE_AFTER_FREE = """
#include <stdlib.h>
int main(void) {
  int *p = (int *)malloc(sizeof(int));
  *p = 3;
  free(p);
  return *p;
}
"""

STACK_OOB = """
int main(void) {
  int a[4];
  int b[4];
  int i = 5;
  a[i] = 99;      /* lands inside b */
  return b[0] >= 0 ? 0 : 0;
}
"""

INTER_OBJECT = """
#include <stdlib.h>
int main(void) {
  int *a = (int *)malloc(16);
  int *b = (int *)malloc(16);
  /* pointer arithmetic that lands inside the *other* block */
  int diff = (int)(b - a);
  a[diff] = 7;    /* writes b[0]: both tools think it is fine */
  return 0;
}
"""

DOUBLE_FREE = """
#include <stdlib.h>
int main(void) {
  int *p = (int *)malloc(4);
  free(p);
  free(p);
  return 0;
}
"""

CLEAN = """
#include <stdlib.h>
int main(void) {
  int i, s = 0;
  int *a = (int *)malloc(64 * sizeof(int));
  for (i = 0; i < 64; i++) a[i] = i;
  for (i = 0; i < 64; i++) s += a[i];
  free(a);
  return s % 251;
}
"""


@pytest.mark.parametrize("tool", [PurifyChecker, ValgrindChecker])
class TestDetection:
    def test_heap_overrun_caught(self, tool):
        with pytest.raises(BaselineViolation):
            run_raw(parse_program(HEAP_OVERRUN, "t"), shadow=tool())

    def test_use_after_free_caught(self, tool):
        with pytest.raises(BaselineViolation):
            run_raw(parse_program(USE_AFTER_FREE, "t"), shadow=tool())

    def test_double_free_caught(self, tool):
        with pytest.raises(BaselineViolation):
            run_raw(parse_program(DOUBLE_FREE, "t"), shadow=tool())

    def test_stack_oob_missed(self, tool):
        # The paper: "these other tools do not catch out-of-bounds
        # array indexing on stack-allocated arrays".
        res = run_raw(parse_program(STACK_OOB, "t"), shadow=tool())
        assert res.status == 0  # ran to completion, no report

    def test_inter_object_arith_missed(self, tool):
        # Jones/Kelly-style inter-region arithmetic: both tools accept
        # an access landing in another live block.
        res = run_raw(parse_program(INTER_OBJECT, "t"), shadow=tool())
        assert res.status == 0

    def test_clean_program_unaffected(self, tool):
        res = run_raw(parse_program(CLEAN, "t"), shadow=tool())
        assert res.status == sum(range(64)) % 251


PARTIAL_OVERRUN = """
#include <stdlib.h>
int main(void) {
  char *b = (char *)malloc(6);
  int *p = (int *)(b + 4);   /* bytes 4..7 of a 6-byte block */
  %s
  return 0;
}
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("access, what", [("return *p;", "read"),
                                          ("*p = 1;", "write")])
def test_partial_heap_overrun_names_the_access(access, what, engine):
    """An access that starts inside a heap block and runs past its end
    is reported as the read or write it is (Purify: ABR vs ABW)."""
    rw = "R" if what == "read" else "W"
    expected = {
        PurifyChecker: f"purify: AB{rw}: {what} overruns heap block "
                       "malloc",
        ValgrindChecker: f"valgrind: Invalid {what} of size 4: past "
                         "the end of malloc",
    }
    for tool, message in expected.items():
        shadow = tool()
        with pytest.raises(BaselineViolation) as exc:
            run_raw(parse_program(PARTIAL_OVERRUN % access, "t"),
                    shadow=shadow, engine=engine)
        assert str(exc.value) == message
        assert shadow.errors_reported == 1


NON_HEAP_FREE = """
#include <stdlib.h>
int g;
int main(void) {
  free(&g);
  return 0;
}
"""

INTERIOR_FREE = """
#include <stdlib.h>
int main(void) {
  int *p = (int *)malloc(4 * sizeof(int));
  p[0] = 1;
  free(p + 2);
  return p[0];
}
"""

INVALID_FREE_MESSAGES = {
    (NON_HEAP_FREE, PurifyChecker):
        r"purify: FNH: freeing non-heap memory at 0x[0-9a-f]+",
    (NON_HEAP_FREE, ValgrindChecker):
        r"valgrind: Invalid free\(\) of 0x[0-9a-f]+: not malloc'd",
    (INTERIOR_FREE, PurifyChecker):
        r"purify: FIM: freeing invalid memory at 0x[0-9a-f]+ inside "
        r"heap block malloc",
    (INTERIOR_FREE, ValgrindChecker):
        r"valgrind: Invalid free\(\) of 0x[0-9a-f]+: inside malloc, "
        r"not its start",
    (DOUBLE_FREE, PurifyChecker):
        r"purify: FUM: freeing unallocated memory at 0x[0-9a-f]+: heap "
        r"block malloc was freed",
    (DOUBLE_FREE, ValgrindChecker):
        r"valgrind: Invalid free\(\) of 0x[0-9a-f]+: malloc was freed",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("tool", [PurifyChecker, ValgrindChecker])
@pytest.mark.parametrize("src", [NON_HEAP_FREE, INTERIOR_FREE,
                                 DOUBLE_FREE],
                         ids=["non-heap", "interior", "double"])
def test_invalid_free_is_reported_at_the_free(src, tool, engine):
    """``free(&g)``, ``free(p + 2)`` and a second ``free(p)`` are each
    reported at the free, in the tool's own terms; the interior free
    does not mark the block freed, so the valid read after it is never
    blamed instead."""
    shadow = tool()
    with pytest.raises(BaselineViolation) as exc:
        run_raw(parse_program(src, "t"), shadow=shadow, engine=engine)
    assert re.fullmatch(INVALID_FREE_MESSAGES[src, tool],
                        str(exc.value))
    assert shadow.errors_reported == 1


class TestCCuredCatchesWhatTheyMiss:
    def test_stack_oob(self):
        with pytest.raises(MemorySafetyError):
            run_cured(cure_src(STACK_OOB))

    def test_inter_object_arith(self):
        with pytest.raises(MemorySafetyError):
            run_cured(cure_src(INTER_OBJECT))


class TestOverheadShape:
    def test_ordering_raw_ccured_tools(self):
        """The paper's headline: CCured is far cheaper than Purify and
        Valgrind; all are slower than raw."""
        raw = run_raw(parse_program(CLEAN, "r"))
        cured = run_cured(cure_src(CLEAN))
        pur = run_raw(parse_program(CLEAN, "p"),
                      shadow=PurifyChecker())
        val = run_raw(parse_program(CLEAN, "v"),
                      shadow=ValgrindChecker())
        assert raw.cycles < cured.cycles
        assert cured.cycles * 3 < pur.cycles
        assert cured.cycles * 3 < val.cycles

    def test_ccured_overhead_moderate(self):
        raw = run_raw(parse_program(CLEAN, "r"))
        cured = run_cured(cure_src(CLEAN))
        ratio = cured.cycles / raw.cycles
        assert 1.0 < ratio < 3.5  # the paper's worst case is ~2.2x

    def test_tool_overheads_in_published_band(self):
        raw = run_raw(parse_program(CLEAN, "r"))
        pur = run_raw(parse_program(CLEAN, "p"),
                      shadow=PurifyChecker())
        val = run_raw(parse_program(CLEAN, "v"),
                      shadow=ValgrindChecker())
        assert 9 <= pur.cycles / raw.cycles <= 130
        assert 9 <= val.cycles / raw.cycles <= 130

    def test_deterministic_cycles(self):
        a = run_raw(parse_program(CLEAN, "a"), shadow=PurifyChecker())
        b = run_raw(parse_program(CLEAN, "b"), shadow=PurifyChecker())
        assert a.cycles == b.cycles

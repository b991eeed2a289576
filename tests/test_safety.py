"""Safety tests: every class of memory error must be caught by the
cured program — the memory-safety guarantee of the paper.

Each test also documents what the *uncured* program does (silent
corruption or a hardware fault), which is the contrast the paper's
security argument rests on.
"""

import pytest

from helpers import cure_src

from repro.core import CureOptions, cure
from repro.frontend import parse_program
from repro.interp import run_cured, run_raw
from repro.runtime.checks import (BoundsError, CompatibilityError,
                                  DanglingPointerError,
                                  MemorySafetyError,
                                  NullDereferenceError, ProgramAbort,
                                  RttiCastError, SegmentationFault,
                                  StackEscapeError, WildTagError)


def assert_caught(src: str, exc=MemorySafetyError, **opts):
    cured = cure_src(src, **opts)
    with pytest.raises(exc):
        run_cured(cured)
    return cured


class TestNullChecks:
    def test_null_safe_deref(self):
        assert_caught("""
        int main(void) { int *p = 0; return *p; }
        """, NullDereferenceError)

    def test_null_through_function(self):
        assert_caught("""
        int get(int *p) { return *p; }
        int main(void) { return get(0); }
        """, NullDereferenceError)

    def test_null_struct_member(self):
        assert_caught("""
        struct s { int v; };
        int main(void) { struct s *p = 0; return p->v; }
        """, NullDereferenceError)

    def test_null_function_pointer(self):
        assert_caught("""
        int main(void) {
          int (*fp)(int) = 0;
          return fp(1);
        }
        """, NullDereferenceError)

    def test_null_write(self):
        assert_caught("""
        int main(void) { int *p = 0; *p = 1; return 0; }
        """, NullDereferenceError)


class TestBoundsChecks:
    def test_seq_overrun_read(self):
        assert_caught("""
        int main(void) {
          int a[4];
          int *p = a;
          return p[4];
        }
        """, BoundsError)

    def test_seq_underrun(self):
        assert_caught("""
        int main(void) {
          int a[4];
          int *p = a;
          p = p - 1;
          return *p;
        }
        """, BoundsError)

    def test_heap_overrun_write(self):
        assert_caught("""
        #include <stdlib.h>
        int main(void) {
          int *a = (int *)malloc(4 * sizeof(int));
          a[4] = 1;
          return 0;
        }
        """, BoundsError)

    def test_off_by_one_loop(self):
        assert_caught("""
        int main(void) {
          int a[10];
          int i;
          int *p = a;
          for (i = 0; i <= 10; i++) p[i] = i;
          return 0;
        }
        """, BoundsError)

    def test_static_index_oob(self):
        assert_caught("""
        int main(void) { int a[4]; int i = 6; a[i] = 1; return 0; }
        """, BoundsError)

    def test_negative_index(self):
        assert_caught("""
        int main(void) { int a[4]; int i = -1; return a[i]; }
        """, BoundsError)

    def test_strcpy_overflow(self):
        assert_caught("""
        #include <string.h>
        int main(void) {
          char small[4];
          strcpy(small, "much too long");
          return 0;
        }
        """, BoundsError)

    def test_sprintf_overflow(self):
        assert_caught(r'''
        #include <stdio.h>
        int main(void) {
          char small[4];
          sprintf(small, "%d-%d-%d", 100, 200, 300);
          return 0;
        }
        ''', BoundsError)

    def test_memcpy_overflow(self):
        assert_caught("""
        #include <string.h>
        int main(void) {
          char src[16];
          char dst[8];
          memcpy(dst, src, 16);
          return 0;
        }
        """, BoundsError)

    def test_string_not_terminated(self):
        assert_caught("""
        #include <string.h>
        int main(void) {
          char raw[4];
          raw[0] = 'a'; raw[1] = 'b'; raw[2] = 'c'; raw[3] = 'd';
          return (int)strlen(raw);  /* no NUL within bounds */
        }
        """, BoundsError)

    def test_in_bounds_boundary_access_allowed(self):
        c = cure_src("""
        int main(void) {
          int a[4];
          int *p = a;
          p[3] = 7;          /* last element: fine */
          int *q = a;
          q = q + 4;         /* one past the end: fine to form (SEQ) */
          return p[3] + (q - a == 4);
        }
        """)
        assert run_cured(c).status == 8

    def test_one_past_end_to_safe_traps(self):
        # Figure 10: a SAFE pointer is null or *valid*; converting a
        # one-past-the-end SEQ pointer to SAFE fails the SEQ->SAFE
        # check, exactly as in CCured.
        assert_caught("""
        int main(void) {
          int a[4];
          int *q = a + 4;   /* q is inferred SAFE: conversion traps */
          return q == a + 4;
        }
        """, MemorySafetyError)

    def test_pointer_diff_stays_legal(self):
        c = cure_src("""
        int main(void) {
          int a[8];
          int *p = a + 6;
          return (int)(p - a);
        }
        """)
        assert run_cured(c).status == 6


class TestIntegerDisguise:
    def test_int_to_ptr_deref_fails(self):
        assert_caught("""
        int main(void) {
          int *p = (int *)1234;
          return *p;
        }
        """, MemorySafetyError)

    def test_int_to_ptr_comparison_allowed(self):
        c = cure_src("""
        int main(void) {
          int *p = (int *)1234;
          return p == (int *)1234;
        }
        """)
        assert run_cured(c).status == 1


class TestRttiChecks:
    def test_bad_downcast(self):
        assert_caught("""
        struct A { int x; };
        struct B { int x; double y; };
        int main(void) {
          struct A a;
          void *v = (void *)&a;
          struct B *b = (struct B *)v;
          b->y = 1.5;
          return 0;
        }
        """, RttiCastError)

    def test_good_downcast_passes(self):
        c = cure_src("""
        struct A { int x; };
        struct B { int x; double y; };
        int main(void) {
          struct B b;
          b.x = 1;
          void *v = (void *)&b;
          struct B *p = (struct B *)v;
          return p->x;
        }
        """)
        assert run_cured(c).status == 1

    def test_downcast_to_sibling_fails(self):
        assert_caught("""
        struct Base { int tag; };
        struct Left { int tag; int l; };
        struct Right { int tag; double r; };
        int main(void) {
          struct Left leftv;
          struct Base *b = (struct Base *)&leftv;
          void *v = (void *)b;
          struct Right *r = (struct Right *)v;
          r->r = 2.0;
          return 0;
        }
        """, RttiCastError)

    def test_null_downcast_allowed(self):
        c = cure_src("""
        struct A { int x; };
        int main(void) {
          void *v = 0;
          struct A *a = (struct A *)v;
          return a == (struct A *)0;
        }
        """)
        assert run_cured(c).status == 1

    def test_malloc_branding(self):
        # malloc memory takes its first checked type; re-casting to an
        # incompatible type later fails.
        assert_caught("""
        #include <stdlib.h>
        struct A { int x; };
        struct B { double y; };
        int main(void) {
          void *v = malloc(sizeof(struct B));
          struct A *a = (struct A *)v;
          a->x = 1;
          struct B *b = (struct B *)v;
          b->y = 2.0;
          return 0;
        }
        """, RttiCastError)

    def test_malloc_too_small_for_cast(self):
        assert_caught("""
        #include <stdlib.h>
        struct Big { double a; double b; double c; };
        int main(void) {
          void *v = malloc(4);
          struct Big *p = (struct Big *)v;
          p->a = 1.0;
          return 0;
        }
        """, MemorySafetyError)


class TestTemporalSafety:
    def test_stack_escape_via_global(self):
        assert_caught("""
        int *g;
        void bad(void) { int local = 1; g = &local; }
        int main(void) { bad(); return *g; }
        """, StackEscapeError)

    def test_stack_escape_via_heap(self):
        assert_caught("""
        #include <stdlib.h>
        struct cell { int *p; };
        int main(void) {
          struct cell *c = (struct cell *)malloc(sizeof(struct cell));
          int local = 5;
          c->p = &local;
          return 0;
        }
        """, StackEscapeError)

    def test_stack_ptr_within_stack_allowed(self):
        c = cure_src("""
        int main(void) {
          int x = 4;
          int *p = &x;
          int **pp = &p;
          return **pp;
        }
        """)
        assert run_cured(c).status == 4

    def test_returning_local_array_caught(self):
        assert_caught("""
        int *make(void) {
          int a[4];
          a[0] = 1;
          int *p = a;
          return p;
        }
        int main(void) { int *p = make(); return *p; }
        """, MemorySafetyError)

    def test_use_after_free_is_memory_safe(self):
        # CCured's allocator (conservative GC semantics): freed homes
        # stay readable, so a dangling read is *memory safe* — the
        # paper's design.  It must not corrupt or crash.
        c = cure_src("""
        #include <stdlib.h>
        int main(void) {
          int *p = (int *)malloc(sizeof(int));
          *p = 7;
          free(p);
          return *p;   /* stale but safe under GC semantics */
        }
        """)
        assert run_cured(c).status == 7


class TestWildPointers:
    def test_wild_round_trip_int(self):
        # Bad casts make WILD pointers, which still work for
        # compatible-size reads/writes.
        c = cure_src("""
        int main(void) {
          unsigned int x = 65;
          unsigned int *p = &x;
          unsigned char *c = (unsigned char *)p;  /* bad cast: WILD */
          return *c;
        }
        """)
        res = run_cured(c)
        assert res.status == 65  # little-endian low byte

    def test_wild_out_of_bounds(self):
        assert_caught("""
        int main(void) {
          int x = 1;
          int *p = &x;
          char *c = (char *)p;   /* WILD */
          c = c + 10;
          return *c;
        }
        """, BoundsError)

    def test_wild_tag_read_pointer_from_int(self):
        # Writing an integer then reading the word as a pointer must
        # fail the tag check (Figure 10's tag invariant).
        assert_caught("""
        int main(void) {
          int *slot[1];
          int **pp = slot;
          int *bad = (int *)(char *)pp;  /* WILD alias of slot */
          *(int *)bad = 123;             /* writes an int */
          int *stored = slot[0];
          return *stored;
        }
        """, MemorySafetyError)


    @pytest.mark.parametrize("off", (2, 3, 4, 5))
    def test_int_write_over_half_an_unaligned_pointer_traps(self, off):
        # The pointer stored at buf + 2 spans bytes 2-5: an int written
        # at any of those bytes clears its tag, and both engines fail
        # the read back with the same CheckFailure record.
        src = f"""
        int g;
        int main(void) {{
          char buf[16];
          char **slot = (char **)(buf + 2);
          int *ip = (int *)(buf + {off});
          char *q;
          *slot = (char *)&g;
          *ip = 12345;
          q = *slot;
          return q == (char *)&g;
        }}
        """
        records = []
        for engine in ("closures", "tree"):
            with pytest.raises(WildTagError) as ei:
                run_cured(cure_src(src), engine=engine)
            records.append((str(ei.value), ei.value.failure.to_json()))
        assert records[0] == records[1]


class TestUncuredContrast:
    def test_uncured_overflow_corrupts_silently(self):
        src = """
        int main(void) {
          int buf[2];
          int canary[1];
          int *p = buf;
          canary[0] = 7;
          p[2] = 999;            /* overruns buf into canary */
          return canary[0];
        }
        """
        raw = parse_program(src, "corrupt")
        res = run_raw(raw)
        # Uncured: the write lands in the adjacent object — silent
        # corruption, no error of any kind.
        assert res.status == 999
        cured = cure_src(src)
        with pytest.raises(BoundsError):
            run_cured(cured)

    def test_uncured_wild_deref_faults_or_garbage(self):
        src = "int main(void){ int *p = (int*)1234; return *p; }"
        with pytest.raises(SegmentationFault):
            run_raw(parse_program(src, "segv"))


class TestWildFieldAccess:
    """Regression tests: checks on field accesses through SEQ/WILD
    pointers must cover the *whole pointee* (Figure 11 checks
    ``sizeof(t)``, not the field's size) and tag-check the *accessed
    word*, not the host address."""

    def test_wild_struct_pointer_field_roundtrip(self):
        # Reading a pointer field of a WILD struct must consult the
        # tag of the field's word (offset 8), not the header's.
        c = cure_src("""
        struct node { int tag; int width; struct node *next; };
        int main(void) {
          struct node a;
          struct node b;
          a.tag = 1; a.width = 10; a.next = &b;
          b.tag = 2; b.width = 20; b.next = 0;
          char *alias = (char *)&a;          /* WILD */
          struct node *w = (struct node *)alias;
          struct node *second = w->next;     /* tagged pointer read */
          return second->width;
        }
        """)
        assert run_cured(c).status == 20

    def test_wild_null_pointer_field_reads_back(self):
        # Storing a null pointer still tags the word; reading it back
        # yields null rather than a tag error.
        c = cure_src("""
        struct cell { int v; struct cell *next; };
        int main(void) {
          struct cell c;
          c.v = 5;
          c.next = 0;
          char *alias = (char *)&c;          /* WILD */
          struct cell *w = (struct cell *)alias;
          return w->next == (struct cell *)0;
        }
        """)
        assert run_cured(c).status == 1

    def test_seq_interior_field_fully_bounded(self):
        # A SEQ pointer at the very end of its area must not be able
        # to reach fields past the area through a field offset.
        c = cure_src("""
        struct wide { int a; int b; int c2; };
        int main(void) {
          struct wide arr[2];
          struct wide *p = arr;
          p = p + 2;          /* one past the end: ok to form */
          return p->c2;        /* deref must fail entirely */
        }
        """)
        with pytest.raises(BoundsError):
            run_cured(c)

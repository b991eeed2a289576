"""Tests for the pycparser -> CIL lowering."""

import pytest

from repro.cil import expr as E
from repro.cil import stmt as S
from repro.cil import types as T
from repro.cil.printer import program_to_c
from repro.frontend import UnsupportedCError, parse_files, parse_program


def body_str(src: str, fn: str = "main") -> str:
    prog = parse_program(src)
    return program_to_c(prog)


class TestDeclarations:
    def test_global_variable(self):
        prog = parse_program("int g = 42;")
        assert "g" in prog.global_vars

    def test_typedef_expanded(self):
        prog = parse_program(
            "typedef int myint; myint x; int main(void){return x;}")
        var = prog.global_vars["x"]
        assert isinstance(T.unroll(var.type), T.TInt)

    def test_typedef_pointer_fresh_occurrences(self):
        # Two uses of a pointer typedef must have distinct TPtr objects
        # (each syntactic occurrence gets its own qualifier variable).
        prog = parse_program(
            "typedef int *ip; ip a; ip b;")
        ta = T.unroll(prog.global_vars["a"].type)
        tb = T.unroll(prog.global_vars["b"].type)
        assert isinstance(ta, T.TPtr) and isinstance(tb, T.TPtr)
        assert ta is not tb

    def test_struct_registration(self):
        prog = parse_program(
            "struct pt { int x; int y; }; struct pt p;")
        assert "pt" in prog.comps
        assert [f.name for f in prog.comps["pt"].fields] == ["x", "y"]

    def test_forward_struct_then_definition(self):
        prog = parse_program("""
        struct node;
        struct node { struct node *next; int v; };
        struct node n;
        """)
        comp = prog.comps["node"]
        assert comp.defined
        nxt = T.unroll(comp.field("next").type)
        assert isinstance(nxt, T.TPtr)
        assert T.unroll(nxt.base) == T.TComp(comp)

    def test_enum_constants(self):
        prog = parse_program("""
        enum color { RED, GREEN = 5, BLUE };
        int main(void) { return BLUE; }
        """)
        assert prog.enums["color"].items == [
            ("RED", 0), ("GREEN", 5), ("BLUE", 6)]

    def test_static_local_promoted_to_global(self):
        prog = parse_program("""
        int counter(void) { static int n = 0; n = n + 1; return n; }
        int main(void) { counter(); return counter(); }
        """)
        assert "__static_counter_n" in prog.global_vars

    def test_array_sized_by_initializer(self):
        prog = parse_program('char msg[] = "hey";')
        t = T.unroll(prog.global_vars["msg"].type)
        assert isinstance(t, T.TArray) and t.length == 4

    def test_array_dim_constant_folding(self):
        prog = parse_program("#define N 4\nint a[N * 2 + 1];")
        assert T.unroll(prog.global_vars["a"].type).length == 9

    def test_extern_goes_to_externals(self):
        prog = parse_program("extern int errno_ish;")
        assert "errno_ish" in prog.externals

    def test_bitfields_unsupported(self):
        with pytest.raises(UnsupportedCError):
            parse_program("struct f { int x : 3; };")

    def test_goto_unsupported(self):
        # a unit named like a file (``repro run g.c``) keeps its name
        # in locations: g.c, never g.c.c
        with pytest.raises(UnsupportedCError, match=r"at g\.c:2:3$"):
            parse_program("int main(void) {\n  goto end;\n"
                          "end: return 0; }", "g.c")


class TestExpressions:
    def test_pointer_index_becomes_arith(self):
        out = body_str("""
        int f(int *p) { return p[3]; }
        """)
        assert "(p + 3)" in out

    def test_array_lval_keeps_index_offset(self):
        out = body_str("""
        int main(void) { int a[4]; a[2] = 1; return a[2]; }
        """)
        assert "a[2] = 1;" in out

    def test_implicit_arith_conversion_explicit(self):
        out = body_str("""
        int main(void) { double d = 1; int i = 2; d = d + i;
          return (int)d; }
        """)
        assert "(double)" in out

    def test_implicit_void_star_conversion_is_cast(self):
        out = body_str("""
        int main(void) { int x; void *v = &x; return v != (void*)0; }
        """)
        assert "(void *)(&x)" in out.replace("  ", " ")

    def test_short_circuit_lowered_to_if(self):
        prog = parse_program("""
        int f(void) { return 1; }
        int main(void) { int a = 1; return a && f(); }
        """)
        out = program_to_c(prog)
        assert "if" in out  # && became control flow

    def test_ternary_lowered(self):
        out = body_str("""
        int main(void) { int a = 1; return a ? 2 : 3; }
        """)
        assert "__cil_cond" in out

    def test_postincrement_preserves_value(self):
        out = body_str("""
        int main(void) { int i = 5; int j = i++; return j * 10 + i; }
        """)
        assert "__cil_post" in out

    def test_compound_assignment(self):
        out = body_str("""
        int main(void) { int x = 1; x += 4; x <<= 2; return x; }
        """)
        assert "(x + 4)" in out and "(x << 2)" in out

    def test_comma_expression(self):
        out = body_str("""
        int main(void) { int a, b; a = (b = 2, b + 1); return a; }
        """)
        assert "b = 2;" in out

    def test_sizeof_type_and_expr(self):
        out = body_str("""
        int main(void) { int a[7]; return sizeof(a) + sizeof(int); }
        """)
        assert "sizeof(int [7])" in out and "sizeof(int)" in out

    def test_address_of_marks_variable(self):
        prog = parse_program("""
        int main(void) { int x = 1; int *p = &x; return *p; }
        """)
        fd = prog.function("main")
        xs = [v for v in fd.locals if v.name == "x"]
        assert xs and xs[0].address_taken

    def test_string_literal(self):
        prog = parse_program("""
        int main(void) { char *s = "hi\\n"; return s != (char*)0; }
        """)
        out = program_to_c(prog)
        assert '"hi\\n"' in out

    def test_char_constant(self):
        out = body_str("int main(void) { return 'A'; }")
        assert "65" in out

    def test_negative_and_hex_constants(self):
        # negated constants fold so their sign is visible statically
        out = body_str("int main(void) { return -0x10; }")
        assert "-16" in out

    def test_function_pointer_call(self):
        out = body_str("""
        int add1(int x) { return x + 1; }
        int main(void) {
          int (*fp)(int) = add1;
          return fp(4);
        }
        """)
        assert "fp" in out

    def test_struct_member_through_pointer(self):
        out = body_str("""
        struct p { int x; };
        int main(void) { struct p v; struct p *q = &v; q->x = 3;
          return q->x; }
        """)
        assert "q->x = 3;" in out


class TestStatements:
    def test_for_loop_shape(self):
        out = body_str("""
        int main(void) { int s = 0; int i;
          for (i = 0; i < 4; i++) s += i; return s; }
        """)
        assert "while (1)" in out and "break;" in out

    def test_do_while(self):
        out = body_str("""
        int main(void) { int i = 0;
          do { i++; } while (i < 3); return i; }
        """)
        assert "while (1)" in out

    def test_switch_chain(self):
        out = body_str("""
        int main(void) { int x = 2;
          switch (x) {
            case 1: return 10;
            case 2: case 3: return 20;
            default: return 30;
          } }
        """)
        assert "== 2" in out and "== 3" in out

    def test_switch_fallthrough_rejected(self):
        with pytest.raises(UnsupportedCError, match="fall-through"):
            parse_program("""
            int main(void) { int x = 1;
              switch (x) { case 1: x = 2; case 2: x = 3; break; }
              return x; }
            """)

    def test_continue_inside_switch_rejected(self):
        # the switch's run-once loop would catch the continue and re-run
        # the arm forever; C says this returns 44
        with pytest.raises(UnsupportedCError,
                           match="continue inside a switch at .*:3:"):
            parse_program("""
            int main(void) { int i, s = 0; for (i = 0; i < 5; i++) {
              switch (i) { case 2: if (s >= 0) continue; break;
                           default: s += 1; break; }
              s += 10; }
              return s; }
            """)

    def test_break_outside_loop_rejected(self):
        # it would leak out of f and end the caller's loop
        with pytest.raises(UnsupportedCError,
                           match="break outside a loop or switch at "
                                 ".*:2:"):
            parse_program("""
            void f(int x) { if (x) break; }
            int main(void) { int i; for (i = 0; i < 3; i++) f(i);
              return i; }
            """)

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(UnsupportedCError,
                           match="continue outside a loop at .*:3:"):
            parse_program("""
            int main(void) { int x = 1;
              switch (x) { case 1: continue; }
              return x; }
            """)

    def test_break_continue(self):
        out = body_str("""
        int main(void) { int i, s = 0;
          for (i = 0; i < 10; i++) {
            if (i == 2) continue;
            if (i == 5) break;
            s += i;
          }
          return s; }
        """)
        assert "continue;" in out and out.count("break;") >= 2

    def test_local_compound_initializer(self):
        out = body_str("""
        struct pt { int x; int y; };
        int main(void) { struct pt p = { 1, 2 }; return p.x + p.y; }
        """)
        assert "p.x = 1;" in out and "p.y = 2;" in out

    def test_local_array_initializer(self):
        out = body_str("""
        int main(void) { int a[3] = { 7, 8, 9 }; return a[1]; }
        """)
        assert "a[0] = 7;" in out and "a[2] = 9;" in out

    def test_nested_blocks_scoping(self):
        prog = parse_program("""
        int main(void) {
          int x = 1;
          { int x = 2; if (x != 2) return 9; }
          return x;
        }
        """)
        fd = prog.function("main")
        assert sum(1 for v in fd.locals if v.name == "x") == 2


class TestMultiFile:
    def test_link_two_units(self):
        prog = parse_files([
            ("a.c", "int helper(int x) { return x * 2; }"),
            ("b.c", "extern int helper(int); "
                    "int main(void) { return helper(21); }"),
        ])
        assert "helper" in prog.functions
        assert "main" in prog.functions

    def test_shared_struct_across_units(self):
        prog = parse_files([
            ("a.c", "struct s { int v; }; "
                    "int get(struct s *p) { return p->v; }"),
            ("b.c", "struct s { int v; }; "
                    "int main(void) { struct s x; x.v = 1; "
                    "return 0; }"),
        ])
        assert len([c for c in prog.comps.values()
                    if c.name == "s"]) == 1


class TestTrustedCast:
    def test_trusted_cast_marks_cast(self):
        prog = parse_program("""
        #include <ccured.h>
        int main(void) { int x; int *p = &x;
          char *c = (char*)__trusted_cast(p); return c != (char*)0; }
        """)
        assert prog.trusted_cast_count == 1

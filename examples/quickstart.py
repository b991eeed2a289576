#!/usr/bin/env python3
"""Quickstart: cure a C program and watch CCured catch a buffer
overflow.

Run:  python examples/quickstart.py
"""

from repro import cure, parse_program, run_cured, run_raw
from repro.runtime.checks import MemorySafetyError

PROGRAM = r'''
#include <stdio.h>
#include <string.h>

int main(int argc, char **argv) {
  char name[12];
  int i;
  int total = 0;
  int squares[10];

  /* ordinary, safe computation */
  for (i = 0; i < 10; i++) squares[i] = i * i;
  for (i = 0; i < 10; i++) total += squares[i];
  printf("sum of squares: %d\n", total);

  /* the classic bug: no length check on the copy */
  strcpy(name, argv[1]);
  printf("hello, %s\n", name);
  return 0;
}
'''


def main() -> None:
    print("=" * 64)
    print("1. Cure the program (infer pointer kinds, insert checks)")
    print("=" * 64)
    cured = cure(PROGRAM, name="quickstart")
    print(cured.report())

    print()
    print("=" * 64)
    print("2. The instrumented output (kinds + __CHECK_* calls)")
    print("=" * 64)
    text = cured.to_c()
    print(text[text.index("int main"):])

    print("=" * 64)
    print("3. Run it on a friendly input")
    print("=" * 64)
    result = run_cured(cured, args=["Ada"])
    print(result.stdout, end="")
    print(f"-> exit {result.status}, {result.cycles} cycles")

    print()
    print("=" * 64)
    print("4. Attack it: a 40-byte name into a 12-byte buffer")
    print("=" * 64)
    attack = ["A" * 40]
    raw = run_raw(parse_program(PROGRAM, "quickstart_raw"),
                  args=attack)
    print(f"uncured: ran to completion (exit {raw.status}) — the"
          " overflow silently corrupted the stack")
    try:
        run_cured(cure(PROGRAM, name="quickstart2"), args=attack)
        print("cured: UNEXPECTEDLY SURVIVED")
    except MemorySafetyError as exc:
        print(f"cured:   stopped cleanly -> {type(exc).__name__}: "
              f"{exc}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Secure a network daemon, as in Section 5 of the paper.

The workload suite ships an ftpd-BSD-like daemon with the real
``replydirname`` off-by-one (the overflow the paper verified CCured
prevents).  This example runs the full story:

1. a benign FTP session — cured and uncured agree byte-for-byte;
2. the attack session against the *uncured* daemon — silent
   corruption or a crash;
3. the attack against the *cured* daemon — a clean BoundsError naming
   the vulnerable function.

Run:  python examples/secure_a_daemon.py
"""

from repro.interp import run_cured, run_raw
from repro.runtime.checks import MemorySafetyError, SegmentationFault
from repro.workloads import get


def main() -> None:
    ftpd = get("ftpd")

    print("=" * 64)
    print("1. Cure ftpd and serve a normal session")
    print("=" * 64)
    cured = ftpd.cure()
    print(cured.report())
    print()
    benign = run_cured(cured, stdin=ftpd.stdin)
    raw = run_raw(ftpd.parse(), stdin=ftpd.stdin)
    assert benign.stdout == raw.stdout and benign.status == raw.status
    print(benign.stdout)
    print(f"cured and uncured agree; CCured overhead: "
          f"{benign.cycles / raw.cycles:.2f}x "
          f"(paper measured 1.01x)")

    print()
    print("=" * 64)
    print("2. The replydirname attack against the UNCURED daemon")
    print("=" * 64)
    print("attack: MKD " + "a" * 20 + "...[62 bytes]\" (quote doubles"
          " past the buffer)")
    try:
        res = run_raw(ftpd.parse(), stdin=ftpd.attack_stdin)
        print(f"uncured daemon completed (exit {res.status}) — the"
              " overflow went undetected")
    except SegmentationFault as exc:
        print(f"uncured daemon crashed: {exc}")

    print()
    print("=" * 64)
    print("3. The same attack against the CURED daemon")
    print("=" * 64)
    try:
        run_cured(ftpd.cure(), stdin=ftpd.attack_stdin)
        print("UNEXPECTED: attack not caught")
    except MemorySafetyError as exc:
        print(f"caught -> {type(exc).__name__}: {exc}")
        print()
        print("The daemon cannot be exploited through this bug — at"
              " worst it stops.")


if __name__ == "__main__":
    main()

"""The workload suite: synthetic stand-ins for the paper's benchmarks.

Each :class:`Workload` wraps a C program written in the supported C99
subset that reproduces the pointer-usage profile of one of the paper's
subjects (see DESIGN.md's substitution table).  Workloads know their
default inputs, their curing options (e.g. bind trusts its remaining
bad casts, per Section 5), their paper row, and — for the security
experiments — an *attack input* that triggers their embedded
vulnerability.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.cil.program import Program
from repro.core import CureOptions, CuredProgram, cure
from repro.frontend import parse_program
from repro.workloads import ijpeg_gen

PROGRAM_DIR = os.path.join(os.path.dirname(__file__), "programs")


@dataclass
class Workload:
    """One benchmark program plus its run/cure configuration."""

    name: str
    category: str          # spec | olden | ptrdist | apache | system
    description: str
    paper_row: str
    filename: Optional[str] = None
    generator: Optional[Callable[[], str]] = None
    stdin: str = ""
    args: Sequence[str] = field(default_factory=tuple)
    #: exploit input for the security experiments (E8), if any
    attack_stdin: Optional[str] = None
    attack_args: Optional[Sequence[str]] = None
    #: extra cure options (e.g. trust_bad_casts for bind)
    trust_bad_casts: bool = False
    #: default SCALE override (None keeps the program's default)
    scale: Optional[int] = None

    def source(self) -> str:
        if self.generator is not None:
            return self.generator()
        assert self.filename is not None
        path = os.path.join(PROGRAM_DIR, self.filename)
        with open(path, "r", encoding="utf-8") as f:
            return f.read()

    def _defines(self, scale: Optional[int]) -> Optional[dict]:
        s = scale if scale is not None else self.scale
        return {"SCALE": str(s)} if s is not None else None

    def parse(self, scale: Optional[int] = None) -> Program:
        return parse_program(self.source(), self.name,
                             include_dirs=[PROGRAM_DIR],
                             defines=self._defines(scale))

    def cure(self, options: Optional[CureOptions] = None,
             scale: Optional[int] = None) -> CuredProgram:
        opts = options if options is not None else CureOptions(
            trust_bad_casts=self.trust_bad_casts)
        return cure(self.parse(scale), options=opts, name=self.name)


def _w(name: str, category: str, description: str, paper_row: str,
       **kw) -> Workload:
    filename = kw.pop("filename", name + ".c")
    return Workload(name, category, description, paper_row,
                    filename=filename, **kw)


_FTPD_SESSION = ("USER anonymous\nPASS guest\nCWD pub\nPWD\n"
                 "MKD uploads\nLIST\nCWD uploads\nPWD\nNOOP\n"
                 "MKD deep\nLIST\nQUIT\n")
#: replydirname attack: 62 filler bytes, then a quote that doubles past
#: the end of npath[MAXPATHLEN] (the ftpd-BSD off-by-one).
FTPD_ATTACK = ("USER anonymous\nPASS guest\nMKD "
               + "a" * 62 + '"' + "\nQUIT\n")
#: crackaddr attack: leading '>' run walks the output cursor below the
#: buffer (the sendmail CA-2003-12 class).
SENDMAIL_ATTACK = [">>>>>>>>AAAAAAAA<x@evil.example>"]


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    # -- Spec95-like (E4) ------------------------------------------------
    _w("spec_compress", "spec",
       "LZW-style coder: hash table + code buffers (129.compress)",
       "Sec. 5 Spec95 overhead band"),
    _w("spec_go", "spec",
       "board evaluation with flat-pointer scans (099.go)",
       "Sec. 5 Spec95 overhead band"),
    _w("spec_li", "spec",
       "tagged-cell Lisp evaluator: downcast-per-access (130.li)",
       "Sec. 5 Spec95 overhead band"),
    Workload("spec_ijpeg", "spec",
             "OO hierarchy with ~100 checked downcasts (132.ijpeg)",
             "Sec. 5 RTTI experiment (E5)",
             generator=ijpeg_gen.generate),
    # -- Olden-like (E4, E7) ----------------------------------------------
    _w("olden_bisort", "olden",
       "heap binary tree with value swapping", "Sec. 5 Olden"),
    _w("olden_treeadd", "olden",
       "balanced-tree build and recursive sum", "Sec. 5 Olden"),
    _w("olden_power", "olden",
       "three-level power network optimization", "Sec. 5 Olden"),
    _w("olden_em3d", "olden",
       "bipartite graph with pointer arrays (the +58% split outlier)",
       "Sec. 5 split ablation (E7)"),
    # -- Ptrdist-like (E4, E7) ---------------------------------------------
    _w("ptrdist_anagram", "ptrdist",
       "dictionary + letter-signature matching (the +7% split case)",
       "Sec. 5 split ablation (E7)"),
    _w("ptrdist_ks", "ptrdist",
       "graph partitioning with adjacency pointers", "Sec. 5 Ptrdist"),
    # -- Apache modules (E1 / Fig. 8) ---------------------------------------
    _w("apache_asis", "apache", "serve stored files verbatim",
       "Fig. 8: asis (0.96)"),
    _w("apache_expires", "apache", "Expires header computation",
       "Fig. 8: expires (1.00)"),
    _w("apache_gzip", "apache", "LZ77-style response compression",
       "Fig. 8: gzip (0.94)"),
    _w("apache_headers", "apache", "response header rewriting",
       "Fig. 8: headers (1.00)"),
    _w("apache_info", "apache", "server-info page generation",
       "Fig. 8: info (1.00)"),
    _w("apache_layout", "apache", "header/footer templating",
       "Fig. 8: layout (1.01)"),
    _w("apache_random", "apache", "random mirror redirects",
       "Fig. 8: random (0.94)"),
    _w("apache_urlcount", "apache", "per-URL hit counting",
       "Fig. 8: urlcount (1.02)"),
    _w("apache_usertrack", "apache", "tracking cookie handling",
       "Fig. 8: usertrack (1.00)"),
    _w("apache_webstone", "apache",
       "five modules chained on every request",
       "Fig. 8: WebStone (1.04)"),
    # -- system software (E2 / Fig. 9) ---------------------------------------
    _w("pcnet32", "system", "PCI Ethernet driver: DMA rings",
       "Fig. 9: pcnet32 (0.99)"),
    _w("sbull", "system", "ramdisk block device: elevator + seeks",
       "Fig. 9: sbull (1.00/1.03)"),
    _w("ftpd", "system",
       "FTP daemon with the replydirname off-by-one",
       "Fig. 9: ftpd (1.01); exploit prevention",
       stdin=_FTPD_SESSION, attack_stdin=FTPD_ATTACK),
    _w("openssl_like", "system",
       "cast cipher + bignum + EVP polymorphism",
       "Fig. 9: OpenSSL (1.40; cast 1.87, bn 1.01)"),
    _w("openssh_like", "system",
       "packet framing, DH handshake, channels, sendmsg",
       "Fig. 9: OpenSSH (client 1.22, server 1.15)"),
    _w("sendmail_like", "system",
       "queue + crackaddr-style parser (CA-2003-12 class)",
       "Fig. 9: sendmail (1.46); exploit prevention",
       attack_args=SENDMAIL_ATTACK),
    _w("bind_like", "system",
       "DNS parsing, RR hierarchy, sockaddr casts, tasks",
       "Fig. 9: bind (1.81; tasks 1.11, sockaddr 1.50)",
       trust_bad_casts=True),
]}


class UnknownSelection(KeyError):
    """A selection names a workload, campaign, mutation class or tool
    that does not exist.  Still a ``KeyError``, but a type of
    its own, so the CLI reports a bad selection (exit 2) while a real
    ``KeyError`` bug keeps its traceback."""

    def __str__(self) -> str:
        return str(self.args[0])


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownSelection(
            f"unknown workload {name!r} "
            "(see `python -m repro workloads`)") from None


def by_category(category: str) -> list[Workload]:
    return [w for w in WORKLOADS.values() if w.category == category]


def all_workloads() -> list[Workload]:
    return list(WORKLOADS.values())

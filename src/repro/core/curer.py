"""The top-level curing pipeline — the system's public entry point.

``cure()`` runs the full CCured pipeline of the paper:

1. parse + lower C into the CIL-like IR (if given source text),
2. generate constraints and classify every cast (Section 3),
3. solve pointer kinds (SAFE/SEQ/WILD/RTTI),
4. infer SPLIT metadata representations (Section 4.2),
5. insert run-time checks (Figures 2 and 11).

The result bundles the instrumented program with everything the
paper's evaluation reports: the cast census, kind percentages, check
counts, split statistics and trusted-cast counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Union

from repro.cil import stmt as S
from repro.cil.printer import program_to_c
from repro.cil.program import Program, deepcopy_tree
from repro.core.casts import CastCensus
from repro.core.constraints import Analysis, generate
from repro.core.options import CureOptions
from repro.obs.tracer import TRACER
from repro.core.rtti import RttiHierarchy
from repro.core.solver import SolveResult, solve
from repro.core.split import SplitResult, infer_split
from repro.core.transform import instrument


class CuredProgram:
    """An instrumented program plus all analysis artifacts."""

    def __init__(self, prog: Program, analysis: Analysis,
                 solve_result: SolveResult, split_result: SplitResult,
                 check_counts: Counter) -> None:
        self.prog = prog
        self.analysis = analysis
        self.solve_result = solve_result
        self.split_result = split_result
        self.check_counts = check_counts
        #: checks dropped by redundant-check elimination
        self.checks_removed = 0
        #: the check-elimination level the pipeline actually ran
        self.optimize_level = "none"

    def __deepcopy__(self, memo: dict) -> "CuredProgram":
        return deepcopy_tree(self, memo)

    # -- conveniences ------------------------------------------------------

    @property
    def options(self) -> CureOptions:
        return self.analysis.options

    @property
    def census(self) -> CastCensus:
        return self.analysis.census

    @property
    def hierarchy(self) -> RttiHierarchy:
        return self.analysis.hierarchy

    def kind_percentages(self) -> dict[str, float]:
        """``% sf/sq/w/rt`` over static pointer declarations, the
        metric of the paper's Figures 8 and 9."""
        return self.solve_result.declaration_percentages()

    @property
    def trusted_casts(self) -> int:
        return (self.prog.trusted_cast_count
                + self.analysis.auto_trusted)

    def to_c(self, annotate_kinds: bool = True) -> str:
        """The instrumented program as C source with ``__SAFE``-style
        kind annotations and ``__CHECK_*`` calls."""
        return program_to_c(self.prog, annotate_kinds=annotate_kinds)

    def report(self) -> str:
        """A human-readable curing report, in the spirit of CCured's
        own summary output."""
        pct = self.kind_percentages()
        lines = [
            f"=== CCured report for {self.prog.name} ===",
            f"pointer declarations: {len(self.analysis.decl_nodes)}",
            ("kinds: "
             + " ".join(f"{k}={pct[k]:.1%}"
                        for k in ("safe", "seq", "wild", "rtti"))),
            f"casts: {self.census.summary()}",
            f"trusted casts: {self.trusted_casts}",
            (f"split pointers: {self.split_result.split_fraction:.1%}"
             f" (meta pointers: "
             f"{self.split_result.meta_fraction:.1%})"),
            "checks inserted: "
            + (", ".join(f"{k.value}={v}" for k, v in
                         sorted(self.check_counts.items(),
                                key=lambda kv: kv[0].value))
               or "none"),
            f"rtti hierarchy: {len(self.hierarchy)} types",
        ]
        return "\n".join(lines)


def cure(source: Union[str, Program],
         options: Optional[CureOptions] = None,
         name: str = "program",
         include_dirs: Optional[Sequence[str]] = None) -> CuredProgram:
    """Cure a C program: infer pointer kinds and insert run-time checks.

    ``source`` may be C source text or an already-lowered
    :class:`Program` (which is mutated in place).
    """
    if isinstance(source, str):
        from repro.frontend import parse_program
        prog = parse_program(source, name, include_dirs=include_dirs)
    else:
        prog = source
    opts = options if options is not None else CureOptions()
    level = opts.optimize_level if opts.checks else "none"
    with TRACER.span("cure", name=name, optimize=level):
        with TRACER.span("constraints"):
            analysis = generate(prog, opts)
        with TRACER.span("solve"):
            solved = solve(analysis)
        with TRACER.span("split"):
            split = infer_split(analysis)
        with TRACER.span("instrument"):
            checks = instrument(analysis)
        cured = CuredProgram(prog, analysis, solved, split, checks)
        cured.optimize_level = level
        if level == "local":
            from repro.core.optimize import \
                eliminate_redundant_checks
            with TRACER.span("optimize", level="local"):
                cured.checks_removed = \
                    eliminate_redundant_checks(prog)
        elif level == "flow":
            from repro.analysis import eliminate_checks_flow
            with TRACER.span("optimize", level="flow"):
                cured.checks_removed = eliminate_checks_flow(prog)
        _number_check_sites(prog)
    return cured


def _number_check_sites(prog: Program) -> None:
    """Assign each surviving ``Check`` a stable statement id, in
    program order.  Failure records carry the id, so the same source
    always reports the same site — across runs and across engines."""
    from repro.cil.visitor import Visitor, walk_program

    class _Numberer(Visitor):
        def __init__(self) -> None:
            self.n = 0

        def visit_instr(self, i: S.Instr) -> None:
            if isinstance(i, S.Check):
                self.n += 1
                i.site = self.n

    walk_program(prog, _Numberer())

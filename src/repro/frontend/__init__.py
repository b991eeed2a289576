"""C frontend: preprocess, parse (pycparser), lower to CIL.

The whole-program entry points here produce a single
:class:`repro.cil.Program` from one or more C source texts or files,
which is the unit CCured's whole-program inference operates on.
"""

from typing import Iterable, Mapping, Optional, Sequence

from pycparser import c_parser

from repro.cil.program import Program
from repro.cpp import Preprocessor
from repro.frontend.lower import Lowerer, UnsupportedCError, fresh_type

__all__ = ["parse_program", "parse_files", "parse_preprocessed",
           "Lowerer", "UnsupportedCError", "fresh_type"]


def parse_program(source: str, name: str = "program",
                  include_dirs: Optional[Sequence[str]] = None,
                  defines: Optional[Mapping[str, str]] = None) -> Program:
    """Parse one C source text into a lowered whole program.  The unit
    is named ``name``, with ``.c`` appended unless it already ends so,
    which is the file name that locations report."""
    filename = name if name.endswith(".c") else name + ".c"
    return parse_files([(filename, source)], name=name,
                       include_dirs=include_dirs, defines=defines)


def parse_files(sources: Sequence[tuple[str, str]], name: str = "program",
                include_dirs: Optional[Sequence[str]] = None,
                defines: Optional[Mapping[str, str]] = None) -> Program:
    """Parse and link several ``(filename, source)`` translation units
    into one whole program, as CCured's whole-program analysis requires."""
    from repro.obs.tracer import TRACER
    with TRACER.span("parse", name=name, files=len(sources)):
        lowerer = Lowerer(name=name)
        parser = c_parser.CParser()
        for filename, source in sources:
            with TRACER.span("preprocess", file=filename):
                pp = Preprocessor(include_dirs, defines)
                text = pp.preprocess(source, filename=filename)
            _lower_unit(lowerer, parser, filename, text,
                        pp.lint_suppressions)
        return lowerer.prog


def parse_preprocessed(text: str, filename: str, name: str = "program",
                       lint_suppressions: Iterable[tuple[str, int]] = ()
                       ) -> Program:
    """Parse one already-preprocessed translation unit into a lowered
    whole program; ``lint_suppressions`` are the ``(file, line)`` pairs
    its preprocessor collected."""
    from repro.obs.tracer import TRACER
    with TRACER.span("parse", name=name, files=1):
        lowerer = Lowerer(name=name)
        _lower_unit(lowerer, c_parser.CParser(), filename, text,
                    lint_suppressions)
        return lowerer.prog


def _lower_unit(lowerer: Lowerer, parser: c_parser.CParser,
                filename: str, text: str,
                lint_suppressions: Iterable[tuple[str, int]]) -> None:
    lowerer.prog.lint_suppressions.update(lint_suppressions)
    # pycparser chokes on #pragma lines at certain positions only if
    # malformed; ours are kept verbatim and parsed as Pragma nodes.
    lowerer.lower_file(parser.parse(text, filename=filename))

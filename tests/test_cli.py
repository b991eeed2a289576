"""Tests for the command-line driver."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import (LIMIT_EXIT, PIPE_EXIT, REJECT_EXIT, SAFETY_EXIT,
                       main)

HELLO = r'''
#include <stdio.h>
#include <string.h>
int main(int argc, char **argv) {
  char buf[8];
  if (argc > 1) strcpy(buf, argv[1]);
  else strcpy(buf, "hi");
  printf("%s\n", buf);
  return 0;
}
'''


@pytest.fixture
def hello_c(tmp_path):
    path = tmp_path / "hello.c"
    path.write_text(HELLO)
    return str(path)


class TestCure:
    def test_report(self, hello_c, capsys):
        assert main(["cure", hello_c, "--report"]) == 0
        out = capsys.readouterr().out
        assert "CCured report" in out
        assert "kinds:" in out

    def test_instrumented_output(self, hello_c, capsys):
        assert main(["cure", hello_c]) == 0
        out = capsys.readouterr().out
        assert "__SEQ" in out or "__SAFE" in out

    def test_plain_output(self, hello_c, capsys):
        assert main(["cure", hello_c, "--plain"]) == 0
        out = capsys.readouterr().out
        assert "__SAFE" not in out

    def test_ablation_flags(self, hello_c, capsys):
        assert main(["cure", hello_c, "--report", "--no-rtti",
                     "--no-physical", "--no-optimize"]) == 0

    def test_optimize_level_flag(self, hello_c, capsys):
        for level in ("none", "local", "flow"):
            assert main(["cure", hello_c, "--report",
                         "--optimize", level]) == 0
            capsys.readouterr()

    def test_bad_optimize_level_rejected(self, hello_c):
        with pytest.raises(SystemExit):
            main(["cure", hello_c, "--optimize", "super"])


class TestRun:
    def test_run_ok(self, hello_c, capsys):
        assert main(["run", hello_c, "world"]) == 0
        assert capsys.readouterr().out == "world\n"

    def test_run_overflow_exits_99(self, hello_c, capsys):
        status = main(["run", hello_c, "A" * 20])
        assert status == SAFETY_EXIT
        assert "BoundsError" in capsys.readouterr().err

    def test_run_raw(self, hello_c, capsys):
        assert main(["run", "--raw", hello_c, "ok"]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_run_stats(self, hello_c, capsys):
        assert main(["run", hello_c, "x", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "cycles" in err

    def test_exit_status_propagates(self, tmp_path, capsys):
        p = tmp_path / "seven.c"
        p.write_text("int main(void) { return 7; }")
        assert main(["run", str(p)]) == 7


class TestBadInput:
    """Rejected input ends in one stderr line and a documented exit
    code, never a traceback."""

    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    @pytest.mark.parametrize("command", ("run", "cure", "lint",
                                         "analyze", "explain"))
    def test_unsupported_construct(self, tmp_path, capsys, command):
        path = self._write(tmp_path, "g.c", "int main(void) {\n"
                           "  goto out;\nout:\n  return 0;\n}\n")
        assert main([command, path]) == REJECT_EXIT
        err = capsys.readouterr().err
        assert err == f"{path}:2:3: goto/labels\n"

    def test_syntax_error(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.c", "int main(void) {\n"
                           "  int x = 1\n  return x;\n}\n")
        assert main(["run", path]) == REJECT_EXIT
        assert capsys.readouterr().err == f"{path}:3:3: before: return\n"

    def test_syntax_error_without_a_line(self, tmp_path, capsys):
        # the parser gives no line for this one: the file still leads
        path = self._write(tmp_path, "bad.c",
                           "int main(void) {\n  int x = ;\n}\n")
        assert main(["run", path]) == REJECT_EXIT
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and err.count("\n") == 1

    def test_step_budget(self, tmp_path, capsys, monkeypatch):
        import functools

        import repro.cli as cli
        # a small budget keeps the endless loop short
        monkeypatch.setattr(cli, "run_cured", functools.partial(
            cli.run_cured, max_steps=1000))
        path = self._write(tmp_path, "loop.c", "int main(void) {\n"
                           "  while (1) {}\n  return 0;\n}\n")
        assert main(["run", path]) == LIMIT_EXIT
        assert capsys.readouterr().err == (
            "[InterpreterLimitError] step budget exceeded\n")

    def test_reader_of_stdout_gone(self):
        # ``repro faults list | head -1``: the pipe's reader has left
        # before the output is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "faults", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                text=True, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (PIPE_EXIT, "")


class TestAnalyze:
    def test_analyze_file_table(self, hello_c, capsys):
        assert main(["analyze", hello_c]) == 0
        out = capsys.readouterr().out
        assert "elided_flow" in out and "TOTAL" in out

    def test_analyze_workload_json(self, tmp_path, capsys):
        import json
        path = tmp_path / "stats.json"
        assert main(["analyze", "--workload", "olden_power",
                     "--scale", "2", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["program"] == "olden_power"
        totals = data["totals"]
        assert totals["checks"] >= totals["elided_flow"] \
            >= totals["elided_local"] >= 0
        assert totals["blocks"] > 0 and totals["edges"] > 0

    def test_analyze_unknown_workload(self, capsys):
        assert main(["analyze", "--workload", "nope"]) == 2

    def test_analyze_without_target(self, capsys):
        assert main(["analyze"]) == 2


class TestBenchAndWorkloads:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "ftpd" in out and "Fig. 9" in out

    def test_bench_single(self, capsys):
        assert main(["bench", "olden_bisort",
                     "--tools", "ccured"]) == 0
        out = capsys.readouterr().out
        assert "ccured" in out and "1.00x" in out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "nope"]) == 2

"""Benchmark harness and paper-table formatting."""

from repro.bench.harness import (BenchRow, ToolRun, cached_source,
                                 clear_program_cache, count_lines,
                                 pristine_cure, pristine_parse,
                                 run_workload)
from repro.bench.tables import (aggregate_census, band_check,
                                census_table, figure8_table,
                                figure9_table, overhead_table)
from repro.bench.trajectory import (BENCH_SCHEMA, QUICK_SUITE, SUITE,
                                    append_history, bench_record,
                                    diff_bench, load_record,
                                    measure_cell, read_history,
                                    render_diff, render_record,
                                    run_bench, run_suite_cells)

__all__ = ["BenchRow", "ToolRun", "cached_source",
           "clear_program_cache", "count_lines",
           "pristine_cure", "pristine_parse",
           "run_workload", "aggregate_census", "band_check",
           "census_table", "figure8_table", "figure9_table",
           "overhead_table",
           "BENCH_SCHEMA", "QUICK_SUITE", "SUITE",
           "append_history", "bench_record", "diff_bench",
           "load_record", "measure_cell", "read_history",
           "render_diff", "render_record", "run_bench",
           "run_suite_cells"]

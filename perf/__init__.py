"""The repository's end-to-end and per-layer benchmark.

Run ``python -m perf --help``; ``perf/README.md`` explains the
workloads, the metrics and how each layer metric maps onto an
end-to-end one.  Nothing here is imported by ``src/repro``.
"""

import os

#: the checkout root (the parent of this package)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where the program under test is built from
SRC = os.path.join(ROOT, "src")
PERF_DIR = os.path.join(ROOT, "perf")
#: scratch space of a run: cure-cache dirs and child specs (ignored by
#: git, deleted when the run ends)
WORK_DIR = os.path.join(PERF_DIR, ".work")
RESULTS_DIR = os.path.join(PERF_DIR, "results")
REFERENCE_PATH = os.path.join(PERF_DIR, "reference.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("exec_warm", "frontend_cold", "sweep_cold",
             "fault_campaign")

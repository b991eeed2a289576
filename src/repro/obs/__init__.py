"""Pipeline observability: structured tracing, per-site metrics, and
regression diffing.

Three layers, importable without pulling the heavy pipeline modules:

* :mod:`repro.obs.tracer` — span/event tracing with a shared global
  :data:`~repro.obs.tracer.TRACER`; zero-cost while disabled;
* :mod:`repro.obs.metrics` — per-workload static/dynamic check and
  pointer-kind accounting (:class:`~repro.obs.metrics.MetricsReport`),
  deterministic by construction;
* :mod:`repro.obs.diff` — threshold-gated comparison of two reports,
  the substrate of the CI regression gate
  (``repro metrics diff --fail-on-regress``);
* :mod:`repro.obs.provenance` / :mod:`repro.obs.blame` — the blame
  graph recorded during inference and the explain/forensics layer on
  top of it (``repro explain``, failure blame chains);
* :mod:`repro.obs.profile` — the phase profiler: folds span captures
  (single-process or merged multi-worker) into a deterministic
  per-phase/per-workload breakdown (``repro profile``).
"""

from repro.obs.blame import (EXPLAIN_SCHEMA, BlameChain, BlameGraph,
                             diff_explain, explain_report,
                             render_chain, render_explain,
                             render_explain_diff)
from repro.obs.diff import (DiffResult, Finding, Thresholds,
                            diff_reports, render_diff)
from repro.obs.provenance import (SEED_CAUSES, SPREAD_CAUSES,
                                  Provenance, describe)
from repro.obs.metrics import (SCHEMA, MetricsReport, SiteStat,
                               WorkloadMetrics,
                               collect_workload_metrics,
                               render_report, site_table)
from repro.obs.profile import (NONDET_PHASES, PROFILE_SCHEMA,
                               PhaseStat, ProfileReport,
                               collect_profile, fold_spans,
                               phase_key, profile_workload,
                               render_profile)
from repro.obs.serialize import (load_json, round_floats,
                                 stable_dumps, write_json)
from repro.obs.tracer import (TRACER, SpanRecord, Tracer,
                              chrome_trace, phase_seconds_of, span,
                              spans_from_wire, spans_to_wire,
                              write_chrome_trace)

__all__ = [
    "EXPLAIN_SCHEMA", "BlameChain", "BlameGraph", "diff_explain",
    "explain_report", "render_chain", "render_explain",
    "render_explain_diff",
    "SEED_CAUSES", "SPREAD_CAUSES", "Provenance", "describe",
    "chrome_trace", "write_chrome_trace",
    "DiffResult", "Finding", "Thresholds", "diff_reports",
    "render_diff",
    "SCHEMA", "MetricsReport", "SiteStat", "WorkloadMetrics",
    "collect_workload_metrics", "render_report",
    "site_table",
    "NONDET_PHASES", "PROFILE_SCHEMA", "PhaseStat", "ProfileReport",
    "collect_profile", "fold_spans", "phase_key",
    "profile_workload", "render_profile",
    "load_json", "round_floats", "stable_dumps", "write_json",
    "TRACER", "SpanRecord", "Tracer", "phase_seconds_of", "span",
    "spans_from_wire", "spans_to_wire",
]

"""Pipeline observability: structured tracing and per-site metrics.

Importable without pulling the heavy pipeline modules:

* :mod:`repro.obs.tracer` — span/event tracing with a shared global
  :data:`~repro.obs.tracer.TRACER`; zero-cost while disabled; its
  :func:`~repro.obs.tracer.phase_seconds_of` is the one span fold
  (``repro metrics --timing``);
* :mod:`repro.obs.metrics` — per-workload static/dynamic check and
  pointer-kind accounting (:class:`~repro.obs.metrics.MetricsReport`),
  deterministic by construction, so two reports compare with
  ``diff -u`` (CI's gate against ``baselines/metrics-baseline.json``);
* :mod:`repro.obs.provenance` / :mod:`repro.obs.blame` — the blame
  graph recorded during inference and the explain/forensics layer on
  top of it (``repro explain``, failure blame chains).
"""

from repro.obs.blame import (EXPLAIN_SCHEMA, BlameChain, BlameGraph,
                             diff_explain, explain_report,
                             render_chain, render_explain,
                             render_explain_diff)
from repro.obs.provenance import (SEED_CAUSES, SPREAD_CAUSES,
                                  Provenance, describe)
from repro.obs.metrics import (SCHEMA, MetricsReport, SiteStat,
                               WorkloadMetrics,
                               collect_workload_metrics,
                               render_report, site_table)
from repro.obs.serialize import load_json, round_floats, stable_dumps
from repro.obs.tracer import (TRACER, SpanRecord, Tracer,
                              chrome_trace, phase_key,
                              phase_seconds_of, span, spans_from_wire,
                              spans_to_wire, write_chrome_trace)

__all__ = [
    "EXPLAIN_SCHEMA", "BlameChain", "BlameGraph", "diff_explain",
    "explain_report", "render_chain", "render_explain",
    "render_explain_diff",
    "SEED_CAUSES", "SPREAD_CAUSES", "Provenance", "describe",
    "chrome_trace", "write_chrome_trace",
    "SCHEMA", "MetricsReport", "SiteStat", "WorkloadMetrics",
    "collect_workload_metrics", "render_report",
    "site_table",
    "load_json", "round_floats", "stable_dumps",
    "TRACER", "SpanRecord", "Tracer", "phase_key", "phase_seconds_of",
    "span",
    "spans_from_wire", "spans_to_wire",
]

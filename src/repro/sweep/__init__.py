"""Multiprocess sharded sweeps over the workload matrix.

:mod:`.runner` is the mechanism — picklable per-workload task
functions and a :class:`~concurrent.futures.ProcessPoolExecutor` pool
whose results merge in submission order, run inline at ``jobs=1``.
:mod:`.drivers` is the policy — one ``sharded_*`` driver per CLI sweep
(metrics, lint, campaign, analyze, lint validation) plus the ``repro
sweep`` matrix driver.  Every driver has exactly one code path, so its
output is byte-identical at every ``jobs`` value by construction.
Shards share the content-addressed cure cache (:mod:`repro.cache`),
so the matrix pays each parse/cure once.
"""

from repro.sweep.drivers import (SweepArtifact, SweepSummary,
                                 count_sweep_shards, run_sweep,
                                 sharded_analyze, sharded_campaign,
                                 sharded_lint, sharded_lintval,
                                 sharded_metrics)
from repro.sweep.progress import ProgressLine
from repro.sweep.runner import (resolve_jobs, run_sharded, run_task,
                                run_task_traced)

__all__ = [
    "SweepArtifact", "SweepSummary", "count_sweep_shards",
    "run_sweep",
    "sharded_analyze", "sharded_campaign", "sharded_lint",
    "sharded_lintval", "sharded_metrics",
    "ProgressLine",
    "resolve_jobs", "run_sharded", "run_task", "run_task_traced",
]

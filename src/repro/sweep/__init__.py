"""Multiprocess sharded sweeps over the workload suite.

:mod:`.runner` is the mechanism — picklable per-workload task
functions and a :class:`~concurrent.futures.ProcessPoolExecutor` pool
whose results merge in submission order, run inline at ``jobs=1``.
:mod:`.drivers` is the policy — one ``sharded_*`` driver per CLI sweep
(metrics, lint, campaign, analyze, lint validation).  Every driver has
exactly one code path, so its output is byte-identical at every
``jobs`` value by construction.  Shards share the content-addressed
cure cache (:mod:`repro.cache`), so the sweeps pay each parse/cure
once.
"""

from repro.sweep.drivers import (sharded_analyze, sharded_campaign,
                                 sharded_lint, sharded_lintval,
                                 sharded_metrics)
from repro.sweep.progress import ProgressLine
from repro.sweep.runner import (resolve_jobs, run_sharded, run_task,
                                run_task_traced)

__all__ = [
    "sharded_analyze", "sharded_campaign", "sharded_lint",
    "sharded_lintval", "sharded_metrics",
    "ProgressLine",
    "resolve_jobs", "run_sharded", "run_task", "run_task_traced",
]

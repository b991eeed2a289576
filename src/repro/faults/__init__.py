"""Deterministic fault injection for cured programs.

The paper's security argument is a *differential* one: a memory-safety
bug that silently corrupts an uninstrumented run must terminate a
cured run with a clean :class:`~repro.runtime.checks.MemorySafetyError`
at the faulty access.  This package turns that argument into a
repeatable experiment:

* :mod:`repro.faults.mutators` builds seeded "attack variants" of any
  workload by grafting a small faulty program prefix into its ``main``
  — one mutation class per error subclass of the taxonomy;
* :mod:`repro.faults.campaign` cures and executes every variant under
  both execution engines (and raw, for the differential), asserting
  that the cured runs trap with the expected error class, identically
  across engines (:func:`repro.sweep.sharded_campaign` runs a whole
  campaign, one workload per shard);
* :mod:`repro.faults.report` renders the campaign outcome as
  deterministic JSON and a markdown table.

Same seed, same campaign → bit-identical report.
"""

from repro.faults.campaign import (CAMPAIGNS, CampaignReport,
                                   VariantReport, campaign_workload,
                                   select_campaign)
from repro.faults.mutators import (MUTATORS, FaultSpec, graft,
                                   make_variant)
from repro.faults.report import report_to_json, report_to_markdown

__all__ = [
    "CAMPAIGNS", "CampaignReport", "VariantReport",
    "campaign_workload", "select_campaign",
    "MUTATORS", "FaultSpec", "graft", "make_variant",
    "report_to_json", "report_to_markdown",
]

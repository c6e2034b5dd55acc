"""Fault injection, retry/recovery policies, and crash-safe journals.

The substrate that lets the reproduction hold its execution machinery to the
same standard as its shields: deterministic scripted faults
(:class:`FaultPlan`), per-shard/per-slot recovery with deterministic backoff
(:class:`RetryPolicy`, applied by the one fork runner in
:mod:`repro.faults.runner`), structured recovery provenance (:class:`FaultLog`),
and append-only journals (:class:`RowJournal`, :class:`ShardManifest`) that
make sweeps and campaigns resumable after a SIGKILL.

Named end-to-end chaos scenarios live in :mod:`repro.faults.scenarios` and
behind the ``repro chaos`` CLI.
"""

from .journal import JournalError, RowJournal, ShardManifest
from .plan import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    deactivate,
    fault_plan,
    fault_site,
)
from .retry import FaultEvent, FaultLog, RetryPolicy
from .scenarios import SCENARIOS, run_scenario, scenario_names

__all__ = [
    "SCENARIOS",
    "run_scenario",
    "scenario_names",
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "FaultEvent",
    "FaultLog",
    "RetryPolicy",
    "JournalError",
    "RowJournal",
    "ShardManifest",
    "activate",
    "active_plan",
    "deactivate",
    "fault_plan",
    "fault_site",
]

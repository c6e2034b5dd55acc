"""Static analysis of shield artifacts by abstract interpretation.

The abstract domain is the interval box (reusing :func:`polynomial_range`,
the soundness core of the branch-and-bound verifier).  Three consumers:

* ``repro lint`` / :func:`lint_store` — coded diagnostics (``A001``–``A008``)
  over stored artifacts;
* the :class:`~repro.store.ShieldStore` validation gate — error-severity
  findings reject an artifact at ``put`` time, warnings are recorded in
  provenance;
* the CEGIS static pre-filter — :func:`statically_refuted` proves candidate
  programs unsafe by interval reachability before any simulation or
  certificate search is paid for.
"""

from .diagnostics import DIAGNOSTIC_CODES, SEVERITIES, AnalysisReport, Diagnostic
from .interval_eval import (
    box_to_intervals,
    clip_interval,
    expr_interval,
    invariant_interval,
    polyblock_output_intervals,
    program_output_intervals,
)
from .lint import (
    DEFAULT_CONFIG,
    AnalysisConfig,
    analyze_artifact,
    analyze_invariant,
    analyze_program,
    lint_store,
)
from .refute import statically_refuted

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "DEFAULT_CONFIG",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "SEVERITIES",
    "analyze_artifact",
    "analyze_invariant",
    "analyze_program",
    "box_to_intervals",
    "clip_interval",
    "expr_interval",
    "invariant_interval",
    "lint_store",
    "polyblock_output_intervals",
    "program_output_intervals",
    "statically_refuted",
]

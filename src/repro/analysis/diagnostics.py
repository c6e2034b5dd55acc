"""Coded diagnostics and reports of the static shield analyzer.

Every finding the abstract interpreter produces is a :class:`Diagnostic` with
a stable code (``A001``–``A008``), a severity, a human-readable location
inside the artifact (``branches[2].guard``, ``outputs[0]``), and optionally a
concrete witness state.  Severity semantics:

* ``error`` — the artifact is provably broken (the analyzer holds a proof or
  a concrete witness): executing it can violate the environment contract or
  raise at runtime.  The store's validation gate rejects these.
* ``warning`` — the artifact is suspicious but executable: dead code,
  ill-conditioned coefficients, a loose lowering error bound.  Recorded in
  provenance, never rejected.

The code table (kept in sync with the README's "Static analysis" section):

======  ========  =====================================================
code    severity  meaning
======  ========  =====================================================
A001    error     program output provably exits the action space
A002    warning   guard unsatisfiable over the reachable box (dead branch)
A003    warning   fallback unreachable (an earlier guard always holds)
A004    error     strict dispatch can raise ``UnreachableBranchError``
A005    error     dimension mismatch against the environment
A006    error/    non-finite coefficients (error); ill-conditioned
        warning   magnitudes or degree blow-up (warning)
A007    warning   lowering-plan float-error bound exceeds the tolerance
A008    error     the recorded environment cannot be rebuilt from its
                  recorded overrides
======  ========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Diagnostic", "AnalysisReport", "DIAGNOSTIC_CODES", "SEVERITIES"]

SEVERITIES = ("warning", "error")

#: code -> one-line title (the lint CLI and README table derive from this).
DIAGNOSTIC_CODES: Dict[str, str] = {
    "A001": "action-bound violation",
    "A002": "dead guard branch",
    "A003": "fallback unreachable",
    "A004": "coverage gap (strict dispatch can abort)",
    "A005": "dimension mismatch",
    "A006": "non-finite or ill-conditioned coefficients",
    "A007": "lowering float-error bound exceeded",
    "A008": "recorded environment cannot be rebuilt",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    severity: str
    code: str
    location: str
    message: str
    #: Concrete witness state, when the finding is sample-backed (A004).
    witness: Optional[tuple] = None
    #: Structured detail (branch/output indices, bounds) for programmatic use.
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def describe(self) -> str:
        witness = f" (witness {list(self.witness)})" if self.witness is not None else ""
        return f"{self.code} {self.severity} @ {self.location}: {self.message}{witness}"

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "severity": self.severity,
            "code": self.code,
            "location": self.location,
            "message": self.message,
        }
        if self.witness is not None:
            payload["witness"] = [float(v) for v in self.witness]
        if self.data:
            payload["data"] = dict(self.data)
        return payload


@dataclass
class AnalysisReport:
    """All findings of one analysis pass over one subject."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: The environment fingerprint the dimension checks ran against (None when
    #: no environment was available or its dynamics are not lowerable).
    environment_fingerprint: Optional[str] = None

    def add(
        self,
        severity: str,
        code: str,
        location: str,
        message: str,
        witness: Optional[Sequence[float]] = None,
        **data: Any,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                severity=severity,
                code=code,
                location=location,
                message=message,
                witness=tuple(float(v) for v in witness) if witness is not None else None,
                data=data,
            )
        )

    # ------------------------------------------------------------- queries
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was produced."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when no finding of any severity was produced."""
        return not self.diagnostics

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def select(self, code: Optional[str] = None, severity: Optional[str] = None):
        return [
            d
            for d in self.diagnostics
            if (code is None or d.code == code)
            and (severity is None or d.severity == severity)
        ]

    def extend(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -------------------------------------------------------------- output
    def summary(self) -> Dict[str, Any]:
        return {
            "subject": self.subject,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "codes": self.codes(),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "subject": self.subject,
            "environment_fingerprint": self.environment_fingerprint,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def pretty(self) -> str:
        header = self.subject or "(analysis)"
        if self.clean:
            return f"{header}: clean"
        lines = [f"{header}: {len(self.errors)} error(s), {len(self.warnings)} warning(s)"]
        for diagnostic in self.diagnostics:
            lines.append(f"  {diagnostic.describe()}")
        return "\n".join(lines)

"""Independent re-check of an accepted invariant against conditions (8)-(10).

Every invariant the toolchain accepts — from the Lyapunov backend, the
barrier search, or a serialized artifact — can be *audited* here.  The audit
states the problem afresh from the environment (the closed loop is re-lowered
from the dynamics, and the disturbance bound is modelled) and discharges the
obligations of :mod:`repro.certificates.conditions`, the list the barrier
search proves, with a *fresh* prover, so a bug in the search cannot certify
itself.  The ``"bnb"`` engine uses branch-and-bound throughout; ``"farkas"``
proves (8) and (9) with :class:`~repro.certificates.farkas.FarkasVerifier`
and keeps branch-and-bound for (10), whose left-hand side vanishes on the
invariant boundary, which Handelman representations cannot express.

Every condition is reported; within one, the obligations after its first
failure are skipped.  A concrete counterexample reads FAIL; a proof that ran
out of budget, or found no Farkas certificate, reads INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..lang.invariant import Invariant
from .conditions import SafetyProblem, Verdict
from .farkas import FarkasVerifier
from .regions import Box

__all__ = ["InvariantAuditReport", "audit_invariant", "audit_shield"]


@dataclass
class InvariantAuditReport:
    """The verdicts on one invariant's obligations, in obligation order.

    ``unchecked`` says why no obligation could be stated (the closed loop has
    no polynomial form); every condition then counts as not holding.
    """

    verdicts: List[Verdict] = field(default_factory=list)
    engine: str = "bnb"
    unchecked: str = ""

    def _holds(self, kind: str) -> bool:
        return not self.unchecked and all(
            verdict.holds for verdict in self.verdicts if verdict.obligation.kind == kind
        )

    @property
    def unsafe_positive(self) -> bool:
        """Condition (8): ``E > 0`` on the unsafe cover."""
        return self._holds("unsafe")

    @property
    def init_nonpositive(self) -> bool:
        """Condition (9): ``E ≤ 0`` on the initial region."""
        return self._holds("init")

    @property
    def inductive(self) -> bool:
        """Condition (10): successors stay in ``{E ≤ 0}`` and in the domain."""
        return self._holds("induction")

    @property
    def all_hold(self) -> bool:
        return self.unsafe_positive and self.init_nonpositive and self.inductive

    @property
    def failures(self) -> List[Verdict]:
        return [verdict for verdict in self.verdicts if not verdict.holds]

    @property
    def refuted(self) -> bool:
        """Whether some obligation has a concrete counterexample."""
        return any(verdict.refuted for verdict in self.verdicts)

    @property
    def counterexample(self) -> Optional[np.ndarray]:
        """The first failing obligation's counterexample, if it has one."""
        failures = self.failures
        return failures[0].counterexample if failures else None

    @property
    def details(self) -> List[str]:
        lines = [f"conditions not checkable: {self.unchecked}"] if self.unchecked else []
        return lines + [verdict.describe() for verdict in self.failures]

    @property
    def status(self) -> str:
        """PASS, FAIL (some condition refuted) or INCONCLUSIVE (none refuted, not all proved)."""
        if self.all_hold:
            return "PASS"
        return "FAIL" if self.refuted else "INCONCLUSIVE"

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.all_hold

    def summary(self) -> str:
        return (
            f"[{self.status}] (8) unsafe>0: {self.unsafe_positive}  "
            f"(9) init<=0: {self.init_nonpositive}  (10) inductive: {self.inductive}"
        )


def audit_invariant(
    env,
    program,
    invariant: Invariant,
    engine: str = "bnb",
    max_boxes: int = 120_000,
) -> InvariantAuditReport:
    """Audit one ``(P, φ)`` pair against verification conditions (8)-(10) on ``S0``.

    ``program`` must be lowerable to polynomials (any single-branch program
    drawn from a sketch); for the guarded multi-branch output of CEGIS use
    :func:`audit_shield`, which audits each branch in its own region.
    """
    return _audit(env, program, invariant, engine, max_boxes, init_box=None)


def audit_shield(
    env,
    guarded_program,
    engine: str = "bnb",
    max_boxes: int = 120_000,
    regions: Optional[Sequence[Box]] = None,
) -> List[InvariantAuditReport]:
    """Audit every branch of a CEGIS-produced guarded program.

    Theorem 4.2 composes per-branch invariants, so the audit checks each
    ``(P_i, φ_i)`` pair separately.  CEGIS proves each branch on its own
    initial region, so condition (9) is checked on ``regions[i]`` (the
    artifact's recorded ``branch_regions``); branches without a recorded
    region fall back to ``S0``.
    """
    reports = []
    for index, (invariant, program) in enumerate(guarded_program.branches):
        init_box = regions[index] if regions is not None and index < len(regions) else None
        reports.append(_audit(env, program, invariant, engine, max_boxes, init_box))
    return reports


def _audit(env, program, invariant, engine, max_boxes, init_box) -> InvariantAuditReport:
    if engine not in ("bnb", "farkas"):
        raise ValueError(f"unknown audit engine {engine!r}; use 'bnb' or 'farkas'")
    try:
        problem = SafetyProblem.from_env(env, program, init_box)
    except ValueError as error:
        return InvariantAuditReport(engine=engine, unchecked=str(error))
    bnb = problem.verifier(max_boxes)
    boundary = FarkasVerifier() if engine == "farkas" else bnb
    report = InvariantAuditReport(engine=engine)
    failed = set()
    for obligation in problem.obligations(invariant):
        if obligation.kind in failed:
            continue
        prover = bnb if obligation.kind == "induction" else boundary
        verdict = obligation.discharge(prover)
        report.verdicts.append(verdict)
        if not verdict.holds:
            failed.add(obligation.kind)
    return report

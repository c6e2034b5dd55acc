"""Verification substrate: regions, decision procedures, certificate backends.

``repro.certificates`` is the single public entry point to the proving stack:

* **regions** — boxes, complements, unions (the domains of every query);
* **decision procedures** — interval branch-and-bound
  (:class:`BranchAndBoundVerifier`) and Handelman/Farkas LP certificates
  (:class:`FarkasVerifier`);
* **certificate backends** — the provers behind the verification kernel
  (:class:`CertificateBackend` protocol and the fixed backend registry),
  plus the concrete synthesizers they wrap;
* **conditions** — the paper's verification conditions (8)-(10), stated once
  as a list of obligations over a :class:`SafetyProblem`; the barrier
  search, the ``farkas`` backend and the audit all discharge that list;
* **auditing** — independent re-checks of accepted invariants against those
  obligations.

The Handelman helpers of :mod:`repro.certificates.farkas` are not part of the
public surface; :class:`FarkasVerifier` is the supported entry point.
"""

from .audit import InvariantAuditReport, audit_invariant, audit_shield
from .backend import (
    BarrierBackend,
    CertificateBackend,
    FarkasBackend,
    LyapunovBackend,
    SOSBackend,
    VerificationOutcome,
    available_backends,
    backend_names,
    get_backend,
    is_disturbed,
    is_linear_closed_loop,
)
from .barrier import BarrierCertificateSynthesizer, BarrierSearchResult, BarrierSynthesisConfig
from .conditions import SafetyProblem
from .farkas import FarkasResult, FarkasVerifier
from .lyapunov import (
    QuadraticCertificateResult,
    QuadraticCertificateSynthesizer,
    closed_loop_matrix,
)
from .interval_batch import IntervalTable, eval_points, lower_interval, range_boxes
from .regions import Box, BoxComplement, EmptyRegion, Region, UnionRegion, box_difference
from .smt import (
    BranchAndBoundVerifier,
    CheckResult,
    find_uncovered_point,
    prove_nonpositive,
    prove_positive,
)
from .sos import SOSResult, is_sos, sos_decompose

__all__ = [
    # regions
    "Region",
    "Box",
    "BoxComplement",
    "UnionRegion",
    "EmptyRegion",
    "box_difference",
    # decision procedures
    "BranchAndBoundVerifier",
    "CheckResult",
    "prove_nonpositive",
    "prove_positive",
    "find_uncovered_point",
    # batched interval kernels
    "IntervalTable",
    "lower_interval",
    "range_boxes",
    "eval_points",
    "FarkasResult",
    "FarkasVerifier",
    # backend protocol + registry
    "CertificateBackend",
    "VerificationOutcome",
    "LyapunovBackend",
    "SOSBackend",
    "BarrierBackend",
    "FarkasBackend",
    "get_backend",
    "available_backends",
    "backend_names",
    "is_linear_closed_loop",
    "is_disturbed",
    # verification conditions
    "SafetyProblem",
    # synthesizers the backends wrap
    "BarrierCertificateSynthesizer",
    "BarrierSearchResult",
    "BarrierSynthesisConfig",
    "QuadraticCertificateSynthesizer",
    "QuadraticCertificateResult",
    "closed_loop_matrix",
    "SOSResult",
    "sos_decompose",
    "is_sos",
    # auditing
    "InvariantAuditReport",
    "audit_invariant",
    "audit_shield",
]

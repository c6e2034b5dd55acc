"""The certificate-backend protocol and the fixed backend registry.

Every prover that can discharge the paper's verification conditions (8)-(10)
for a candidate program is a :class:`CertificateBackend`: it answers a cheap
structural :meth:`~CertificateBackend.supports` probe and proves (or refutes)
a single ``(environment, program, init box)`` query, returning a structured
:class:`VerificationOutcome`.

Four backends ship with the reproduction, registered in this fixed order:

===========  ========================================================
name         technique
===========  ========================================================
lyapunov     exact discrete Lyapunov ellipsoids (linear loops only)
sos          Lyapunov search + SOS certificate of the decrease form
barrier      sampled-LP barrier search + interval branch-and-bound
farkas       barrier search + Handelman/Farkas re-certification
===========  ========================================================

All four model the disturbance term of condition (10).
:class:`~repro.core.verification.VerificationKernel` dispatches over them:
``VerificationConfig(backend="auto")`` runs ``lyapunov`` on linear closed
loops, then ``barrier``; any registered name runs that one backend alone
(``sos`` and ``farkas`` run only when named), and unknown names raise with
the list of registered backends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..lang.invariant import Invariant
from ..lang.program import AffineProgram
from ..lang.sketch import InvariantSketch
from ..polynomials import Monomial
from .barrier import BarrierCertificateSynthesizer
from .conditions import SafetyProblem
from .farkas import FarkasVerifier
from .lyapunov import QuadraticCertificateSynthesizer, closed_loop_matrix
from .regions import Box
from .sos import sos_decompose

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..envs.base import EnvironmentContext

__all__ = [
    "VerificationOutcome",
    "CertificateBackend",
    "LyapunovBackend",
    "SOSBackend",
    "BarrierBackend",
    "FarkasBackend",
    "get_backend",
    "available_backends",
    "backend_names",
    "is_linear_closed_loop",
    "is_disturbed",
]

# ------------------------------------------------------------------ data model
@dataclass
class VerificationOutcome:
    """Result of attempting to verify a program in an environment.

    ``backend`` names the prover that produced the verdict; ``attempts`` is the
    dispatch provenance (every backend tried, in order);
    ``disturbance_aware`` records whether the verdict models the environment's
    disturbance bound; ``from_cache``/``cache_key`` tie the outcome to the
    store-backed verdict cache when one served or recorded it.
    """

    verified: bool
    invariant: Optional[Invariant]
    backend: str
    wall_clock_seconds: float
    failure_reason: str = ""
    counterexample: Optional[np.ndarray] = None
    margin: float = 0.0
    disturbance_aware: bool = True
    attempts: Tuple[str, ...] = ()
    from_cache: bool = False
    cache_key: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


class CertificateBackend(Protocol):
    """Structural protocol every certificate backend satisfies."""

    name: str

    def supports(self, env: "EnvironmentContext", program) -> bool:
        """Cheap structural probe: can this backend even attempt the query?"""
        ...  # pragma: no cover - protocol stub

    def verify(
        self,
        env: "EnvironmentContext",
        program,
        init_box: Box,
        config,
        recorder=None,
        deadline: Optional[float] = None,
    ) -> VerificationOutcome:
        """Prove (or refute) the query; ``deadline`` is an absolute
        ``time.perf_counter()`` instant the backend should not run past."""
        ...  # pragma: no cover - protocol stub


# ----------------------------------------------------------------- predicates
def is_linear_closed_loop(env: "EnvironmentContext", program) -> bool:
    """Whether ``C[P]`` is an LTI map: linear dynamics and a bias-free affine program."""
    return (
        env.linear_matrices() is not None
        and isinstance(program, AffineProgram)
        and not np.any(program.bias)
    )


def is_disturbed(env: "EnvironmentContext") -> bool:
    """Whether the environment carries a nonzero disturbance bound."""
    return env.disturbance_bound is not None and bool(np.any(env.disturbance_bound))


# ------------------------------------------------------------------- backends
class LyapunovBackend:
    """Exact quadratic (ellipsoidal) invariants for linear closed loops.

    Disturbance-aware: bounded additive disturbances are handled through the
    contraction-margin argument of
    :class:`~repro.certificates.lyapunov.QuadraticCertificateSynthesizer`.
    """

    name = "lyapunov"

    def supports(self, env, program) -> bool:
        return is_linear_closed_loop(env, program)

    def _synthesizer(self, env, program, init_box: Box) -> QuadraticCertificateSynthesizer:
        a_matrix, b_matrix = env.linear_matrices()
        closed = closed_loop_matrix(a_matrix, b_matrix, program.gain, env.dt)
        return QuadraticCertificateSynthesizer(
            closed_loop=closed,
            init_box=init_box,
            safe_box=env.safe_box,
            dt=env.dt,
            disturbance_bound=env.disturbance_bound,
        )

    def verify(self, env, program, init_box, config, recorder=None, deadline=None):
        start = time.perf_counter()
        if not self.supports(env, program):
            return VerificationOutcome(
                verified=False,
                invariant=None,
                backend=self.name,
                wall_clock_seconds=time.perf_counter() - start,
                failure_reason=(
                    f"{self.name} backend requires a linear environment and affine program"
                ),
            )
        result = self._synthesizer(env, program, init_box).search()
        invariant = result.invariant
        if invariant is not None:
            invariant = Invariant(
                barrier=invariant.barrier,
                margin=invariant.margin,
                names=tuple(env.state_names),
            )
        return VerificationOutcome(
            verified=result.verified,
            invariant=invariant,
            backend=self.name,
            wall_clock_seconds=time.perf_counter() - start,
            failure_reason=result.failure_reason,
        )


class SOSBackend(LyapunovBackend):
    """Lyapunov search plus an explicit SOS certificate of the decrease form.

    The paper's artifact certifies condition (10) with an SOS programming
    solver; this backend reproduces that style of evidence: after the
    quadratic search (which already handles the disturbance contraction) it
    re-certifies the global decrease polynomial ``E(s) − E(s′) = sᵀ(P − MᵀPM)s``
    with an explicit PSD Gram decomposition.  SAFE verdicts therefore come with
    a machine-checkable SOS witness on top of the Lyapunov algebra.
    """

    name = "sos"

    def __init__(self, tolerance: float = 1e-6, max_iterations: int = 2000) -> None:
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)

    def verify(self, env, program, init_box, config, recorder=None, deadline=None):
        start = time.perf_counter()
        outcome = super().verify(env, program, init_box, config, recorder, deadline)
        if not outcome.verified:
            return VerificationOutcome(
                verified=False,
                invariant=None,
                backend=self.name,
                wall_clock_seconds=time.perf_counter() - start,
                failure_reason=outcome.failure_reason,
            )
        a_matrix, b_matrix = env.linear_matrices()
        closed = closed_loop_matrix(a_matrix, b_matrix, program.gain, env.dt)
        # The accepted invariant is E(s) = sᵀPs − c; stripping the constant
        # level leaves the quadratic form, whose decrease along the closed loop
        # sᵀ(P − MᵀPM)s must be globally non-negative — certify it as SOS.
        barrier = outcome.invariant.barrier
        shape = barrier - barrier.coefficient(Monomial.constant(barrier.num_vars))
        decrease = shape - shape.compose_affine(closed, np.zeros(closed.shape[0]))
        sos = sos_decompose(
            decrease, max_iterations=self.max_iterations, tolerance=self.tolerance
        )
        if not sos.is_sos:
            return VerificationOutcome(
                verified=False,
                invariant=None,
                backend=self.name,
                wall_clock_seconds=time.perf_counter() - start,
                failure_reason=(
                    "no SOS certificate for the decrease polynomial "
                    f"(residual {sos.residual:.3e} after {sos.iterations} iterations)"
                ),
            )
        return VerificationOutcome(
            verified=True,
            invariant=outcome.invariant,
            backend=self.name,
            wall_clock_seconds=time.perf_counter() - start,
        )


class BarrierBackend:
    """Sampled-LP barrier search with a sound interval branch-and-bound check.

    Handles any polynomial closed loop; since the disturbance-aware rewrite of
    :class:`~repro.certificates.barrier.BarrierCertificateSynthesizer` the
    worst-case disturbance term of condition (10) is encoded into both the LP
    rows and the lifted sound check, so SAFE verdicts on disturbed nonlinear
    environments are genuine certificates.
    """

    name = "barrier"

    def supports(self, env, program) -> bool:
        return hasattr(program, "to_polynomials")

    def verify(self, env, program, init_box, config, recorder=None, deadline=None):
        return self._verify(env, program, init_box, config, recorder, deadline)

    def _recertify(self, problem: SafetyProblem, invariant: Invariant) -> str:
        """Why a certificate the search proved is refused after all (``""``: it is not)."""
        return ""

    def _verify(self, env, program, init_box, config, recorder, deadline):
        """Run the LP search on ``env``'s problem, then :meth:`_recertify` its proof."""
        from dataclasses import replace as dc_replace

        start = time.perf_counter()

        def outcome(verified=False, invariant=None, **fields) -> VerificationOutcome:
            return VerificationOutcome(
                verified=verified,
                invariant=invariant,
                backend=self.name,
                wall_clock_seconds=time.perf_counter() - start,
                **fields,
            )

        try:
            problem = SafetyProblem.from_env(env, program, init_box)
        except ValueError as error:
            return outcome(failure_reason=f"cannot lower the closed loop to polynomials: {error}")
        barrier_config = config.barrier
        if deadline is not None:
            remaining = max(deadline - time.perf_counter(), 1e-3)
            budget = barrier_config.time_budget_seconds
            barrier_config = dc_replace(
                barrier_config,
                time_budget_seconds=(
                    remaining if budget is None else min(budget, remaining)
                ),
            )
        result = BarrierCertificateSynthesizer(
            sketch=InvariantSketch(
                state_dim=env.state_dim, degree=config.invariant_degree, names=env.state_names
            ),
            problem=problem,
            config=barrier_config,
            verifier=problem.verifier(config.verifier_max_boxes),
            on_counterexample=recorder,
        ).search()
        if not result.verified:
            counterexamples = result.counterexamples
            return outcome(
                failure_reason=result.failure_reason,
                counterexample=counterexamples[-1] if counterexamples else None,
            )
        refusal = self._recertify(problem, result.invariant)
        if refusal:
            return outcome(failure_reason=refusal)
        return outcome(True, result.invariant, margin=result.margin)


class FarkasBackend(BarrierBackend):
    """Barrier search re-certified with Handelman/Farkas LP representations.

    The candidate invariant comes from the same sampled-LP + branch-and-bound
    search as the ``barrier`` backend; a SAFE verdict additionally requires
    :class:`~repro.certificates.farkas.FarkasVerifier` to discharge the
    obligations of conditions (9) and (8) — a quantifier-free Handelman
    representation on the initial box and on the unsafe cover (the
    Gulwani-Tiwari style of quantifier elimination the paper cites).
    Condition (10) keeps the branch-and-bound proof: its left-hand side
    vanishes on the invariant boundary, which Handelman representations
    cannot express.

    Disturbance-aware: conditions (8) and (9) do not involve the transition
    relation, and the inner search discharges condition (10) with the
    disturbance-aware lifted encoding.
    """

    name = "farkas"

    # Its own entry point, not the inherited one, so that a wrapper placed on
    # one backend class's ``verify`` never sees the other backend's calls.
    def verify(self, env, program, init_box, config, recorder=None, deadline=None):
        return self._verify(env, program, init_box, config, recorder, deadline)

    def _recertify(self, problem: SafetyProblem, invariant: Invariant) -> str:
        prover = FarkasVerifier()
        for obligation in problem.obligations(invariant):
            if obligation.kind == "induction":
                break  # the search's branch-and-bound proof of (10) stands
            verdict = obligation.discharge(prover)
            if not verdict.holds:
                return f"{obligation.label} has no Handelman certificate: {verdict.reason}"
        return ""


# ------------------------------------------------------------------- registry
_REGISTRY: Dict[str, CertificateBackend] = {
    backend.name: backend
    for backend in (LyapunovBackend(), SOSBackend(), BarrierBackend(), FarkasBackend())
}


def get_backend(name: str) -> CertificateBackend:
    """Look up a registered backend; unknown names raise with the known list."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown verification backend {name!r}; "
            f"available backends: {backend_names()} (or 'auto')"
        ) from None


def available_backends() -> List[CertificateBackend]:
    """All registered backends: lyapunov, sos, barrier, farkas."""
    return list(_REGISTRY.values())


def backend_names() -> List[str]:
    """Registered backend names, in registry order."""
    return list(_REGISTRY)

"""The verification kernel (the Verify step of Algorithm 2).

Given an environment context ``C`` and a candidate program ``P``, this module
proves that ``C[P]`` never reaches an unsafe state by searching for an
inductive invariant ``φ``.  The proving work itself lives in the certificate
backends of :mod:`repro.certificates.backend` (``lyapunov``, ``sos``,
``barrier``, ``farkas``); this module is the *dispatcher*:

* :class:`VerificationConfig` names one backend, or ``"auto"``;
* :class:`VerificationKernel` runs a named backend alone; ``"auto"`` runs
  ``lyapunov`` when the closed loop is linear, then ``barrier`` when the
  program lowers to polynomials, stopping at the first proof, each under
  an optional wall-clock budget;
* every verdict is a structured :class:`VerificationOutcome` carrying backend
  provenance (``backend``, ``attempts``, ``disturbance_aware``) plus the
  failing counterexample, which the kernel routes into the caller's recorder
  (the CEGIS counterexample replay cache);
* with a :class:`~repro.store.VerdictCache` attached, verdicts are memoised
  under ``(program fingerprint, environment fingerprint, init box, config
  hash)`` — a hit returns the stored outcome *and* re-emits the original
  condition counterexamples through the recorder, so cached and fresh runs
  are observationally identical.

Unknown backend names raise ``ValueError`` listing the registered backends.
:func:`verify_program` remains the convenience entry point used throughout
the toolchain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..certificates.backend import CertificateBackend, VerificationOutcome, get_backend
from ..certificates.barrier import BarrierSynthesisConfig
from ..certificates.regions import Box
from ..envs.base import EnvironmentContext
from ..lang.program import PolicyProgram

__all__ = [
    "VerificationConfig",
    "VerificationOutcome",
    "VerificationKernel",
    "verify_program",
]


#: What ``backend="auto"`` runs, in order, skipping backends that do not
#: support the query: the exact Lyapunov search on linear closed loops, then
#: the barrier search on any program that lowers to polynomials.
_AUTO_SEQUENCE = ("lyapunov", "barrier")


@dataclass
class VerificationConfig:
    """Settings of the invariant-inference step.

    ``backend`` is a registered backend name, which runs alone, or
    ``"auto"``, which runs ``lyapunov`` on linear closed loops and then
    ``barrier``.  ``backend_time_budget_seconds`` bounds each backend's
    wall-clock.
    """

    backend: str = "auto"
    invariant_degree: int = 2
    barrier: BarrierSynthesisConfig = None
    verifier_max_boxes: int = 120_000
    backend_time_budget_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.barrier is None:
            self.barrier = BarrierSynthesisConfig()
        budget = self.backend_time_budget_seconds
        if budget is not None and not budget > 0:
            raise ValueError("backend_time_budget_seconds must be positive")
        if self.verifier_max_boxes < 1:
            raise ValueError("verifier_max_boxes must be at least 1")


class VerificationKernel:
    """Dispatches a query to the named backend or to the auto sequence.

    ``verdict_cache`` (a :class:`~repro.store.VerdictCache`, or anything with
    the same ``key``/``get``/``put`` shape) memoises whole verdicts; ``None``
    disables caching.
    """

    def __init__(
        self,
        config: Optional[VerificationConfig] = None,
        verdict_cache=None,
    ) -> None:
        self.config = config or VerificationConfig()
        self.verdict_cache = verdict_cache

    # ------------------------------------------------------------------ api
    def verify(
        self,
        env: EnvironmentContext,
        program: PolicyProgram,
        init_box: Box | None = None,
        recorder=None,
    ) -> VerificationOutcome:
        """Prove (or refute) ``C[P]`` safe over ``init_box`` (default ``S0``)."""
        init_box = init_box if init_box is not None else env.init_region
        if self.config.backend != "auto":
            get_backend(self.config.backend)  # unknown names fail fast, even on cache hits

        key = None
        if self.verdict_cache is not None:
            key = self.verdict_cache.key(env, program, init_box, self.config)
        if key is not None:
            cached = self.verdict_cache.get(key)
            if cached is not None:
                outcome, records = cached
                if recorder is not None:
                    for record in records:
                        recorder(record["kind"], np.asarray(record["state"], dtype=float))
                return replace(outcome, from_cache=True, cache_key=key)

        captured: List[dict] = []

        def tee(kind: str, state: np.ndarray) -> None:
            captured.append(
                {"kind": kind, "state": np.asarray(state, dtype=float).tolist()}
            )
            if recorder is not None:
                recorder(kind, state)

        outcome = self._dispatch(env, program, init_box, tee)
        if key is not None and self._cacheable(outcome):
            self.verdict_cache.put(key, outcome, captured)
            outcome = replace(outcome, cache_key=key)
        return outcome

    def _cacheable(self, outcome: VerificationOutcome) -> bool:
        """Whether a verdict is safe to memoise.

        Verified outcomes always are — a proof is a proof.  FAILED outcomes
        are only deterministic when no wall-clock budget could have cut the
        search short: a budget-induced failure on a loaded machine must not
        poison the persistent cache for fast machines.
        """
        if outcome.verified:
            return True
        config = self.config
        barrier = config.barrier
        budget_limited = (
            config.backend_time_budget_seconds is not None
            or barrier.time_budget_seconds is not None
            or barrier.lp_time_limit_seconds is not None
        )
        return not budget_limited

    # ------------------------------------------------------------- dispatch
    def _backends(
        self, env: EnvironmentContext, program: PolicyProgram
    ) -> List[CertificateBackend]:
        """The backends to run, in order: the named one, or the auto sequence."""
        if self.config.backend != "auto":
            return [get_backend(self.config.backend)]
        backends = [get_backend(name) for name in _AUTO_SEQUENCE]
        return [backend for backend in backends if backend.supports(env, program)]

    def _dispatch(
        self,
        env: EnvironmentContext,
        program: PolicyProgram,
        init_box: Box,
        recorder,
    ) -> VerificationOutcome:
        config = self.config
        start = time.perf_counter()
        backends = self._backends(env, program)
        if not backends:
            return VerificationOutcome(
                verified=False,
                invariant=None,
                backend="none",
                wall_clock_seconds=time.perf_counter() - start,
                failure_reason=(
                    "no backend supports this query: auto runs lyapunov on linear "
                    "closed loops and barrier on programs that lower to polynomials"
                ),
            )

        attempts: List[str] = []
        budget = config.backend_time_budget_seconds
        for backend in backends:
            deadline = None if budget is None else time.perf_counter() + float(budget)
            outcome = backend.verify(
                env, program, init_box, config, recorder=recorder, deadline=deadline
            )
            attempts.append(backend.name)
            if outcome.verified:
                break
        return replace(
            outcome,
            attempts=tuple(attempts),
            wall_clock_seconds=time.perf_counter() - start,
        )


def verify_program(
    env: EnvironmentContext,
    program: PolicyProgram,
    init_box: Box | None = None,
    config: VerificationConfig | None = None,
    recorder=None,
    verdict_cache=None,
) -> VerificationOutcome:
    """Search for an inductive invariant of ``C[P]`` over ``init_box`` (default ``S0``).

    ``recorder(kind, state)``, when given, receives every concrete
    counterexample the certificate search encounters (condition kind plus the
    violating state) — the hook the CEGIS replay cache and the regression
    corpus recorder hang off of.  ``verdict_cache`` memoises whole verdicts
    (see :class:`VerificationKernel`).
    """
    return VerificationKernel(config, verdict_cache=verdict_cache).verify(
        env, program, init_box, recorder=recorder
    )

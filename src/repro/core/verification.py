"""The verification kernel (the Verify step of Algorithm 2).

Given an environment context ``C`` and a candidate program ``P``, this module
proves that ``C[P]`` never reaches an unsafe state by searching for an
inductive invariant ``φ``.  The proving work itself lives in the pluggable
certificate backends of :mod:`repro.certificates.backend` (``lyapunov``,
``sos``, ``barrier``, ``farkas``); this module is the *dispatcher*:

* :class:`VerificationConfig` selects a backend by registered name, an
  explicit ``portfolio`` order, or ``"auto"``;
* :class:`VerificationKernel` resolves the selection against the backend
  registry and runs **capability-filtered portfolio dispatch**: backends that
  do not structurally support the query are skipped, disturbance-blind
  backends are never used on disturbed environments, the rest run
  cheapest-first under per-backend time budgets, and backends marked redundant
  after an already-failed one are pruned;
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..certificates.backend import (
    CertificateBackend,
    VerificationOutcome,
    available_backends,
    backend_names,
    get_backend,
    is_disturbed,
)
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


@dataclass
class VerificationConfig:
    """Settings of the invariant-inference step.

    ``backend`` is a registered backend name or ``"auto"``; with ``"auto"``
    the kernel dispatches every registered backend cheapest-first,
    capability-filtered and redundancy-pruned.  An explicit ``portfolio``
    tuple (like a named ``backend``) always runs exactly as selected — no
    filtering, no pruning.  ``backend_time_budget_seconds`` bounds each
    portfolio member's wall-clock; ``timeout_seconds`` bounds the whole
    dispatch.
    """

    backend: str = "auto"
    invariant_degree: int = 2
    barrier: BarrierSynthesisConfig = None
    verifier_tolerance: float = 1e-6
    verifier_max_boxes: int = 120_000
    verifier_min_width: float | None = None  # None: domain width / 200
    timeout_seconds: float = float("inf")
    backend_time_budget_seconds: Optional[float] = None
    portfolio: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.barrier is None:
            self.barrier = BarrierSynthesisConfig()
        if self.portfolio is not None:
            self.portfolio = tuple(self.portfolio)


class VerificationKernel:
    """Capability-filtered portfolio dispatch over the backend registry.

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
        self._resolve_selection()  # unknown names fail fast, even on cache hits

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
            or np.isfinite(config.timeout_seconds)
            or barrier.time_budget_seconds is not None
            or barrier.lp_time_limit_seconds is not None
        )
        return not budget_limited

    # ------------------------------------------------------------- dispatch
    def _resolve_selection(self) -> List[CertificateBackend]:
        """The backends the config names, in dispatch order (validated)."""
        config = self.config
        if config.backend != "auto":
            return [get_backend(config.backend)]
        if config.portfolio is not None:
            return [get_backend(name) for name in config.portfolio]
        return available_backends()

    def _eligible(
        self,
        backends: Sequence[CertificateBackend],
        env: EnvironmentContext,
        program: PolicyProgram,
    ) -> List[CertificateBackend]:
        """Capability filter for auto dispatch (explicit selections skip it)."""
        disturbed = is_disturbed(env)
        eligible = []
        for backend in backends:
            if disturbed and not backend.capabilities.disturbance_aware:
                continue
            if not backend.supports(env, program):
                continue
            eligible.append(backend)
        return eligible

    def _dispatch(
        self,
        env: EnvironmentContext,
        program: PolicyProgram,
        init_box: Box,
        recorder,
    ) -> VerificationOutcome:
        config = self.config
        start = time.perf_counter()
        disturbed = is_disturbed(env)
        # A named backend or an explicit portfolio always runs as selected —
        # capability filtering (and redundancy pruning) applies only to the
        # default auto dispatch over the whole registry.
        explicit = config.backend != "auto" or config.portfolio is not None
        backends = self._resolve_selection()
        if not explicit:
            backends = self._eligible(backends, env, program)
            if not backends:
                return VerificationOutcome(
                    verified=False,
                    invariant=None,
                    backend="none",
                    wall_clock_seconds=time.perf_counter() - start,
                    failure_reason=(
                        "no capability-eligible backend for this query "
                        f"(registered: {backend_names()}; "
                        f"disturbed environment: {disturbed})"
                    ),
                    disturbance_aware=True,
                )

        attempts: List[str] = []
        failed: set = set()
        last: Optional[VerificationOutcome] = None
        aware = True
        for backend in backends:
            elapsed = time.perf_counter() - start
            if elapsed >= config.timeout_seconds:
                break
            if not explicit and any(
                name in failed for name in backend.capabilities.redundant_after
            ):
                continue  # an already-failed backend subsumes this one
            deadline = None
            remaining = config.timeout_seconds - elapsed
            budget = config.backend_time_budget_seconds
            if budget is not None or np.isfinite(remaining):
                allowed = min(budget if budget is not None else np.inf, remaining)
                deadline = time.perf_counter() + float(allowed)
            outcome = backend.verify(
                env, program, init_box, config, recorder=recorder, deadline=deadline
            )
            attempts.append(backend.name)
            backend_aware = (not disturbed) or backend.capabilities.disturbance_aware
            if outcome.verified:
                return replace(
                    outcome,
                    attempts=tuple(attempts),
                    wall_clock_seconds=time.perf_counter() - start,
                    disturbance_aware=backend_aware,
                )
            failed.add(backend.name)
            aware = backend_aware
            last = outcome

        if last is None:
            return VerificationOutcome(
                verified=False,
                invariant=None,
                backend=backends[0].name if backends else "none",
                wall_clock_seconds=time.perf_counter() - start,
                failure_reason=(
                    f"verification timed out after {config.timeout_seconds:.1f}s "
                    "before any backend could run"
                ),
                attempts=tuple(attempts),
            )
        return replace(
            last,
            attempts=tuple(attempts),
            wall_clock_seconds=time.perf_counter() - start,
            disturbance_aware=aware,
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

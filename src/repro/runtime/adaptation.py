"""Adaptive shield maintenance: monitor → estimate → re-verify → re-synthesize.

Section 3 of the paper notes that tight disturbance bounds "can be accurately
estimated at runtime using multivariate normal distribution fitting methods";
this module closes that loop for deployed fleets:

1. run a :class:`~repro.runtime.monitored.MonitoredBatchedCampaign` over the
   deployed shield (optionally stressed by an explicit disturbance model) and
   fit the fleet's residuals into a :class:`DisturbanceEstimate`;
2. **re-check** the deployed shield's certificate under the widened bound by
   re-running invariant inference (:func:`~repro.core.verification.verify_program`)
   for every program branch on a copy of the environment whose
   ``disturbance_bound`` is the estimate;
3. on failure, **re-synthesize** through the store-backed
   :class:`~repro.store.SynthesisService` against the widened environment,
   persisting the repaired shield with provenance linking it to the estimate
   that forced it (``adapted_from`` key, estimated bound/mean/samples) and with
   reconstructible ``environment_overrides={"disturbance_bound": [...]}``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.shield import Shield
from ..core.verification import VerificationConfig, VerificationOutcome, verify_program
from ..envs.base import EnvironmentContext
from ..envs.disturbance import DisturbanceEstimate, DisturbanceModel
from .monitored import FleetMonitorReport, MonitoredBatchedCampaign

__all__ = [
    "AdaptationOutcome",
    "recheck_certificate",
    "adapt_shield",
]


@dataclass
class AdaptationOutcome:
    """Everything one pass of the maintenance loop produced."""

    report: FleetMonitorReport
    estimate: Optional[DisturbanceEstimate]
    widened_bound: Optional[np.ndarray]
    certificate_valid: bool
    verifications: List[VerificationOutcome] = field(default_factory=list)
    resynthesized: bool = False
    resynthesis_error: str = ""
    repaired_shield: Optional[Shield] = None
    store_key: str = ""
    from_store: bool = False

    @property
    def recheck_backends(self) -> List[str]:
        """Backend provenance of the recheck verdicts (one entry per branch)."""
        return [outcome.backend for outcome in self.verifications]

    def summary(self) -> dict:
        return {
            **self.report.summary(),
            "estimated_bound": (
                self.widened_bound.tolist() if self.widened_bound is not None else None
            ),
            "certificate_valid": self.certificate_valid,
            "recheck_backends": ",".join(self.recheck_backends),
            "resynthesized": self.resynthesized,
            "resynthesis_error": self.resynthesis_error,
            "store_key": self.store_key[:12] if self.store_key else "",
        }


def widened_environment(env: EnvironmentContext, bound: np.ndarray) -> EnvironmentContext:
    """A copy of ``env`` whose disturbance bound is the runtime estimate."""
    widened = copy.deepcopy(env)
    widened.disturbance_bound = np.asarray(bound, dtype=float)
    return widened


def recheck_certificate(
    env: EnvironmentContext,
    shield: "Shield | object",
    verification: Optional[VerificationConfig] = None,
    verdict_cache=None,
    regions: Optional[Sequence] = None,
) -> tuple:
    """Re-run invariant inference for every deployed program branch on ``env``.

    ``shield`` may be a deployed :class:`~repro.core.shield.Shield` or a bare
    (possibly guarded) program — anything else with a ``program`` attribute
    works too.  Returns ``(all_ok, outcomes)``.  A branch whose invariant can
    no longer be re-derived under ``env.disturbance_bound`` means the deployed
    certificate does not extend to the disturbances actually being
    experienced — the signal that triggers re-synthesis.

    The recheck just asks the verification kernel.  Every backend models
    condition (10)'s worst-case disturbance term (``lyapunov`` through its
    contraction margin, ``barrier`` in its LP rows and lifted sound check),
    so every verdict genuinely models the widened bound — no backend
    pinning, no disturbance-blind flag.  ``verdict_cache`` (usually the synthesis
    service's store-backed cache) makes rechecks over unchanged shields free;
    ``regions`` optionally supplies each branch's original synthesis region
    (falling back to the environment's full initial region).
    """
    verification = verification or VerificationConfig()
    program = getattr(shield, "program", shield)
    branches = getattr(program, "branches", None)
    programs = [branch_program for _, branch_program in branches] if branches else [program]
    outcomes = []
    for index, program in enumerate(programs):
        init_box = None
        if regions is not None and index < len(regions):
            init_box = regions[index]
        outcomes.append(
            verify_program(
                env,
                program,
                init_box=init_box,
                config=verification,
                verdict_cache=verdict_cache,
            )
        )
    return all(outcome.verified for outcome in outcomes), outcomes


def adapt_shield(
    shield: Shield,
    episodes: int = 50,
    steps: int = 250,
    rng: Optional[np.random.Generator] = None,
    disturbance: Optional[DisturbanceModel] = None,
    oracle: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    service=None,
    config=None,
    environment: str = "",
    environment_overrides: Optional[Dict[str, Any]] = None,
    confidence_sigmas: float = 3.0,
    bound_floor: float = 0.0,
    prior_key: str = "",
    workers: Optional[int] = None,
    shards: Optional[int] = None,
) -> AdaptationOutcome:
    """One pass of the maintenance loop over a deployed shield.

    ``service`` (a :class:`~repro.store.SynthesisService`) and ``config`` (a
    :class:`~repro.core.cegis.CEGISConfig`) drive the re-synthesis step; without
    a service the loop stops after the certificate re-check (monitoring-only
    mode).  ``environment`` is the registry name recorded in the repaired
    shield's provenance; ``prior_key`` links it to the artifact it replaces.
    """
    rng = rng or np.random.default_rng()
    env = shield.env
    campaign = MonitoredBatchedCampaign(
        shield=shield,
        steps=steps,
        disturbance=disturbance,
        estimate_disturbance=True,
        confidence_sigmas=confidence_sigmas,
        workers=workers,
        shards=shards,
    )
    report = campaign.run(episodes, rng)
    estimate = report.disturbance_estimate
    if estimate is None:
        return AdaptationOutcome(
            report=report, estimate=None, widened_bound=None, certificate_valid=True
        )

    widened = np.maximum(estimate.bound, bound_floor)
    verification_config = config.verification if config is not None else None
    widened_env = widened_environment(env, widened)
    certificate_valid, outcomes = recheck_certificate(
        widened_env,
        shield,
        verification=verification_config,
        verdict_cache=getattr(service, "verdict_cache", None),
    )
    outcome = AdaptationOutcome(
        report=report,
        estimate=estimate,
        widened_bound=widened,
        certificate_valid=certificate_valid,
        verifications=outcomes,
    )
    if certificate_valid or service is None:
        return outcome

    # The deployed certificate is invalid for the disturbances actually being
    # experienced: synthesize a replacement on the widened environment, reusing
    # the deployed oracle, and persist it with provenance tying it to the
    # estimate that forced the repair.
    oracle = oracle if oracle is not None else shield.neural_policy
    overrides = dict(environment_overrides or {})
    overrides["disturbance_bound"] = [float(b) for b in widened]
    metadata = {
        "adaptation": "runtime-disturbance-estimate",
        "adapted_from": prior_key,
        "estimated_bound": [round(float(b), 9) for b in widened],
        "estimate_mean": [round(float(m), 9) for m in estimate.mean],
        "estimate_samples": estimate.samples,
        "confidence_sigmas": estimate.confidence_sigmas,
        "monitored_episodes": report.episodes,
        "monitored_steps": report.steps,
    }
    try:
        service_result = service.synthesize(
            widened_env,
            oracle,
            config=config,
            environment=environment or getattr(env, "name", ""),
            environment_overrides=overrides,
            extra_metadata=metadata,
        )
    except RuntimeError as error:
        outcome.resynthesis_error = str(error)
        return outcome
    outcome.resynthesized = True
    outcome.repaired_shield = service_result.shield
    outcome.store_key = service_result.key
    outcome.from_store = service_result.from_store
    return outcome

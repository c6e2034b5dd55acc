"""Fleet-scale runtime monitoring: a whole campaign of monitored episodes in lockstep.

:class:`~repro.runtime.monitor.RuntimeMonitor` watches one deployed episode at a
time; production serving means watching *fleets* — hundreds of concurrent
episodes of the same shielded controller, possibly stressed by disturbance
classes the shield was never synthesized for.  :class:`MonitoredBatchedCampaign`
fuses the PR-1 batched rollout engine with the monitor's bookkeeping: every step
advances all episodes as one ``(episodes, state_dim)`` block through
:meth:`Shield.decide_batch` and one vectorised transition, while recording

* per-episode **interventions** (the shield's batched decision mask),
* per-episode **model mismatches** — the executed action's predicted successor
  stayed inside φ but the observed one left it,
* per-episode **invariant excursions** and **unsafe steps**,
* per-episode **peak barrier values** at decision states, and
* the fleet-wide residual stream feeding one
  :class:`~repro.envs.disturbance.DisturbanceEstimator` (the paper's runtime
  multivariate-normal estimate, fitted over the whole fleet at once).

The per-episode counters reproduce the scalar
:func:`repro.reference.monitor_episode` counts
bit-for-bit under the same seed for disturbance-free environments (same
initial-state stream, same decision logic, same verdicts), which
``tests/test_monitored_batched.py`` property-tests across the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..compile import compile_stepper
from ..core.shield import Shield
from ..envs.disturbance import DisturbanceEstimate, DisturbanceEstimator, DisturbanceModel

__all__ = ["FleetMonitorReport", "MonitoredBatchedCampaign", "monitor_fleet"]


@dataclass
class FleetMonitorReport:
    """Aggregate + per-episode view over one monitored batched campaign."""

    episodes: int
    steps: int
    interventions: np.ndarray  # (episodes,) int
    model_mismatches: np.ndarray  # (episodes,) int
    invariant_excursions: np.ndarray  # (episodes,) int
    unsafe_steps: np.ndarray  # (episodes,) int
    peak_barrier_values: np.ndarray  # (episodes,) float, max over decision states
    final_states: np.ndarray  # (episodes, state_dim)
    disturbance_estimate: Optional[DisturbanceEstimate] = None
    wall_clock_seconds: float = 0.0
    #: Sharded-execution provenance (shard widths, pool mode, fold-in of the
    #: shard workers' kernel-cache deltas); ``None`` for unsharded campaigns.
    shard_stats: Optional[dict] = None

    @property
    def decisions(self) -> int:
        return self.episodes * self.steps

    @property
    def total_interventions(self) -> int:
        return int(np.sum(self.interventions))

    @property
    def intervention_rate(self) -> float:
        return self.total_interventions / self.decisions if self.decisions else 0.0

    @property
    def total_model_mismatches(self) -> int:
        return int(np.sum(self.model_mismatches))

    @property
    def total_invariant_excursions(self) -> int:
        return int(np.sum(self.invariant_excursions))

    @property
    def failures(self) -> int:
        """Episodes that entered the unsafe region at least once."""
        return int(np.sum(self.unsafe_steps > 0))

    def summary(self) -> dict:
        summary = {
            "episodes": self.episodes,
            "steps": self.steps,
            "decisions": self.decisions,
            "interventions": self.total_interventions,
            "intervention_rate": self.intervention_rate,
            "model_mismatches": self.total_model_mismatches,
            "invariant_excursions": self.total_invariant_excursions,
            "failures": self.failures,
            "peak_barrier_value": float(np.max(self.peak_barrier_values))
            if self.episodes
            else float("nan"),
            "wall_clock_seconds": self.wall_clock_seconds,
            "disturbance_bound": (
                self.disturbance_estimate.bound.tolist()
                if self.disturbance_estimate is not None
                else None
            ),
        }
        if self.shard_stats is not None:
            summary["shard_stats"] = self.shard_stats
        return summary


@dataclass
class MonitoredBatchedCampaign:
    """Advance a fleet of monitored shielded episodes in lockstep.

    ``disturbance`` injects an explicit
    :class:`~repro.envs.disturbance.DisturbanceModel` into every transition
    (replacing the environment's built-in uniform disturbance), so fleets can be
    stressed with disturbance classes the shield was not synthesized for —
    including per-episode sinusoid phases via
    :meth:`SinusoidalDisturbance.fleet`.
    """

    shield: Shield
    steps: int
    disturbance: Optional[DisturbanceModel] = None
    estimate_disturbance: bool = True
    confidence_sigmas: float = 3.0
    #: ``None`` keeps the legacy single-stream engine; any integer (including
    #: 1) routes through :mod:`repro.shard` with per-shard seed streams.
    workers: Optional[int] = None
    shards: Optional[int] = None
    dtype: Optional[object] = None

    def __post_init__(self) -> None:
        env = self.shield.env
        if self.disturbance is not None and self.disturbance.dim != env.state_dim:
            raise ValueError(
                f"disturbance dimension {self.disturbance.dim} does not match "
                f"state dimension {env.state_dim}"
            )

    def run(
        self,
        episodes: int,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
    ) -> FleetMonitorReport:
        if self.workers is not None:
            from ..shard import ShardPool

            with ShardPool(
                self.shield.env,
                shield=self.shield,
                workers=self.workers,
                shards=self.shards,
                dtype=self.dtype,
            ) as pool:
                return pool.run_monitored(
                    episodes,
                    self.steps,
                    rng=rng,
                    disturbance=self.disturbance,
                    estimate_disturbance=self.estimate_disturbance,
                    confidence_sigmas=self.confidence_sigmas,
                    initial_states=initial_states,
                )

        estimator = self._estimator()
        arrays = self.run_arrays(
            episodes, rng, initial_states=initial_states, estimator=estimator
        )
        return self._report(episodes, arrays, estimator)

    def _estimator(self) -> Optional[DisturbanceEstimator]:
        if not self.estimate_disturbance:
            return None
        return DisturbanceEstimator(
            self.shield.env.state_dim, confidence_sigmas=self.confidence_sigmas
        )

    def _report(
        self, episodes: int, arrays: tuple, estimator: Optional[DisturbanceEstimator]
    ) -> FleetMonitorReport:
        """The fleet report over :meth:`run_arrays`' output."""
        interventions, mismatches, excursions, unsafe, barrier_peak, states, elapsed = arrays
        estimate = None
        if estimator is not None and len(estimator) >= 2:
            estimate = estimator.estimate()
        return FleetMonitorReport(
            episodes=episodes,
            steps=self.steps,
            interventions=interventions,
            model_mismatches=mismatches,
            invariant_excursions=excursions,
            unsafe_steps=unsafe,
            peak_barrier_values=barrier_peak,
            final_states=states,
            disturbance_estimate=estimate,
            wall_clock_seconds=elapsed,
        )

    def run_arrays(
        self,
        episodes: int,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
        estimator: Optional[DisturbanceEstimator] = None,
        stepper=None,
    ) -> tuple:
        """Raw per-episode monitor arrays ``(interventions, mismatches,
        excursions, unsafe, barrier_peak, final_states, elapsed)``.

        Shard workers call this per contiguous episode shard with their own
        ``estimator`` (shard-local residual moments) and cached compiled
        ``stepper``; ``stepper=None`` compiles one for this call.
        """
        env = self.shield.env
        if initial_states is not None:
            states = np.atleast_2d(np.asarray(initial_states, dtype=float))
            if states.shape != (episodes, env.state_dim):
                raise ValueError(
                    f"initial states must have shape ({episodes}, {env.state_dim})"
                )
        else:
            states = env.sample_initial_states(rng, episodes)

        if self.disturbance is not None:
            self.disturbance.reset()

        if stepper is None:
            stepper = compile_stepper(env, shield=self.shield, dtype=self.dtype)
        return stepper.run_monitored(
            states,
            self.steps,
            rng,
            disturbance=self.disturbance,
            estimator=estimator,
        )


def monitor_fleet(
    shield: Shield,
    episodes: int = 100,
    steps: int = 250,
    rng: Optional[np.random.Generator] = None,
    disturbance: Optional[DisturbanceModel] = None,
    estimate_disturbance: bool = True,
    confidence_sigmas: float = 3.0,
    initial_states: np.ndarray | None = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    dtype=None,
) -> FleetMonitorReport:
    """Run one monitored batched campaign and return its fleet report.

    ``workers`` routes the fleet through the sharded multi-core engine
    (:mod:`repro.shard`); ``workers=1`` and ``workers=N`` report bit-identical
    counters and disturbance estimates.
    """
    campaign = MonitoredBatchedCampaign(
        shield=shield,
        steps=steps,
        disturbance=disturbance,
        estimate_disturbance=estimate_disturbance,
        confidence_sigmas=confidence_sigmas,
        workers=workers,
        shards=shards,
        dtype=dtype,
    )
    return campaign.run(episodes, rng or np.random.default_rng(), initial_states=initial_states)

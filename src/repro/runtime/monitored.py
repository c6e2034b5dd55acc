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
* the fleet-wide residual stream feeding the paper's runtime
  multivariate-normal disturbance estimate, fitted over the whole fleet from
  per-shard moments merged in shard order.

The fleet runs on the shard plan of :mod:`repro.shard`.  Its per-episode
counters reproduce the scalar :func:`repro.reference.monitor_episode` counts
bit-for-bit for disturbance-free environments when the scalar loop walks the
same plan (same initial-state streams, same decision logic, same verdicts),
which ``tests/test_monitored_batched.py`` property-tests across the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.shield import Shield
from ..envs.disturbance import DisturbanceEstimate, DisturbanceModel
from ..shard import ShardPool

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
    #: shard workers' kernel-cache deltas).
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
    workers: int = 1
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


def monitor_fleet(
    shield: Shield,
    episodes: int = 100,
    steps: int = 250,
    rng: Optional[np.random.Generator] = None,
    disturbance: Optional[DisturbanceModel] = None,
    estimate_disturbance: bool = True,
    confidence_sigmas: float = 3.0,
    initial_states: np.ndarray | None = None,
    workers: int = 1,
    shards: Optional[int] = None,
    dtype=None,
) -> FleetMonitorReport:
    """Run one monitored batched campaign and return its fleet report.

    The fleet runs on the shard plan of :mod:`repro.shard`; ``workers`` only
    chooses how many processes run the shards, so every ``workers`` value
    reports bit-identical counters and disturbance estimates.
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

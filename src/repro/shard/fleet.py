"""Merged results of sharded fleet runs, and the merge rules that keep them
deterministic.

Per-episode arrays need no merging at all — shards own disjoint contiguous
slices of the shared arena, so the assembled arrays are in global episode
order by construction.  What does need care:

* **Disturbance residuals.**  Workers ship sufficient statistics
  ``(count, Σd, Σ d dᵀ)`` instead of raw residual lists; the parent adds the
  triples *in shard order* and fits mean/covariance from the totals
  (:func:`disturbance_estimate_from_moments`).  The summation order is fixed,
  so the fitted estimate is bit-identical for every worker count.
* **Counters.**  Shield decision/intervention counters incremented inside a
  forked worker die with the fork; workers return deltas and the pool folds
  them into the parent's shield.  The fork runner tags each result with its
  lane, and in-process shards, which mutated the parent directly, are not
  folded (the CEGIS replay-cache merge follows the same rule).  Process
  counters (:mod:`repro.obs`) need no fold here: the runner merges each
  forked shard's delta itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..envs.disturbance import DisturbanceEstimate

__all__ = [
    "ShardedCampaignResult",
    "merge_moments",
    "disturbance_estimate_from_moments",
]

#: A shard's residual sufficient statistics: (count, Σd, Σ d dᵀ).
Moments = Tuple[int, np.ndarray, np.ndarray]


def merge_moments(moments: Sequence[Optional[Moments]], state_dim: int) -> Moments:
    """Add per-shard moment triples in the given (shard) order."""
    count = 0
    total = np.zeros(state_dim)
    outer = np.zeros((state_dim, state_dim))
    for triple in moments:
        if triple is None:
            continue
        count += int(triple[0])
        total += triple[1]
        outer += triple[2]
    return count, total, outer


def disturbance_estimate_from_moments(
    count: int,
    total: np.ndarray,
    outer: np.ndarray,
    confidence_sigmas: float = 3.0,
) -> Optional[DisturbanceEstimate]:
    """Fit the multivariate-normal estimate from merged sufficient statistics.

    Algebraically the same sample mean / (n−1)-normalised covariance that
    :meth:`DisturbanceEstimator.estimate` fits from the raw residual matrix;
    computed from moments it is reproduced bit-for-bit by any shard split.
    Returns ``None`` below the two-sample minimum, like the raw-residual fit.
    """
    if count < 2:
        return None
    mean = total / count
    covariance = np.atleast_2d((outer - count * np.outer(mean, mean)) / (count - 1))
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    bound = np.abs(mean) + confidence_sigmas * std
    return DisturbanceEstimate(
        mean=mean,
        covariance=covariance,
        bound=bound,
        samples=int(count),
        confidence_sigmas=confidence_sigmas,
    )


@dataclass
class ShardedCampaignResult:
    """Merged per-episode arrays of one sharded shielded/bare campaign."""

    episodes: int
    steps: int
    total_rewards: np.ndarray  # (episodes,) float
    unsafe_counts: np.ndarray  # (episodes,) int
    interventions: np.ndarray  # (episodes,) int
    steady_at: np.ndarray  # (episodes,) int, -1 = never steady
    elapsed: float  # wall-clock of the whole sharded run
    stats: dict  # shard provenance: widths, seconds, pool mode, cache fold-in

    @property
    def failures(self) -> int:
        return int(np.sum(self.unsafe_counts > 0))

    @property
    def total_interventions(self) -> int:
        return int(np.sum(self.interventions))

    @property
    def episodes_per_second(self) -> float:
        return self.episodes / self.elapsed if self.elapsed > 0 else float("inf")

    def metrics(self):
        """The campaign as :class:`~repro.runtime.metrics.DeploymentMetrics`."""
        from ..runtime.metrics import DeploymentMetrics, EpisodeMetrics

        per_episode_seconds = self.elapsed / max(self.episodes, 1)
        metrics = DeploymentMetrics()
        for i in range(self.episodes):
            metrics.add(
                EpisodeMetrics(
                    steps=self.steps,
                    unsafe_steps=int(self.unsafe_counts[i]),
                    interventions=int(self.interventions[i]),
                    steps_to_steady=int(self.steady_at[i]) if self.steady_at[i] >= 0 else None,
                    total_reward=float(self.total_rewards[i]),
                    wall_clock_seconds=per_episode_seconds,
                )
            )
        return metrics

    def summary(self) -> dict:
        return {
            "episodes": self.episodes,
            "steps": self.steps,
            "failures": self.failures,
            "unsafe_steps": int(np.sum(self.unsafe_counts)),
            "interventions": self.total_interventions,
            "steady_episodes": int(np.sum(self.steady_at >= 0)),
            "mean_return": float(np.mean(self.total_rewards)) if self.episodes else float("nan"),
            "wall_clock_seconds": self.elapsed,
            "episodes_per_second": self.episodes_per_second,
            "shard_stats": self.stats,
        }

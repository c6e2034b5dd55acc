"""Deployment metrics: the quantities reported in Tables 1-3.

* **failures** — number of simulation episodes in which the controlled system
  entered the unsafe region at least once;
* **interventions** — number of decisions in which the shield overrode the
  neural policy (summed over all episodes);
* **overhead** — additional wall-clock cost of running the shielded policy
  relative to running the bare neural policy;
* **steps to steady state** — average number of steps before the system first
  enters the steady-state neighbourhood of the origin (the paper's performance
  proxy comparing the shielded neural policy with the programmatic policy).

A campaign's result keeps one array per per-episode quantity, in global
episode order, exactly as the shard pool's arena assembled them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["DeploymentMetrics"]


@dataclass
class DeploymentMetrics:
    """One campaign of ``steps``-step episodes (one Table 1 cell group)."""

    steps: int
    total_rewards: np.ndarray  # (episodes,) float
    unsafe_counts: np.ndarray  # (episodes,) int, unsafe post-step states
    intervention_counts: np.ndarray  # (episodes,) int
    steady_at: np.ndarray  # (episodes,) int, first steady step, -1 = never
    #: Wall-clock of the whole campaign.
    total_seconds: float = 0.0
    #: Shard provenance (widths, seconds, pool mode, kernel-cache fold-in).
    stats: Optional[dict] = field(default=None, repr=False)

    # ------------------------------------------------------------- queries
    @property
    def num_episodes(self) -> int:
        return len(self.total_rewards)

    @property
    def total_decisions(self) -> int:
        return self.steps * self.num_episodes

    @property
    def failures(self) -> int:
        """Number of episodes with at least one unsafe state."""
        return int(np.count_nonzero(self.unsafe_counts))

    @property
    def unsafe_steps(self) -> int:
        return int(np.sum(self.unsafe_counts))

    @property
    def interventions(self) -> int:
        return int(np.sum(self.intervention_counts))

    @property
    def intervention_rate(self) -> float:
        decisions = self.total_decisions
        return self.interventions / decisions if decisions else 0.0

    @property
    def mean_steps_to_steady(self) -> float:
        """Average steps to reach the steady-state neighbourhood.

        Episodes that never reach it contribute their full length, mirroring
        the paper's "steps spent in reaching a steady state".
        """
        if not self.num_episodes:
            return float("nan")
        return float(np.mean(np.where(self.steady_at >= 0, self.steady_at, self.steps)))

    @property
    def mean_reward(self) -> float:
        if not self.num_episodes:
            return float("nan")
        return float(np.mean(self.total_rewards))

    @property
    def episodes_per_second(self) -> float:
        return self.num_episodes / self.total_seconds if self.total_seconds > 0 else float("inf")

    def overhead_vs(self, baseline: "DeploymentMetrics") -> float:
        """Relative wall-clock overhead of this campaign versus a baseline campaign."""
        if baseline.total_seconds <= 0.0:
            return 0.0
        return (self.total_seconds - baseline.total_seconds) / baseline.total_seconds

    def summary(self) -> dict:
        """A plain-dict summary convenient for table printing.

        ``mean_return`` and ``wall_clock_seconds`` repeat ``mean_reward`` and
        ``seconds`` under the names ``repro run`` has always printed.
        """
        return {
            "episodes": self.num_episodes,
            "steps": self.steps,
            "failures": self.failures,
            "unsafe_steps": self.unsafe_steps,
            "interventions": self.interventions,
            "intervention_rate": self.intervention_rate,
            "steps_to_steady": self.mean_steps_to_steady,
            "steady_episodes": int(np.count_nonzero(self.steady_at >= 0)),
            "mean_reward": self.mean_reward,
            "mean_return": self.mean_reward,
            "seconds": self.total_seconds,
            "wall_clock_seconds": self.total_seconds,
            "episodes_per_second": self.episodes_per_second,
        }

"""Simulation campaigns: run a policy (bare, programmatic, or shielded) for many
episodes and collect the deployment metrics of Tables 1-3.

The paper's protocol is 1000 runs of 5000 steps each with a 0.01 s time step.
Both numbers are parameters here so the test-suite and CI can use scaled-down
campaigns while the full protocol remains a single call away
(``EvaluationProtocol(episodes=1000, steps=5000)``).

Every campaign runs through :class:`~repro.shard.ShardPool`: all episodes
advance in lockstep as ``(episodes, state_dim)`` arrays through one compiled
stepper, which makes the full paper protocol tractable in pure NumPy, on the
pool's worker-count-independent shard plan.  The original one-state-at-a-time
loop lives on in :mod:`repro.reference.scalar` as the semantic reference the
lockstep engine is property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.shield import Shield
from ..envs.base import EnvironmentContext
from ..shard import ShardPool
from .metrics import DeploymentMetrics

__all__ = [
    "EvaluationProtocol",
    "evaluate_policy",
    "compare_shielded",
]


@dataclass
class EvaluationProtocol:
    """How many episodes of how many steps to simulate.

    ``workers`` is the number of processes that run the campaign's shards
    (:mod:`repro.shard`).  The shard plan is worker-count independent, so any
    ``workers`` value reports the same counters for a given seed.
    """

    episodes: int = 20
    steps: int = 250
    seed: int = 0
    workers: int = 1

    @classmethod
    def paper(cls) -> "EvaluationProtocol":
        """The full protocol of §5 (1000 runs x 5000 steps)."""
        return cls(episodes=1000, steps=5000)


def evaluate_policy(
    env: EnvironmentContext,
    policy: Callable[[np.ndarray], np.ndarray],
    protocol: EvaluationProtocol,
    shield: Optional[Shield] = None,
) -> DeploymentMetrics:
    """Run a full campaign of episodes for one policy (all episodes in lockstep).

    When ``shield`` is given it must be the acting ``policy``: the per-episode
    intervention counts come from its decision mask, attributed to the
    episode whose state triggered them.  Another callable's decisions cannot
    be attributed to the shield.
    """
    if shield is not None and policy is not shield:
        raise ValueError(
            "shield interventions can only be attributed when the shield is "
            "the acting policy"
        )
    with ShardPool(
        env,
        policy=None if shield is not None else policy,
        shield=shield,
        workers=protocol.workers,
    ) as pool:
        return pool.run_campaign(
            protocol.episodes, protocol.steps, rng=np.random.default_rng(protocol.seed)
        )


@dataclass
class ShieldComparison:
    """Side-by-side campaign results for one benchmark (one Table 1 row)."""

    neural: DeploymentMetrics
    shielded: DeploymentMetrics
    program: DeploymentMetrics

    @property
    def overhead(self) -> float:
        """Shielded-vs-bare-network wall-clock overhead (Table 1 'Overhead')."""
        return self.shielded.overhead_vs(self.neural)


def compare_shielded(
    env: EnvironmentContext,
    neural_policy: Callable[[np.ndarray], np.ndarray],
    shield: Shield,
    protocol: EvaluationProtocol,
) -> ShieldComparison:
    """Evaluate the bare network, the shielded network, and the program alone.

    Using the same protocol (and therefore the same initial-state seeds) for
    the three campaigns reproduces the comparison behind Table 1.
    """
    shield.reset_statistics()
    neural_metrics = evaluate_policy(env, neural_policy, protocol)
    shielded_metrics = evaluate_policy(env, shield, protocol, shield=shield)
    program_metrics = evaluate_policy(env, shield.program, protocol)
    return ShieldComparison(
        neural=neural_metrics, shielded=shielded_metrics, program=program_metrics
    )

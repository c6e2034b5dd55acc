"""Batched rollout engine: advance an entire campaign of episodes in lockstep.

The paper's deployment protocol (§5) is 1000 episodes of 5000 steps for every
policy variant of every benchmark.  Rolling those out one state at a time in a
Python loop costs millions of interpreter round-trips per campaign; every hot
operation along the rollout spine — MLP forward passes, polynomial guard and
barrier evaluation, linear (and Taylor-polynomial) dynamics — is array-shaped,
so a campaign can instead be advanced as one ``(episodes, state_dim)`` block
with one vectorised policy call and one vectorised transition per step.

:class:`BatchedCampaign` is that engine.  It preserves the scalar semantics of
``run_episode`` exactly (rewards computed on the pre-clip action, unsafe and
steady-state bookkeeping on the post-step state, shield interventions counted
per decision) and the scalar generator stream for initial states, so a
disturbance-free campaign is bit-for-bit reproducible against the sequential
reference under the same seed.  With bounded disturbances the per-step draws
are batched, which reorders the stream across episodes; within a single
episode the draws remain identical.

The hot loop runs through the **compiled execution layer**
(:mod:`repro.compile`): programs and invariants are lowered once into fused
NumPy kernels, the dynamics are the environment's ``rate_batch`` (its symbolic
``rate`` evaluated on state and action columns), and the whole policy →
shield → environment step executes as one straight-line kernel with
preallocated workspace buffers.  The interpreted
lockstep loop it is held to lives in :mod:`repro.reference.campaigns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..compile import compile_stepper
from ..core.shield import Shield
from ..envs.base import EnvironmentContext, as_batch_policy
from .metrics import DeploymentMetrics, EpisodeMetrics

__all__ = ["BatchedCampaign", "as_batch_policy"]


@dataclass
class BatchedCampaign:
    """Run ``episodes`` rollouts of ``steps`` decisions as lockstep array ops.

    When ``shield`` is the acting policy the per-episode intervention counters
    come from the shield's batched decision mask, reproducing the scalar
    convention (interventions are attributed to the episode whose state
    triggered them).  Passing a shield that is *not* the acting policy is
    rejected: another callable's decisions cannot be attributed to the
    shield.
    """

    env: EnvironmentContext
    policy: Callable[[np.ndarray], np.ndarray]
    steps: int
    shield: Optional[Shield] = None
    #: ``None`` keeps the legacy single-stream engine; any integer (including
    #: 1) routes through :mod:`repro.shard` with per-shard seed streams, so
    #: ``workers=1`` and ``workers=N`` are bit-identical to each other (but not
    #: to ``workers=None``, whose episodes share one global stream).
    workers: Optional[int] = None
    dtype: Optional[object] = None

    def run(
        self,
        episodes: int,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
    ) -> DeploymentMetrics:
        self._check_shield()
        if self.workers is not None:
            from ..shard import ShardPool

            with ShardPool(
                self.env,
                policy=None if self.shield is not None else self.policy,
                shield=self.shield,
                workers=self.workers,
                dtype=self.dtype,
            ) as pool:
                result = pool.run_campaign(
                    episodes, self.steps, rng=rng, initial_states=initial_states
                )
            return self._package(
                episodes,
                result.total_rewards,
                result.unsafe_counts,
                result.interventions,
                result.steady_at,
                result.elapsed,
            )
        arrays = self.run_arrays(episodes, rng, initial_states=initial_states)
        return self._package(episodes, *arrays)

    def _check_shield(self) -> None:
        if self.shield is not None and self.policy is not self.shield:
            raise ValueError(
                "shield interventions can only be attributed when the shield is "
                "the acting policy"
            )

    def run_arrays(
        self,
        episodes: int,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
        stepper=None,
    ) -> tuple:
        """Raw per-episode result arrays ``(rewards, unsafe, interventions,
        steady_at, elapsed)`` — the engine underneath :meth:`run`.

        Shard workers call this once per contiguous episode shard, passing
        their cached compiled ``stepper`` so repeated shards reuse one
        workspace; ``stepper=None`` compiles one for this call.
        """
        self._check_shield()
        env = self.env
        if initial_states is not None:
            states = np.atleast_2d(np.asarray(initial_states, dtype=float))
            if states.shape != (episodes, env.state_dim):
                raise ValueError(
                    f"initial states must have shape ({episodes}, {env.state_dim})"
                )
        else:
            states = env.sample_initial_states(rng, episodes)

        if stepper is None:
            stepper = compile_stepper(
                env,
                policy=None if self.shield is not None else self.policy,
                shield=self.shield,
                dtype=self.dtype,
            )
        return stepper.run_campaign(states, self.steps, rng)

    def _package(
        self,
        episodes: int,
        total_rewards: np.ndarray,
        unsafe_counts: np.ndarray,
        interventions: np.ndarray,
        steady_at: np.ndarray,
        elapsed: float,
    ) -> DeploymentMetrics:
        per_episode_seconds = elapsed / max(episodes, 1)
        metrics = DeploymentMetrics()
        for i in range(episodes):
            metrics.add(
                EpisodeMetrics(
                    steps=self.steps,
                    unsafe_steps=int(unsafe_counts[i]),
                    interventions=int(interventions[i]),
                    steps_to_steady=int(steady_at[i]) if steady_at[i] >= 0 else None,
                    total_reward=float(total_rewards[i]),
                    wall_clock_seconds=per_episode_seconds,
                )
            )
        return metrics

"""Batched rollout engine: advance an entire campaign of episodes in lockstep.

The paper's deployment protocol (§5) is 1000 episodes of 5000 steps for every
policy variant of every benchmark.  Rolling those out one state at a time in a
Python loop costs millions of interpreter round-trips per campaign; every hot
operation along the rollout spine — MLP forward passes, polynomial guard and
barrier evaluation, linear (and Taylor-polynomial) dynamics — is array-shaped,
so a campaign can instead be advanced as one ``(episodes, state_dim)`` block
with one vectorised policy call and one vectorised transition per step.

:class:`BatchedCampaign` is that engine's front end.  It preserves the scalar
semantics of ``run_episode`` exactly (rewards computed on the pre-clip action,
unsafe and steady-state bookkeeping on the post-step state, shield
interventions counted per decision).  Every campaign runs on the shard plan of
:mod:`repro.shard`: contiguous episode shards, each drawing its initial states
and disturbances from its own child of the generator's seed sequence, so any
``workers`` count reports the same counters.  The references in
:mod:`repro.reference` walk the same plan.

The hot loop runs through the **compiled execution layer**
(:mod:`repro.compile`): programs and invariants are lowered once into fused
NumPy kernels, the dynamics are the environment's ``rate_batch`` (its symbolic
``rate`` evaluated on state and action columns), and the whole policy →
shield → environment step executes as one straight-line kernel with
preallocated workspace buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Re-exported, not called (shard tasks compile through ``ShardPool``): the
# perfbench layer tracer wraps ``repro.runtime.batched.compile_stepper`` by name.
from ..compile import compile_stepper
from ..core.shield import Shield
from ..envs.base import EnvironmentContext, as_batch_policy
from ..shard import ShardPool
from .metrics import DeploymentMetrics

__all__ = ["BatchedCampaign", "as_batch_policy", "compile_stepper"]


@dataclass
class BatchedCampaign:
    """Run ``episodes`` rollouts of ``steps`` decisions as lockstep array ops.

    When ``shield`` is the acting policy the per-episode intervention counters
    come from the shield's batched decision mask, reproducing the scalar
    convention (interventions are attributed to the episode whose state
    triggered them).  Passing a shield that is *not* the acting policy is
    rejected: another callable's decisions cannot be attributed to the
    shield.  ``workers`` only chooses how many processes run the shards.
    """

    env: EnvironmentContext
    policy: Callable[[np.ndarray], np.ndarray]
    steps: int
    shield: Optional[Shield] = None
    workers: int = 1
    dtype: Optional[object] = None

    def run(
        self,
        episodes: int,
        rng: np.random.Generator,
        initial_states: np.ndarray | None = None,
    ) -> DeploymentMetrics:
        if self.shield is not None and self.policy is not self.shield:
            raise ValueError(
                "shield interventions can only be attributed when the shield is "
                "the acting policy"
            )
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
        return result.metrics()

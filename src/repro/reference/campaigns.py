"""The interpreted campaign loops: the compiled stepper's differential oracle.

:class:`InterpretedStepper` has the two campaign methods of
:class:`~repro.compile.stepper.CompiledStepper` — ``run_campaign`` and
``run_monitored`` — written as plain lockstep loops over the batch APIs
(``Shield.decide_batch``, ``env.step_batch``, ``holds_batch``) with no lowered
kernel.  :func:`evaluate_policy_interpreted` and
:func:`monitor_fleet_interpreted` drive it over the shard plan the product
engines run (:func:`shard_streams`), so a campaign differs from the product
one only in the execution layer and the compiled path can be held to
identical counters (``tests/test_compile.py``, the ``compiled`` fuzz family).
"""

from __future__ import annotations

import time
from typing import Iterator, Tuple

import numpy as np

from ..envs.base import as_batch_policy
from ..envs.disturbance import DisturbanceEstimator
from ..runtime.metrics import DeploymentMetrics
from ..runtime.monitored import FleetMonitorReport
from ..shard import (
    Shard,
    ShardedCampaignResult,
    disturbance_estimate_from_moments,
    merge_moments,
    plan_shards,
    seed_sequence_for,
)

__all__ = [
    "InterpretedStepper",
    "evaluate_policy_interpreted",
    "monitor_fleet_interpreted",
    "shard_streams",
]


def shard_streams(
    env, episodes: int, rng: np.random.Generator, initial_states=None
) -> Iterator[Tuple[Shard, np.random.Generator, np.ndarray]]:
    """Walk the default shard plan a ``ShardPool`` runs for ``rng``.

    Yields each shard with its own generator and its initial states: the
    shard's rows of ``initial_states`` when given, otherwise one
    ``sample_initial_states`` draw from the shard's generator.
    """
    for shard in plan_shards(episodes, None, seed_sequence_for(rng)):
        generator = np.random.default_rng(shard.seed)
        if initial_states is not None:
            states = np.array(initial_states[shard.start:shard.stop], dtype=float)
        else:
            states = env.sample_initial_states(generator, shard.episodes)
        yield shard, generator, states


class InterpretedStepper:
    """The interpreted lockstep loops for one (policy or shield, environment) pair.

    With a ``shield`` the shield acts and its batched decision mask counts the
    interventions; otherwise ``policy`` acts through ``as_batch_policy``.
    """

    def __init__(self, env, policy=None, shield=None) -> None:
        self.env = env
        self.policy = policy
        self.shield = shield

    def run_campaign(self, states: np.ndarray, steps: int, rng) -> tuple:
        """``(rewards, unsafe, interventions, steady_at, elapsed)`` of a campaign."""
        env = self.env
        episodes = states.shape[0]
        use_shield = self.shield is not None
        batch_policy = None if use_shield else as_batch_policy(self.policy, env.action_dim)

        unsafe_counts = np.zeros(episodes, dtype=int)
        interventions = np.zeros(episodes, dtype=int)
        steady_at = np.full(episodes, -1, dtype=int)
        total_rewards = np.zeros(episodes)

        start = time.perf_counter()
        for step_index in range(steps):
            if use_shield:
                actions, intervened = self.shield.decide_batch(states)
                interventions += intervened
            else:
                actions = batch_policy(states)
            total_rewards += env.reward_batch(states, actions)
            states = env.step_batch(states, actions, rng)
            unsafe_counts += env.is_unsafe_batch(states)
            newly_steady = (steady_at < 0) & env.is_steady_batch(states)
            steady_at[newly_steady] = step_index + 1
        elapsed = time.perf_counter() - start

        return total_rewards, unsafe_counts, interventions, steady_at, elapsed

    def run_monitored(
        self, states: np.ndarray, steps: int, rng, disturbance=None, estimator=None
    ) -> tuple:
        """``(interventions, mismatches, excursions, unsafe, barrier_peak,
        final_states, elapsed)`` of a monitored campaign."""
        env = self.env
        invariant = self.shield.invariant
        episodes = states.shape[0]
        interventions = np.zeros(episodes, dtype=int)
        mismatches = np.zeros(episodes, dtype=int)
        excursions = np.zeros(episodes, dtype=int)
        unsafe = np.zeros(episodes, dtype=int)
        barrier_peak = np.full(episodes, -np.inf)

        start = time.perf_counter()
        for step_index in range(steps):
            barrier_peak = np.maximum(barrier_peak, self._barrier_batch(states))
            # decide_batch_predicted also yields the *executed* actions'
            # predicted successors (reusing the safety-check predictions on
            # non-intervened rows) — the verdict model_mismatch needs.
            actions, intervened, expected = self.shield.decide_batch_predicted(states)
            interventions += intervened
            predicted_ok = invariant.holds_batch(expected)
            states = self._step_batch(states, actions, rng, step_index, disturbance)
            observed_ok = invariant.holds_batch(states)
            mismatches += predicted_ok & ~observed_ok
            excursions += ~observed_ok
            unsafe += env.is_unsafe_batch(states)
            if estimator is not None:
                estimator.observe_batch((states - expected) / env.dt)
        elapsed = time.perf_counter() - start

        return interventions, mismatches, excursions, unsafe, barrier_peak, states, elapsed

    def _barrier_batch(self, states: np.ndarray) -> np.ndarray:
        """Minimum barrier value over the invariant union (≤ 0 inside φ), per row."""
        invariant = self.shield.invariant
        members = getattr(invariant, "members", None) or [invariant]
        values = np.stack([member.value_batch(states) for member in members], axis=0)
        return np.min(values, axis=0)

    def _step_batch(self, states, actions, rng, step_index: int, disturbance) -> np.ndarray:
        env = self.env
        if disturbance is None:
            return env.step_batch(states, actions, rng)
        clipped = env.clip_action_batch(actions)
        rates = env.rate_batch(states, clipped)
        draws = disturbance.sample_batch(rng, step_index, states.shape[0])
        return states + env.dt * (rates + draws)


def evaluate_policy_interpreted(env, policy, protocol, shield=None) -> DeploymentMetrics:
    """:func:`~repro.runtime.simulation.evaluate_policy` on the interpreted loop."""
    stepper = InterpretedStepper(env, policy=policy, shield=shield)
    rng = np.random.default_rng(protocol.seed)
    parts = [
        stepper.run_campaign(states, protocol.steps, generator)
        for _shard, generator, states in shard_streams(env, protocol.episodes, rng)
    ]
    rewards, unsafe, interventions, steady_at, elapsed = zip(*parts)
    return ShardedCampaignResult(
        episodes=protocol.episodes,
        steps=protocol.steps,
        total_rewards=np.concatenate(rewards),
        unsafe_counts=np.concatenate(unsafe),
        interventions=np.concatenate(interventions),
        steady_at=np.concatenate(steady_at),
        elapsed=sum(elapsed),
        stats={},
    ).metrics()


def monitor_fleet_interpreted(
    shield,
    episodes: int = 100,
    steps: int = 250,
    rng=None,
    disturbance=None,
    estimate_disturbance: bool = True,
    confidence_sigmas: float = 3.0,
    initial_states=None,
) -> FleetMonitorReport:
    """:func:`~repro.runtime.monitored.monitor_fleet` on the interpreted loop."""
    env = shield.env
    stepper = InterpretedStepper(env, shield=shield)
    parts, moments = [], []
    streams = shard_streams(env, episodes, rng or np.random.default_rng(), initial_states)
    for shard, generator, states in streams:
        model = None if disturbance is None else disturbance.shard(shard.start, shard.stop)
        if model is not None:
            model.reset()
        estimator = DisturbanceEstimator(env.state_dim) if estimate_disturbance else None
        parts.append(
            stepper.run_monitored(states, steps, generator, disturbance=model, estimator=estimator)
        )
        if estimator is not None and len(estimator):
            moments.append(estimator.moments())
    *columns, elapsed = zip(*parts)
    estimate = None
    if estimate_disturbance:
        estimate = disturbance_estimate_from_moments(
            *merge_moments(moments, env.state_dim), confidence_sigmas=confidence_sigmas
        )
    return FleetMonitorReport(
        episodes,
        steps,
        *(np.concatenate(column) for column in columns),
        disturbance_estimate=estimate,
        wall_clock_seconds=sum(elapsed),
    )

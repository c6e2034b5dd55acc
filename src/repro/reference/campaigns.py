"""The interpreted campaign loops: the compiled stepper's differential oracle.

:class:`InterpretedStepper` has the two campaign methods of
:class:`~repro.compile.stepper.CompiledStepper` — ``run_campaign`` and
``run_monitored`` — written as plain lockstep loops over the batch APIs
(``Shield.decide_batch``, ``env.step_batch``, ``holds_batch``) with no lowered
kernel.  Passed as the ``stepper`` of :meth:`BatchedCampaign.run_arrays` or
:meth:`MonitoredBatchedCampaign.run_arrays`, it runs a campaign exactly as the
product engines do except for the execution layer, so the compiled path can be
held to identical counters (``tests/test_compile.py``, the ``compiled`` fuzz
family).
"""

from __future__ import annotations

import time

import numpy as np

from ..envs.base import as_batch_policy
from ..runtime.batched import BatchedCampaign
from ..runtime.metrics import DeploymentMetrics
from ..runtime.monitored import FleetMonitorReport, MonitoredBatchedCampaign

__all__ = ["InterpretedStepper", "evaluate_policy_interpreted", "monitor_fleet_interpreted"]


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
    """:func:`~repro.runtime.simulation.evaluate_policy` on the interpreted loop.

    Runs the single-stream engine: ``protocol.workers`` is not consulted.
    """
    rng = np.random.default_rng(protocol.seed)
    campaign = BatchedCampaign(env=env, policy=policy, steps=protocol.steps, shield=shield)
    stepper = InterpretedStepper(env, policy=policy, shield=shield)
    arrays = campaign.run_arrays(protocol.episodes, rng, stepper=stepper)
    return campaign._package(protocol.episodes, *arrays)


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
    campaign = MonitoredBatchedCampaign(
        shield=shield,
        steps=steps,
        disturbance=disturbance,
        estimate_disturbance=estimate_disturbance,
        confidence_sigmas=confidence_sigmas,
    )
    estimator = campaign._estimator()
    arrays = campaign.run_arrays(
        episodes,
        rng or np.random.default_rng(),
        initial_states=initial_states,
        estimator=estimator,
        stepper=InterpretedStepper(shield.env, shield=shield),
    )
    return campaign._report(episodes, arrays, estimator)

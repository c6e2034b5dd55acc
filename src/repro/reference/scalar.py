"""One-state-at-a-time reference loops for campaigns and monitored episodes.

:func:`run_episode_scalar` and :func:`evaluate_policy_scalar` are the original
sequential rollout that the batched engine (:mod:`repro.runtime.batched`) is
property-tested against (``tests/test_batched.py``) and that
``benchmarks/test_rollout_speed.py`` measures its speedup from.
:func:`monitor_episode` drives a :class:`~repro.runtime.monitor.RuntimeMonitor`
through one episode: the reference for fleet monitoring
(``tests/test_monitored_batched.py``, ``benchmarks/test_monitor_speed.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from ..core.shield import Shield
from ..envs.base import EnvironmentContext
from ..runtime.metrics import DeploymentMetrics, EpisodeMetrics
from ..runtime.monitor import MonitorReport, RuntimeMonitor
from ..runtime.simulation import EvaluationProtocol

__all__ = ["run_episode_scalar", "evaluate_policy_scalar", "monitor_episode"]


def run_episode_scalar(
    env: EnvironmentContext,
    policy: Callable[[np.ndarray], np.ndarray],
    steps: int,
    rng: np.random.Generator,
    shield: Optional[Shield] = None,
    initial_state: Optional[np.ndarray] = None,
) -> EpisodeMetrics:
    """Reference implementation: simulate one episode state-by-state.

    This is the original sequential rollout the batched engine is checked
    against; production campaigns go through
    :func:`~repro.runtime.simulation.evaluate_policy` instead.  When
    ``policy`` *is* a shield the intervention counter is read from it;
    otherwise interventions are zero.
    """
    state = (
        np.asarray(initial_state, dtype=float)
        if initial_state is not None
        else env.sample_initial_state(rng)
    )
    interventions_before = shield.statistics.interventions if shield is not None else 0
    unsafe_steps = 0
    steps_to_steady: Optional[int] = None
    total_reward = 0.0
    start = time.perf_counter()
    for step_index in range(steps):
        action = np.asarray(policy(state), dtype=float).reshape(env.action_dim)
        total_reward += env.reward(state, action)
        state = env.step(state, action, rng)
        if env.is_unsafe(state):
            unsafe_steps += 1
        if steps_to_steady is None and env.is_steady(state):
            steps_to_steady = step_index + 1
    elapsed = time.perf_counter() - start
    interventions = (
        shield.statistics.interventions - interventions_before if shield is not None else 0
    )
    return EpisodeMetrics(
        steps=steps,
        unsafe_steps=unsafe_steps,
        interventions=interventions,
        steps_to_steady=steps_to_steady,
        total_reward=total_reward,
        wall_clock_seconds=elapsed,
    )


def evaluate_policy_scalar(
    env: EnvironmentContext,
    policy: Callable[[np.ndarray], np.ndarray],
    protocol: EvaluationProtocol,
    shield: Optional[Shield] = None,
) -> DeploymentMetrics:
    """Reference implementation: run the campaign one episode at a time."""
    rng = np.random.default_rng(protocol.seed)
    metrics = DeploymentMetrics()
    for _ in range(protocol.episodes):
        metrics.add(
            run_episode_scalar(env, policy, steps=protocol.steps, rng=rng, shield=shield)
        )
    return metrics


def monitor_episode(
    shield: Shield,
    steps: int = 250,
    rng: Optional[np.random.Generator] = None,
    initial_state: Optional[np.ndarray] = None,
    estimate_disturbance: bool = True,
    disturbance=None,
) -> MonitorReport:
    """Run one fully monitored episode of the shielded system and return the report.

    With ``disturbance`` (a :class:`~repro.envs.disturbance.DisturbanceModel`)
    the model's samples are injected into every Euler transition in place of the
    environment's built-in disturbance — the sequential reference for monitored
    deployments under disturbance classes the shield was not synthesized for.
    """
    env = shield.env
    rng = rng or np.random.default_rng()
    monitor = RuntimeMonitor(shield, estimate_disturbance=estimate_disturbance)
    state = (
        np.asarray(initial_state, dtype=float)
        if initial_state is not None
        else env.sample_initial_state(rng)
    )
    for step in range(steps):
        action = monitor.act(state)
        if disturbance is None:
            state = env.step(state, action, rng)
        else:
            clipped = env.clip_action(action)
            rate = env.rate_numeric(state, clipped) + disturbance.sample(rng, step)
            state = state + env.dt * rate
        monitor.observe_transition(state)
    return monitor.report()

"""One-state-at-a-time reference loops for campaigns and monitored episodes.

:func:`run_episode_scalar` and :func:`evaluate_policy_scalar` are the original
sequential rollout, walked over the same shard plan, that the lockstep engine
(:class:`~repro.shard.ShardPool`) is property-tested against (``tests/test_batched.py``) and that
``benchmarks/test_rollout_speed.py`` measures its speedup from.
:func:`monitor_episode` drives a :class:`~repro.runtime.monitor.RuntimeMonitor`
through one episode: the reference for fleet monitoring
(``tests/test_monitored_batched.py``, ``benchmarks/test_monitor_speed.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.shield import Shield
from ..envs.base import EnvironmentContext
from ..runtime.metrics import DeploymentMetrics
from ..runtime.monitor import MonitorReport, RuntimeMonitor
from ..runtime.simulation import EvaluationProtocol
from .campaigns import shard_streams

__all__ = ["run_episode_scalar", "evaluate_policy_scalar", "monitor_episode"]


def run_episode_scalar(
    env: EnvironmentContext,
    policy: Callable[[np.ndarray], np.ndarray],
    steps: int,
    rng: np.random.Generator,
    shield: Optional[Shield] = None,
    initial_state: Optional[np.ndarray] = None,
) -> Tuple[float, int, int, int, float]:
    """Reference implementation: simulate one episode state-by-state.

    This is the original sequential rollout the lockstep engine is checked
    against; production campaigns go through
    :func:`~repro.runtime.simulation.evaluate_policy` instead.  Returns
    ``(total_reward, unsafe_steps, interventions, steady_at, seconds)``, one
    row of the compiled stepper's ``run_campaign`` columns (``steady_at`` is
    -1 when the episode never reaches the steady state).  When ``policy``
    *is* a shield the intervention counter is read from it; otherwise
    interventions are zero.
    """
    state = (
        np.asarray(initial_state, dtype=float)
        if initial_state is not None
        else env.sample_initial_state(rng)
    )
    interventions_before = shield.statistics.interventions if shield is not None else 0
    unsafe_steps = 0
    steady_at = -1
    total_reward = 0.0
    start = time.perf_counter()
    for step_index in range(steps):
        action = np.asarray(policy(state), dtype=float).reshape(env.action_dim)
        total_reward += env.reward(state, action)
        state = env.step(state, action, rng)
        if env.is_unsafe(state):
            unsafe_steps += 1
        if steady_at < 0 and env.is_steady(state):
            steady_at = step_index + 1
    elapsed = time.perf_counter() - start
    interventions = (
        shield.statistics.interventions - interventions_before if shield is not None else 0
    )
    return total_reward, unsafe_steps, interventions, steady_at, elapsed


def evaluate_policy_scalar(
    env: EnvironmentContext,
    policy: Callable[[np.ndarray], np.ndarray],
    protocol: EvaluationProtocol,
    shield: Optional[Shield] = None,
) -> DeploymentMetrics:
    """Reference implementation: run the campaign one episode at a time, over
    the shard plan the lockstep engine runs."""
    rng = np.random.default_rng(protocol.seed)
    rows = [
        run_episode_scalar(
            env, policy, protocol.steps, generator, shield=shield, initial_state=state
        )
        for _shard, generator, states in shard_streams(env, protocol.episodes, rng)
        for state in states
    ]
    rewards, unsafe, interventions, steady_at, seconds = (np.array(c) for c in zip(*rows))
    return DeploymentMetrics(
        protocol.steps, rewards, unsafe, interventions, steady_at, float(np.sum(seconds))
    )


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

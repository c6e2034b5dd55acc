"""The scalar Algorithm 1 objective: one program, one rollout, one state at a time.

:func:`program_oracle_distance_scalar` is the original Monte-Carlo estimate of
``d(π_w, P, C)`` that the population engine
:func:`repro.core.distance.program_oracle_distance` must match bit for bit,
generator state included (``tests/test_distance_population.py``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core import distance as core_distance
from ..core.distance import DistanceConfig, RolloutRows
from ..envs.base import EnvironmentContext, Trajectory

__all__ = ["trajectory_distance", "program_oracle_distance_scalar"]


def _action_gap(program_action: np.ndarray, oracle_action: np.ndarray) -> float:
    gap = np.asarray(program_action, dtype=float) - np.asarray(oracle_action, dtype=float)
    return float(np.linalg.norm(gap))


def trajectory_distance(
    env: EnvironmentContext,
    trajectory: Trajectory,
    program: Callable[[np.ndarray], np.ndarray],
    oracle: Callable[[np.ndarray], np.ndarray],
) -> float:
    """``d(π_w, P_θ, h)`` for one sampled rollout ``h`` of ``C[P_θ]``."""
    total = 0.0
    for state in trajectory.states:
        if env.is_unsafe(state):
            total -= core_distance.UNSAFE_PENALTY
            continue
        total -= _action_gap(program(state), oracle(state))
    return total


class _DrawnDisturbances:
    """Stands in for the generator of one rollout: hands out its pre-drawn disturbances."""

    def __init__(self, draws: np.ndarray) -> None:
        self._draws = iter(draws)

    def uniform(self, low, high) -> np.ndarray:
        return next(self._draws)


def program_oracle_distance_scalar(
    env: EnvironmentContext,
    programs: Sequence[Callable[[np.ndarray], np.ndarray]],
    oracle: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator | None = None,
    config: DistanceConfig | None = None,
    init_region=None,
    rows: RolloutRows | None = None,
) -> np.ndarray:
    """:func:`~repro.core.distance.program_oracle_distance` with one
    :meth:`~repro.envs.base.EnvironmentContext.simulate` per rollout.

    Without ``rows`` each rollout draws its initial state and then its
    disturbances from ``rng`` as it goes; with ``rows`` rollout ``r`` starts
    from row ``r``'s initial state and takes its disturbances step by step.
    """
    config = config or DistanceConfig()
    region = init_region if init_region is not None else env.init_region
    scores = []
    row = 0
    for program in programs:
        total = 0.0
        for _ in range(config.num_trajectories):
            if rows is None:
                initial_state, stream = region.sample(rng, 1)[0], rng
            else:
                initial_state = rows.initial_states[row]
                stream = _DrawnDisturbances(rows.disturbances[row])
                row += 1
            trajectory = env.simulate(
                program,
                steps=config.trajectory_length,
                rng=stream,
                initial_state=initial_state,
            )
            total += trajectory_distance(env, trajectory, program, oracle)
        scores.append(total / config.num_trajectories)
    return np.array(scores)

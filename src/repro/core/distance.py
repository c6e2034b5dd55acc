"""The imitation-with-safety-penalty objective ``d(π_w, P_θ, C)`` (§2.2 and §4.1).

The synthesis procedure scores a candidate program by how closely its actions
track the neural oracle along trajectories that the *program itself* induces in
the environment, with a large constant penalty replacing the per-step proximity
whenever the program drives the system into an unsafe state:

    d(π, P, h) = Σ_t  −‖P(s_t) − π(s_t)‖      if s_t ∉ Su
                      −MAX                      if s_t ∈ Su

:func:`program_oracle_distance` scores a whole *population* of programs at
once.  Each program gets ``num_trajectories`` rollouts of ``C[P]``, and all of
the population's rollouts advance in lockstep as one ``(rows, state_dim)``
fleet.  The scores are bit-equal to scoring each program alone, one rollout and
one state at a time (:func:`repro.reference.program_oracle_distance_scalar`),
and the generator ends in the same state.  Three rules make that so:

* randomness is drawn per row in the scalar order: a row's initial state, then
  its disturbances, one per step, as one block;
* a row's gaps and penalties are subtracted step by step, and a program's rows
  are averaged left to right;
* every matrix product runs per row, as ``np.matmul`` over stacked operands.  A
  single state multiplies by a matrix as a gemv (or a dot), while the same
  product over a ``(rows, d)`` block runs as one gemm, whose rounding differs
  in the last bits.  Such a bit decides which way a random-search step goes,
  so a gemm would change the synthesized programs.  This applies to affine
  programs, linear dynamics, MLP oracles and the l2 norm.  Programs other than
  :class:`~repro.lang.program.AffineProgram`, and oracles not backed by an
  :class:`~repro.rl.networks.MLP`, run their own single-state call per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..envs.base import EnvironmentContext, LinearEnvironment
from ..lang.program import AffineProgram, PolicyProgram
from ..rl.networks import MLP
from ..rl.policies import NeuralPolicy

__all__ = ["DistanceConfig", "oracle_actions", "program_oracle_distance"]


#: The per-step loss ``MAX`` of a state in ``Su``.
UNSAFE_PENALTY = 1000.0


@dataclass
class DistanceConfig:
    """Parameters of the proximity objective."""

    num_trajectories: int = 4
    trajectory_length: int = 100

    def __post_init__(self) -> None:
        if self.num_trajectories < 1:
            raise ValueError("num_trajectories must be at least 1")
        if self.trajectory_length < 0:
            raise ValueError("trajectory_length must be non-negative")


def oracle_actions(
    oracle: Callable[[np.ndarray], np.ndarray], states: np.ndarray
) -> np.ndarray:
    """``oracle(s)`` for every row ``s`` of ``states``, bit-equal to one call per row."""
    network = oracle.network if isinstance(oracle, NeuralPolicy) else oracle
    if isinstance(network, MLP):
        # (n, 1, d) rows: each layer runs the (1, d) @ W product of one state.
        return network(states[:, None, :])[:, 0, :]
    return np.stack([np.asarray(oracle(state), dtype=float) for state in states])


def _program_actions(
    programs: Sequence[PolicyProgram], repeats: int, action_dim: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The fleet's program actions; row ``r`` follows ``programs[r // repeats]``."""
    if all(type(program) is AffineProgram for program in programs):

        def stacked(values):
            return np.repeat(np.stack(values), repeats, axis=0)

        gains = stacked([program.gain for program in programs])
        biases = stacked([program.bias for program in programs])
        lows = stacked([
            program.action_low if program.action_low is not None else np.full(action_dim, -np.inf)
            for program in programs
        ])
        highs = stacked([
            program.action_high if program.action_high is not None else np.full(action_dim, np.inf)
            for program in programs
        ])

        def affine(states: np.ndarray) -> np.ndarray:
            actions = np.matmul(gains, states[:, :, None])[:, :, 0] + biases
            return np.minimum(np.maximum(actions, lows), highs)

        return affine

    owners = [program for program in programs for _ in range(repeats)]

    def row_by_row(states: np.ndarray) -> np.ndarray:
        return np.stack([
            np.asarray(owner(state), dtype=float).reshape(action_dim)
            for owner, state in zip(owners, states)
        ])

    return row_by_row


def _rates(env: EnvironmentContext, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """``f(s, a)`` per row, bit-equal to :meth:`~EnvironmentContext.rate_numeric`."""
    if isinstance(env, LinearEnvironment):
        rates = np.matmul(env.a_matrix, states[:, :, None]) + np.matmul(
            env.b_matrix, actions[:, :, None]
        )
        return rates[:, :, 0]
    return env.rate_batch(states, actions)


def _action_gaps(program_actions: np.ndarray, oracle_actions: np.ndarray) -> np.ndarray:
    gaps = program_actions - oracle_actions
    # The per-row dot that a 1-D np.linalg.norm takes the root of.
    return np.sqrt(np.matmul(gaps[:, None, :], gaps[:, :, None])[:, 0, 0])


def program_oracle_distance(
    env: EnvironmentContext,
    programs: Sequence[PolicyProgram],
    oracle: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator,
    config: DistanceConfig | None = None,
    init_region=None,
) -> np.ndarray:
    """Monte-Carlo estimates of ``d(π_w, P, C)``, one per program in ``programs``.

    Each program is rolled out ``num_trajectories`` times in ``C[P]`` for
    ``trajectory_length`` steps; the score averages the rollouts' distances.
    ``init_region`` overrides the environment's initial region; Algorithm 2
    passes the shrunk region of the current CEGIS iteration here.
    """
    config = config or DistanceConfig()
    region = init_region if init_region is not None else env.init_region
    repeats, steps = config.num_trajectories, config.trajectory_length
    rows = len(programs) * repeats
    states = np.empty((rows, env.state_dim))
    disturbances = np.empty((rows, steps, env.state_dim))
    for row in range(rows):
        states[row] = region.sample(rng, 1)[0]
        disturbances[row] = env.sample_disturbance_batch(rng, steps)
    act = _program_actions(programs, repeats, env.action_dim)
    totals = np.zeros(rows)
    for step in range(steps + 1):
        actions = act(states)
        safe = ~env.is_unsafe_batch(states)
        losses = np.full(rows, UNSAFE_PENALTY)
        if safe.any():
            expert = oracle_actions(oracle, states[safe]).reshape(-1, env.action_dim)
            losses[safe] = _action_gaps(actions[safe], expert)
        totals -= losses
        if step < steps:
            rates = _rates(env, states, env.clip_action_batch(actions))
            states = states + env.dt * (rates + disturbances[:, step])
    scores = np.empty(len(programs))
    for index, block in enumerate(totals.reshape(len(programs), repeats)):
        # A plain loop, as the scalar estimate adds: sum() compensates its
        # rounding on Python 3.12 and later.
        total = 0.0
        for value in block:
            total += float(value)
        scores[index] = total / repeats
    return scores

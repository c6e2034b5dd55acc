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
  its disturbances, one per step, as one block (:func:`draw_rows`).  The
  caller draws the rows and passes them in as :class:`RolloutRows`, so it may
  draw them in groups with other draws in between: Algorithm 1 draws the
  updated θ's rows, then the next perturbation directions, then the perturbed
  programs' rows, and scores all of them as one fleet
  (:mod:`repro.core.synthesis`).  Drawn program by program, the rows are the
  ones scoring each program alone would draw;
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

Each step's unsafe test, actuator clip and rate come from the trusted-input
:class:`~repro.envs.fleet.FleetStep` that replay and the compiled stepper use
too; its ``rowwise`` rate keeps the linear dynamics per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..envs.base import EnvironmentContext
from ..envs.fleet import FleetStep
from ..lang.program import AffineProgram, PolicyProgram
from ..rl.networks import MLP
from ..rl.policies import NeuralPolicy

__all__ = [
    "DistanceConfig",
    "RolloutRows",
    "draw_rows",
    "oracle_actions",
    "program_oracle_distance",
]


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


def _action_gaps(program_actions: np.ndarray, oracle_actions: np.ndarray) -> np.ndarray:
    gaps = program_actions - oracle_actions
    # The per-row dot that a 1-D np.linalg.norm takes the root of.
    return np.sqrt(np.matmul(gaps[:, None, :], gaps[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class RolloutRows:
    """The random inputs of a fleet's rollouts, one row per rollout.

    ``initial_states`` is ``(rows, state_dim)``; ``disturbances`` is
    ``(rows, trajectory_length, state_dim)``, one draw per step (zeros for an
    undisturbed environment).
    """

    initial_states: np.ndarray
    disturbances: np.ndarray

    def __len__(self) -> int:
        return self.initial_states.shape[0]

    def then(self, later: "RolloutRows") -> "RolloutRows":
        """These rows followed by ``later``'s, as one fleet."""
        return RolloutRows(
            np.concatenate([self.initial_states, later.initial_states]),
            np.concatenate([self.disturbances, later.disturbances]),
        )


def draw_rows(
    env: EnvironmentContext,
    count: int,
    rng: np.random.Generator,
    config: DistanceConfig | None = None,
    init_region=None,
) -> RolloutRows:
    """``count`` rollout rows, drawn from ``rng`` in the scalar order.

    Row by row: the initial state from ``init_region`` (the environment's
    initial region by default), then the row's disturbances, one per step, as
    one block.
    """
    config = config or DistanceConfig()
    region = init_region if init_region is not None else env.init_region
    steps = config.trajectory_length
    states = np.empty((count, env.state_dim))
    disturbances = np.empty((count, steps, env.state_dim))
    for row in range(count):
        states[row] = region.sample(rng, 1)[0]
        disturbances[row] = env.sample_disturbance_batch(rng, steps)
    return RolloutRows(states, disturbances)


def program_oracle_distance(
    env: EnvironmentContext,
    programs: Sequence[PolicyProgram],
    oracle: Callable[[np.ndarray], np.ndarray],
    rows: RolloutRows,
    config: DistanceConfig | None = None,
) -> np.ndarray:
    """Monte-Carlo estimates of ``d(π_w, P, C)``, one per program in ``programs``.

    Each program is rolled out ``num_trajectories`` times in ``C[P]``, one
    rollout per row of ``rows`` (:func:`draw_rows`); the score averages the
    rollouts' distances.  Row ``r`` of the fleet follows
    ``programs[r // num_trajectories]``.
    """
    config = config or DistanceConfig()
    repeats = config.num_trajectories
    if len(rows) != len(programs) * repeats:
        raise ValueError(
            f"{len(rows)} rows cannot score {len(programs)} programs "
            f"x {repeats} trajectories"
        )
    count = len(rows)
    states, disturbances = rows.initial_states, rows.disturbances
    step = FleetStep(env, rowwise=True)
    act = _program_actions(programs, repeats, env.action_dim)
    totals = np.zeros(count)
    steps = disturbances.shape[1]
    for index in range(steps + 1):
        actions = act(states)
        unsafe = step.unsafe(states)
        if unsafe.any():
            losses = np.full(count, UNSAFE_PENALTY)
            safe = ~unsafe
            if safe.any():
                expert = oracle_actions(oracle, states[safe]).reshape(-1, env.action_dim)
                losses[safe] = _action_gaps(actions[safe], expert)
        else:
            expert = oracle_actions(oracle, states).reshape(-1, env.action_dim)
            losses = _action_gaps(actions, expert)
        totals -= losses
        if index < steps:
            # The program's own actions are spent: clip them in place.
            rates = step.rate(states, step.clip(actions, actions))
            states = states + step.dt * (rates + disturbances[:, index])
    scores = np.empty(len(programs))
    for index, block in enumerate(totals.reshape(len(programs), repeats)):
        # A plain loop, as the scalar estimate adds: sum() compensates its
        # rounding on Python 3.12 and later.
        total = 0.0
        for value in block:
            total += float(value)
        scores[index] = total / repeats
    return scores

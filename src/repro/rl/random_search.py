"""Augmented random search (ARS) for policy training.

Mania, Guy & Recht (NeurIPS 2018) showed that simple random search over linear
policies is competitive for continuous-control reinforcement learning; the
paper both cites this method ([29], [30]) as the basis of its program-synthesis
search (Algorithm 1) and evaluates directly training a linear policy as a
baseline (§5: "directly training a linear control program ... was unsuccessful
because of undesirable overfitting").

This module provides the trainer for both uses:

* :class:`ARSTrainer` optimises the parameters of *any* policy exposing a flat
  parameter vector (a linear policy or a whole MLP) against the environment
  return;
* the same two-point finite-difference estimator also powers the program
  synthesis loop in :mod:`repro.core.synthesis`, but against the imitation
  objective rather than the reward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from ..envs.base import EnvironmentContext
from .networks import MLP
from .policies import LinearPolicy, NeuralPolicy, Policy

__all__ = ["ARSConfig", "ARSResult", "ARSTrainer", "train_linear_policy", "train_neural_policy_ars"]

#: Best directions kept per iteration (ARS V1-t).
TOP_DIRECTIONS = 4
#: Step size α and perturbation scale ν of the update.
STEP_SIZE = 0.02
NOISE_SCALE = 0.03
#: Rollouts averaged per evaluation of the environment-return objective.
ROLLOUTS_PER_DIRECTION = 1


@dataclass
class ARSConfig:
    """Hyperparameters of the augmented-random-search trainer."""

    iterations: int = 60
    directions: int = 8
    rollout_steps: int = 200
    seed: int = 0


@dataclass
class ARSResult:
    """Outcome of an ARS training run."""

    parameters: np.ndarray
    returns: List[float] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def final_return(self) -> float:
        return self.returns[-1] if self.returns else float("nan")


class ARSTrainer:
    """Basic ARS (V1-t): top-direction averaging, no state normalisation."""

    def __init__(
        self,
        objective: Callable[[np.ndarray], float],
        num_parameters: int,
        config: ARSConfig | None = None,
    ) -> None:
        self.objective = objective
        self.num_parameters = int(num_parameters)
        self.config = config or ARSConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def train(self, initial_parameters: np.ndarray | None = None) -> ARSResult:
        cfg = self.config
        theta = (
            np.zeros(self.num_parameters)
            if initial_parameters is None
            else np.asarray(initial_parameters, dtype=float).copy()
        )
        returns: List[float] = []
        start = time.perf_counter()
        for _ in range(cfg.iterations):
            deltas = self._rng.normal(size=(cfg.directions, self.num_parameters))
            rewards_plus = np.zeros(cfg.directions)
            rewards_minus = np.zeros(cfg.directions)
            for index, delta in enumerate(deltas):
                rewards_plus[index] = self.objective(theta + NOISE_SCALE * delta)
                rewards_minus[index] = self.objective(theta - NOISE_SCALE * delta)
            # Keep only the best directions (ARS V1-t).
            scores = np.maximum(rewards_plus, rewards_minus)
            order = np.argsort(scores)[::-1][:TOP_DIRECTIONS]
            selected_plus = rewards_plus[order]
            selected_minus = rewards_minus[order]
            selected_deltas = deltas[order]
            sigma = np.std(np.concatenate([selected_plus, selected_minus]))
            sigma = max(sigma, 1e-8)
            update = np.einsum("i,ij->j", selected_plus - selected_minus, selected_deltas)
            theta = theta + STEP_SIZE / (TOP_DIRECTIONS * sigma) * update
            returns.append(self.objective(theta))
        return ARSResult(
            parameters=theta,
            returns=returns,
            wall_clock_seconds=time.perf_counter() - start,
        )


def _environment_return(
    env: EnvironmentContext,
    policy: Policy,
    rollouts: int,
    steps: int,
    rng: np.random.Generator,
) -> float:
    # ARS evaluates thousands of perturbed policies; the fused rollout kernel
    # computes the same returns (same initial-state and disturbance streams,
    # same clipped-action rewards) without materialising trajectories.
    from ..compile import fused_policy_returns

    returns = fused_policy_returns(env, policy, rollouts, steps, rng)
    return float(np.mean(returns))


def train_linear_policy(
    env: EnvironmentContext, config: ARSConfig | None = None
) -> Tuple[LinearPolicy, ARSResult]:
    """Directly train a linear policy with ARS (the §5 'direct RL' baseline)."""
    config = config or ARSConfig()
    rng = np.random.default_rng(config.seed + 1)
    num_parameters = env.action_dim * env.state_dim

    def objective(theta: np.ndarray) -> float:
        policy = LinearPolicy(
            gain=theta.reshape(env.action_dim, env.state_dim),
            action_low=env.action_low,
            action_high=env.action_high,
        )
        return _environment_return(env, policy, ROLLOUTS_PER_DIRECTION, config.rollout_steps, rng)

    trainer = ARSTrainer(objective, num_parameters, config)
    result = trainer.train()
    policy = LinearPolicy(
        gain=result.parameters.reshape(env.action_dim, env.state_dim),
        action_low=env.action_low,
        action_high=env.action_high,
    )
    return policy, result


def train_neural_policy_ars(
    env: EnvironmentContext,
    hidden_sizes: tuple = (64, 48),
    config: ARSConfig | None = None,
) -> Tuple[NeuralPolicy, ARSResult]:
    """Train an MLP policy with ARS over its full parameter vector.

    A derivative-free alternative to DDPG used by the fast harness paths and by
    the oracle-trainer ablation.
    """
    config = config or ARSConfig()
    rng = np.random.default_rng(config.seed + 2)
    action_scale = env.action_high if env.action_high is not None else np.ones(env.action_dim)
    template = MLP(
        env.state_dim, hidden_sizes, env.action_dim, output_scale=action_scale, seed=config.seed
    )

    def objective(theta: np.ndarray) -> float:
        network = template.copy()
        network.set_parameters(theta)
        return _environment_return(
            env, NeuralPolicy(network), ROLLOUTS_PER_DIRECTION, config.rollout_steps, rng
        )

    trainer = ARSTrainer(objective, template.num_parameters, config)
    result = trainer.train(initial_parameters=template.get_parameters())
    template.set_parameters(result.parameters)
    return NeuralPolicy(template), result

"""Oracle training entry points.

The paper trains every neural oracle with DDPG for roughly a thousand seconds
on a desktop machine.  Reproducing the full training budget for all fifteen
benchmarks is not practical inside a test harness, so this module provides a
spectrum of oracle trainers with the same black-box interface:

* ``"ddpg"`` — the paper's algorithm (NumPy implementation, smaller budget);
* ``"ars"`` — derivative-free random search over the full network parameters;
* ``"cloned"`` — behaviour cloning of an LQR teacher into an MLP followed by an
  optional short DDPG fine-tune.  This is the default of the benchmark harness:
  it produces a competent *neural* oracle in seconds, which is all the
  synthesis/verification/shielding pipeline requires (the oracle is treated as
  a black box throughout).

The choice is recorded in experiment outputs, so a report can say which
trainer produced each row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..baselines.lqr import make_lqr_policy
from ..envs.base import EnvironmentContext
from .ddpg import DDPGConfig, DDPGTrainer
from .networks import MLP, AdamOptimizer
from .policies import NeuralPolicy
from .random_search import ARSConfig, train_neural_policy_ars

__all__ = ["OracleTrainingResult", "train_oracle", "behaviour_clone"]


@dataclass
class OracleTrainingResult:
    """A trained neural oracle plus bookkeeping for the experiment tables."""

    policy: NeuralPolicy
    method: str
    training_seconds: float
    episode_returns: Tuple[float, ...] = ()

    @property
    def network_size(self) -> str:
        return "x".join(str(h) for h in self.policy.network.hidden_sizes)


def behaviour_clone(
    env: EnvironmentContext,
    teacher,
    hidden_sizes: tuple = (64, 48),
    samples: int = 2000,
    epochs: int = 200,
    batch_size: int = 128,
    learning_rate: float = 1e-3,
    seed: int = 0,
    sample_region_scale: float = 1.0,
) -> NeuralPolicy:
    """Fit an MLP to imitate ``teacher`` on states sampled from the safe region."""
    rng = np.random.default_rng(seed)
    region = env.safe_box if sample_region_scale == 1.0 else env.safe_box.expand(
        sample_region_scale
    )
    states = region.sample(rng, samples)
    teacher_batch = getattr(teacher, "act_batch", None)
    if teacher_batch is not None:
        actions = np.asarray(teacher_batch(states), dtype=float)
    else:
        actions = np.stack([np.asarray(teacher(s), dtype=float) for s in states], axis=0)
    action_scale = env.action_high if env.action_high is not None else np.ones(env.action_dim)
    network = MLP(
        env.state_dim, hidden_sizes, env.action_dim, output_scale=action_scale, seed=seed
    )
    optimizer = AdamOptimizer(learning_rate=learning_rate)
    for _ in range(epochs):
        indices = rng.integers(0, samples, size=batch_size)
        batch_states = states[indices]
        batch_actions = actions[indices]
        outputs, cache = network.forward(batch_states)
        grad = 2.0 * (outputs - batch_actions) / batch_size
        weight_grads, bias_grads, _ = network.backward(cache, grad)
        optimizer.update(network.weights + network.biases, weight_grads + bias_grads)
    return NeuralPolicy(network)


def train_oracle(
    env: EnvironmentContext,
    method: str = "cloned",
    hidden_sizes: tuple = (64, 48),
    ddpg_config: Optional[DDPGConfig] = None,
    ars_config: Optional[ARSConfig] = None,
    fine_tune_episodes: int = 0,
    seed: int = 0,
) -> OracleTrainingResult:
    """Train a neural oracle for ``env`` with the requested method."""
    start = time.perf_counter()
    if method == "ddpg":
        config = ddpg_config or DDPGConfig(hidden_sizes=hidden_sizes, seed=seed)
        trainer = DDPGTrainer(env, config)
        policy, log = trainer.train()
        return OracleTrainingResult(
            policy=policy,
            method="ddpg",
            training_seconds=time.perf_counter() - start,
            episode_returns=tuple(log.episode_returns),
        )
    if method == "ars":
        config = ars_config or ARSConfig(seed=seed)
        policy, result = train_neural_policy_ars(env, hidden_sizes=hidden_sizes, config=config)
        return OracleTrainingResult(
            policy=policy,
            method="ars",
            training_seconds=time.perf_counter() - start,
            episode_returns=tuple(result.returns),
        )
    if method == "cloned":
        teacher = make_lqr_policy(env)
        policy = behaviour_clone(env, teacher, hidden_sizes=hidden_sizes, seed=seed)
        returns: Tuple[float, ...] = ()
        if fine_tune_episodes > 0:
            config = ddpg_config or DDPGConfig(
                hidden_sizes=hidden_sizes, episodes=fine_tune_episodes, seed=seed
            )
            trainer = DDPGTrainer(env, config)
            trainer.actor.set_parameters(policy.network.get_parameters())
            trainer.target_actor.set_parameters(policy.network.get_parameters())
            policy, log = trainer.train()
            returns = tuple(log.episode_returns)
        return OracleTrainingResult(
            policy=policy,
            method="cloned" if fine_tune_episodes == 0 else "cloned+ddpg",
            training_seconds=time.perf_counter() - start,
            episode_returns=returns,
        )
    raise ValueError(f"unknown oracle training method {method!r}")

"""Reinforcement-learning substrate: networks, replay, DDPG, ARS, oracle training."""

from .ddpg import DDPGConfig, DDPGTrainer, TrainingLog
from .networks import MLP, AdamOptimizer
from .policies import CallablePolicy, LinearPolicy, NeuralPolicy, Policy
from .random_search import (
    ARSConfig,
    ARSResult,
    ARSTrainer,
    train_linear_policy,
    train_neural_policy_ars,
)
from .replay import ReplayBuffer
from .training import OracleTrainingResult, behaviour_clone, train_oracle

__all__ = [
    "MLP",
    "AdamOptimizer",
    "ReplayBuffer",
    "Policy",
    "NeuralPolicy",
    "LinearPolicy",
    "CallablePolicy",
    "DDPGConfig",
    "DDPGTrainer",
    "TrainingLog",
    "ARSConfig",
    "ARSResult",
    "ARSTrainer",
    "train_linear_policy",
    "train_neural_policy_ars",
    "OracleTrainingResult",
    "behaviour_clone",
    "train_oracle",
]

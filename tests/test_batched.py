"""Property tests: the batched rollout engine is equivalent to the scalar reference.

The batched engine (``repro.runtime.batched``) must reproduce the sequential
``run_episode_scalar`` semantics exactly: same initial states under the same
seed (both walk the shard plan, ``repro.reference.shard_streams``), same
per-step rewards, same unsafe/steady bookkeeping, and — for
shielded campaigns — the same per-episode intervention counts.  These tests
pin that contract on a linear (satellite) and a nonlinear (pendulum)
environment, plus the per-layer batch primitives the engine is built from.
"""

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.core import Shield
from repro.envs import make_environment
from repro.envs.base import LinearEnvironment
from repro.envs.registry import BENCHMARKS
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.reference import evaluate_policy_scalar, run_episode_scalar, shard_streams
from repro.rl.policies import LinearPolicy
from repro.runtime import EvaluationProtocol, evaluate_policy

EQUIVALENCE_ENVS = ("satellite", "pendulum")


def _make_shield(env, neural_policy, measure_time=False):
    gains = {"satellite": [[-2.5, -2.0]], "pendulum": [[-12.05, -5.87]]}
    program = AffineProgram(gain=gains[env.name], names=env.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.diag([1.0, 0.5])) - 0.2,
        names=env.state_names,
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=env.state_names)
    return Shield(
        env=env,
        neural_policy=neural_policy,
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=measure_time,
    )


def _episode_signature(episode):
    return (
        episode.steps,
        episode.unsafe_steps,
        episode.interventions,
        episode.steps_to_steady,
    )


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("name", EQUIVALENCE_ENVS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_single_episode_matches_scalar(self, name, seed):
        """episodes=1 through the batched engine == the scalar reference."""
        env = make_environment(name)
        policy = make_lqr_policy(env)
        (_shard, generator, states), = shard_streams(env, 1, np.random.default_rng(seed))
        scalar = run_episode_scalar(
            env, policy, steps=120, rng=generator, initial_state=states[0]
        )
        protocol = EvaluationProtocol(episodes=1, steps=120, seed=seed)
        batched = evaluate_policy(env, policy, protocol).episodes[0]
        assert _episode_signature(scalar) == _episode_signature(batched)
        assert scalar.total_reward == pytest.approx(batched.total_reward, rel=1e-12)

    @pytest.mark.parametrize("name", EQUIVALENCE_ENVS)
    def test_campaign_matches_scalar_when_disturbance_free(self, name):
        """Without disturbances the whole-campaign generator streams coincide."""
        env = make_environment(name)
        assert env.disturbance_bound is None
        policy = make_lqr_policy(env)
        protocol = EvaluationProtocol(episodes=6, steps=100, seed=3)
        scalar = evaluate_policy_scalar(env, policy, protocol)
        batched = evaluate_policy(env, policy, protocol)
        for s, b in zip(scalar.episodes, batched.episodes):
            assert _episode_signature(s) == _episode_signature(b)
            assert s.total_reward == pytest.approx(b.total_reward, rel=1e-12)

    @pytest.mark.parametrize("name", EQUIVALENCE_ENVS)
    def test_shielded_campaign_matches_scalar(self, name):
        """Per-episode interventions and rewards survive batching exactly."""
        env = make_environment(name)
        destabilising = LinearPolicy(gain=4.0 * np.ones((env.action_dim, env.state_dim)))
        shield = _make_shield(env, destabilising)
        protocol = EvaluationProtocol(episodes=4, steps=150, seed=5)
        scalar = evaluate_policy_scalar(env, shield, protocol, shield=shield)
        shield_b = _make_shield(env, destabilising)
        batched = evaluate_policy(env, shield_b, protocol, shield=shield_b)
        assert scalar.interventions > 0  # the override path must be exercised
        assert [e.interventions for e in scalar.episodes] == [
            e.interventions for e in batched.episodes
        ]
        for s, b in zip(scalar.episodes, batched.episodes):
            assert _episode_signature(s) == _episode_signature(b)
            assert s.total_reward == pytest.approx(b.total_reward, rel=1e-10)

    @pytest.mark.parametrize("name", EQUIVALENCE_ENVS)
    def test_simulate_batch_states_match_simulate(self, name):
        env = make_environment(name)
        policy = make_lqr_policy(env)
        scalar = env.simulate(policy, steps=80, rng=np.random.default_rng(11))
        batch = env.simulate_batch(policy, episodes=1, steps=80, rng=np.random.default_rng(11))
        np.testing.assert_allclose(batch.states[0], scalar.states, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(batch.rewards[0], scalar.rewards, rtol=1e-10, atol=1e-12)
        assert int(batch.unsafe_step_counts[0]) == scalar.unsafe_steps


class TestBatchPrimitives:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_rate_batch_matches_rate_numeric(self, name):
        """Every registered benchmark's vectorised dynamics agree row-wise.

        Nonlinear environments evaluate the same ``rate`` on floats and on
        columns, so the two agree bit for bit; linear ones use gemv and gemm,
        which sum in different orders.
        """
        env = make_environment(name)
        rng = np.random.default_rng(3)
        states = env.domain.sample(rng, 5000)
        actions = rng.uniform(-1.0, 1.0, size=(5000, env.action_dim))
        batched = env.rate_batch(states, actions)
        rows = np.stack([env.rate_numeric(s, a) for s, a in zip(states, actions)])
        if isinstance(env, LinearEnvironment):
            np.testing.assert_allclose(batched, rows, rtol=1e-10, atol=1e-12)
        else:
            np.testing.assert_array_equal(batched, rows)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_reward_batch_matches_reward(self, name):
        """``reward`` and ``reward_batch`` evaluate the same ``cost``: bit-equal."""
        env = make_environment(name)
        rng = np.random.default_rng(3)
        states = env.domain.sample(rng, 5000)
        actions = rng.uniform(-1.0, 1.0, size=(5000, env.action_dim))
        batched = env.reward_batch(states, actions)
        rows = np.array([env.reward(s, a) for s, a in zip(states, actions)])
        np.testing.assert_array_equal(batched, rows)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_step_and_unsafe_and_steady_batch(self, name):
        env = make_environment(name)
        rng = np.random.default_rng(2)
        states = env.domain.sample(rng, 8)
        actions = rng.uniform(-1.0, 1.0, size=(8, env.action_dim))
        batched = env.predict_batch(states, actions)
        rows = np.stack([env.predict(s, a) for s, a in zip(states, actions)])
        np.testing.assert_allclose(batched, rows, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(
            env.is_unsafe_batch(states), [env.is_unsafe(s) for s in states]
        )
        np.testing.assert_array_equal(
            env.is_steady_batch(states), [env.is_steady(s) for s in states]
        )

    def test_sample_initial_states_matches_sequential_stream(self):
        env = make_environment("satellite")
        block = env.sample_initial_states(np.random.default_rng(9), 5)
        rng = np.random.default_rng(9)
        rows = np.stack([env.sample_initial_state(rng) for _ in range(5)])
        np.testing.assert_array_equal(block, rows)

    def test_guarded_program_act_batch_matches_act(self):
        env = make_environment("pendulum")
        inner = Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 0.1)
        outer = Invariant(barrier=Polynomial.quadratic_form(0.25 * np.eye(2)) - 0.5)
        program = GuardedProgram(
            branches=[
                (inner, AffineProgram(gain=[[-3.0, -1.0]])),
                (outer, AffineProgram(gain=[[-8.0, -4.0]])),
            ]
        )
        rng = np.random.default_rng(3)
        # Include states outside both invariants: the lenient closest-branch
        # selection must also match row-for-row.
        states = rng.uniform(-3.0, 3.0, size=(64, 2))
        batched = program.act_batch(states)
        rows = np.stack([program.act(s) for s in states])
        np.testing.assert_allclose(batched, rows, rtol=1e-12, atol=1e-12)

    def test_shield_decide_batch_matches_scalar_decisions(self):
        env = make_environment("pendulum")
        destabilising = LinearPolicy(gain=np.array([[6.0, 2.0]]))
        scalar_shield = _make_shield(env, destabilising)
        batch_shield = _make_shield(env, destabilising)
        rng = np.random.default_rng(4)
        states = env.safe_box.sample(rng, 32)
        actions, intervened = batch_shield.decide_batch(states)
        rows = np.stack([scalar_shield.act(s) for s in states])
        np.testing.assert_allclose(actions, rows, rtol=1e-10, atol=1e-12)
        assert intervened.any() and not intervened.all()
        assert batch_shield.statistics.decisions == 32
        assert batch_shield.statistics.interventions == scalar_shield.statistics.interventions

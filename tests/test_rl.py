"""Tests for the reinforcement-learning substrate (networks, replay, DDPG, ARS, oracles)."""

import numpy as np
import pytest

import repro.rl.random_search
from repro.baselines import linearize, lqr_gain, make_lqr_policy
from repro.envs import make_environment, make_pendulum, make_quadcopter, make_satellite
from repro.rl import (
    MLP,
    AdamOptimizer,
    ARSConfig,
    ARSTrainer,
    CallablePolicy,
    DDPGConfig,
    DDPGTrainer,
    LinearPolicy,
    NeuralPolicy,
    ReplayBuffer,
    TrainingLog,
    behaviour_clone,
    train_linear_policy,
    train_oracle,
)


# ---------------------------------------------------------------------- networks
class TestMLP:
    def test_output_shape(self):
        net = MLP(3, (8, 8), 2, seed=0)
        assert net(np.zeros(3)).shape == (2,)
        assert net(np.zeros((5, 3))).shape == (5, 2)

    def test_output_scale_bounds_actions(self):
        net = MLP(2, (8,), 1, output_scale=np.array([2.0]), seed=0)
        outputs = net(np.random.default_rng(0).normal(scale=100.0, size=(50, 2)))
        assert np.all(np.abs(outputs) <= 2.0 + 1e-9)

    def test_parameter_roundtrip(self):
        net = MLP(2, (4,), 1, seed=0)
        params = net.get_parameters()
        clone = net.copy()
        clone.set_parameters(params * 0.0)
        assert not np.allclose(clone.get_parameters(), params)
        clone.set_parameters(params)
        np.testing.assert_allclose(clone.get_parameters(), params)

    def test_set_parameters_wrong_size(self):
        net = MLP(2, (4,), 1)
        with pytest.raises(ValueError):
            net.set_parameters(np.zeros(3))

    def test_gradient_check_against_finite_differences(self):
        """Backprop gradients must match numerical gradients of a squared loss."""
        rng = np.random.default_rng(0)
        net = MLP(2, (5,), 1, seed=1)
        inputs = rng.normal(size=(4, 2))
        targets = rng.normal(size=(4, 1))

        def loss_for(params):
            clone = net.copy()
            clone.set_parameters(params)
            outputs, _ = clone.forward(inputs)
            return float(np.sum((outputs - targets) ** 2))

        outputs, cache = net.forward(inputs)
        weight_grads, bias_grads, _ = net.backward(cache, 2.0 * (outputs - targets))
        analytic = np.concatenate(
            [g.ravel() for g in weight_grads] + [g.ravel() for g in bias_grads]
        )
        params = net.get_parameters()
        numeric = np.zeros_like(params)
        epsilon = 1e-6
        for i in range(params.size):
            up = params.copy()
            up[i] += epsilon
            down = params.copy()
            down[i] -= epsilon
            numeric[i] = (loss_for(up) - loss_for(down)) / (2 * epsilon)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(2, (4,), 1, hidden_activation="sigmoidish")

    def test_adam_reduces_quadratic_loss(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=(3, 3))
        param = np.zeros((3, 3))
        optimizer = AdamOptimizer(learning_rate=0.05)
        for _ in range(500):
            grad = 2.0 * (param - target)
            optimizer.update([param], [grad])
        np.testing.assert_allclose(param, target, atol=1e-2)


# ------------------------------------------------------------------------ replay
class TestReplayBuffer:
    def test_add_and_sample(self):
        buffer = ReplayBuffer(capacity=10, state_dim=2, action_dim=1)
        for i in range(5):
            buffer.add([i, i], [0.1], float(i), [i + 1, i + 1], False)
        assert len(buffer) == 5
        batch = buffer.sample(8)
        assert batch["states"].shape == (8, 2)
        assert batch["rewards"].shape == (8,)

    def test_capacity_wraps(self):
        buffer = ReplayBuffer(capacity=4, state_dim=1, action_dim=1)
        for i in range(10):
            buffer.add([i], [0.0], 0.0, [i], False)
        assert len(buffer) == 4

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=4, state_dim=1, action_dim=1).sample(1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0, state_dim=1, action_dim=1)


# ---------------------------------------------------------------------- policies
class TestPolicies:
    def test_linear_policy_clipping(self):
        policy = LinearPolicy(gain=np.array([[5.0, 0.0]]), action_low=[-1], action_high=[1])
        assert policy.act([10.0, 0.0])[0] == 1.0

    def test_neural_policy_dims(self):
        policy = NeuralPolicy(MLP(3, (4,), 2, seed=0))
        assert policy.state_dim == 3 and policy.action_dim == 2
        assert policy.act(np.zeros(3)).shape == (2,)
        assert policy.act_batch(np.zeros((7, 3))).shape == (7, 2)

    def test_callable_policy(self):
        policy = CallablePolicy(lambda s: -s[:1], state_dim=2, action_dim=1)
        np.testing.assert_allclose(policy.act([2.0, 5.0]), [-2.0])


# -------------------------------------------------------------------------- ARS
class TestARS:
    def test_optimises_simple_quadratic(self, monkeypatch):
        target = np.array([1.0, -2.0, 0.5])

        def objective(theta):
            return -float(np.sum((theta - target) ** 2))

        monkeypatch.setattr(repro.rl.random_search, "STEP_SIZE", 0.1)
        trainer = ARSTrainer(objective, 3, ARSConfig(iterations=150, seed=0))
        result = trainer.train()
        np.testing.assert_allclose(result.parameters, target, atol=0.3)
        assert result.returns[-1] > result.returns[0]

    def test_train_linear_policy_improves_return(self):
        env = make_quadcopter()
        config = ARSConfig(iterations=10, directions=4, rollout_steps=80, seed=0)
        policy, result = train_linear_policy(env, config)
        assert policy.gain.shape == (1, 2)
        assert len(result.returns) == 10


# ------------------------------------------------------------------------- DDPG
class TestDDPG:
    def test_short_training_run_completes(self):
        env = make_quadcopter()
        config = DDPGConfig(
            hidden_sizes=(16, 16), episodes=3, steps_per_episode=60, warmup_steps=30, seed=0
        )
        policy, log = DDPGTrainer(env, config).train()
        assert len(log.episode_returns) == 3
        assert policy.act(np.zeros(2)).shape == (1,)
        assert np.all(np.abs(policy.act(np.array([0.5, -0.5]))) <= env.action_high + 1e-9)

    def test_replay_is_populated(self):
        env = make_quadcopter()
        trainer = DDPGTrainer(env, DDPGConfig(episodes=1, steps_per_episode=40, warmup_steps=10))
        trainer.train()
        assert len(trainer.buffer) > 0


class TestDDPGTrainer:
    @pytest.fixture(scope="class")
    def pendulum(self):
        return make_environment("pendulum")

    def _quick_config(self, **overrides) -> DDPGConfig:
        defaults = dict(
            hidden_sizes=(16, 16),
            episodes=3,
            steps_per_episode=40,
            warmup_steps=20,
            batch_size=16,
            buffer_capacity=2_000,
            seed=0,
        )
        defaults.update(overrides)
        return DDPGConfig(**defaults)

    def _exploration_deltas(self, env, trainer, samples=300):
        state = np.array([0.1, 0.0])
        greedy = np.asarray(trainer.actor(state), dtype=float).reshape(env.action_dim)
        warm = trainer.config.warmup_steps
        return np.array([trainer._explore(state, warm)[0] - greedy[0] for _ in range(samples)])

    def test_training_produces_a_policy_with_correct_shapes(self, pendulum):
        policy, log = DDPGTrainer(pendulum, self._quick_config()).train()
        assert len(log.episode_returns) == 3
        assert len(log.episode_unsafe_steps) == 3
        assert log.final_return == log.episode_returns[-1]
        action = policy(np.array([0.1, 0.0]))
        assert action.shape == (pendulum.action_dim,)
        assert np.all(np.abs(action) <= pendulum.action_high + 1e-9)

    def test_empty_log_has_nan_final_return(self):
        assert np.isnan(TrainingLog().final_return)

    def test_target_networks_start_as_copies(self, pendulum):
        trainer = DDPGTrainer(pendulum, self._quick_config())
        np.testing.assert_array_equal(
            trainer.target_actor.get_parameters(), trainer.actor.get_parameters()
        )
        np.testing.assert_array_equal(
            trainer.target_critic.get_parameters(), trainer.critic.get_parameters()
        )

    def test_target_networks_track_online_networks(self, pendulum):
        trainer = DDPGTrainer(pendulum, self._quick_config())
        initial_target = trainer.target_actor.get_parameters().copy()
        trainer.train()
        online = trainer.actor.get_parameters()
        target = trainer.target_actor.get_parameters()
        assert not np.allclose(target, initial_target)
        # Soft updates move the target only part of the way towards the online net.
        assert np.linalg.norm(target - online) < np.linalg.norm(initial_target - online)

    def test_no_updates_before_warmup(self, pendulum):
        trainer = DDPGTrainer(pendulum, self._quick_config(warmup_steps=1_000_000))
        actor_before = trainer.actor.get_parameters().copy()
        critic_before = trainer.critic.get_parameters().copy()
        policy, _ = trainer.train()
        np.testing.assert_array_equal(policy.network.get_parameters(), actor_before)
        np.testing.assert_array_equal(trainer.critic.get_parameters(), critic_before)
        assert len(trainer.buffer) == 3 * 40

    def test_warmup_actions_are_uniform_within_bounds(self, pendulum):
        trainer = DDPGTrainer(pendulum, self._quick_config(warmup_steps=1_000))
        actions = np.array([trainer._explore(np.array([0.1, 0.0]), 0) for _ in range(500)])
        assert np.all(actions >= pendulum.action_low)
        assert np.all(actions <= pendulum.action_high)
        # Uniform over [-15, 15]: the samples cover both halves of the range.
        assert actions.min() < -7.5 and actions.max() > 7.5

    def test_exploration_noise_scale_controls_spread(self, pendulum):
        small = DDPGTrainer(pendulum, self._quick_config(exploration_noise=0.01))
        large = DDPGTrainer(pendulum, self._quick_config(exploration_noise=0.2))
        assert (
            self._exploration_deltas(pendulum, small).std()
            < self._exploration_deltas(pendulum, large).std()
        )

    def test_zero_exploration_noise_acts_greedily(self, pendulum):
        trainer = DDPGTrainer(pendulum, self._quick_config(exploration_noise=0.0))
        np.testing.assert_allclose(self._exploration_deltas(pendulum, trainer, samples=5), 0.0)

    def test_exploration_is_clipped_to_action_bounds(self, pendulum):
        trainer = DDPGTrainer(pendulum, self._quick_config(exploration_noise=50.0))
        actions = np.array([trainer._explore(np.array([0.1, 0.0]), 20) for _ in range(200)])
        assert np.all(actions >= pendulum.action_low)
        assert np.all(actions <= pendulum.action_high)
        assert np.any(actions == pendulum.action_low) and np.any(actions == pendulum.action_high)

    def test_same_seed_reproduces_training(self, pendulum):
        first, first_log = DDPGTrainer(pendulum, self._quick_config()).train()
        second, second_log = DDPGTrainer(pendulum, self._quick_config()).train()
        np.testing.assert_array_equal(
            first.network.get_parameters(), second.network.get_parameters()
        )
        assert first_log.episode_returns == second_log.episode_returns

    def test_warm_started_fine_tune_keeps_pendulum_safe(self, pendulum):
        """DDPG as an oracle fine-tuner: start from a cloned LQR actor and check
        the fine-tuned oracle still balances the pendulum."""
        teacher = make_lqr_policy(pendulum)
        cloned = behaviour_clone(pendulum, teacher, hidden_sizes=(16, 16), samples=500, epochs=60)
        trainer = DDPGTrainer(pendulum, self._quick_config(exploration_noise=0.02))
        trainer.actor.set_parameters(cloned.network.get_parameters())
        trainer.target_actor.set_parameters(cloned.network.get_parameters())
        policy, _ = trainer.train()
        trajectory = pendulum.simulate(
            policy, steps=300, initial_state=np.array([0.1, 0.0]), rng=np.random.default_rng(0)
        )
        assert trajectory.unsafe_steps == 0


# --------------------------------------------------------------------- baselines
class TestLQR:
    def test_lqr_stabilises_double_integrator(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0], [1.0]])
        result = lqr_gain(a, b)
        closed = a - b @ result.gain
        assert np.all(np.real(np.linalg.eigvals(closed)) < 0)

    def test_linearize_matches_linear_env(self):
        env = make_satellite()
        a, b = linearize(env)
        a_true, b_true = env.linear_matrices()
        np.testing.assert_allclose(a, a_true)
        np.testing.assert_allclose(b, b_true)

    def test_linearize_nonlinear_env(self):
        env = make_pendulum()
        a, b = linearize(env)
        assert a.shape == (2, 2)
        assert a[1, 0] == pytest.approx(9.8 / env.length, rel=1e-3)

    def test_lqr_policy_keeps_satellite_safe(self):
        env = make_satellite()
        policy = make_lqr_policy(env)
        trajectory = env.simulate(policy, steps=400, rng=np.random.default_rng(0))
        assert trajectory.unsafe_steps == 0


# ----------------------------------------------------------------------- oracles
class TestOracleTraining:
    def test_behaviour_cloning_imitates_teacher(self):
        env = make_satellite()
        teacher = make_lqr_policy(env)
        student = behaviour_clone(env, teacher, hidden_sizes=(32, 24), samples=800, epochs=150)
        rng = np.random.default_rng(0)
        states = env.safe_box.sample(rng, 100)
        teacher_actions = np.stack([teacher(s) for s in states])
        student_actions = student.act_batch(states)
        error = np.mean(np.abs(teacher_actions - student_actions))
        scale = np.mean(np.abs(teacher_actions)) + 1e-6
        assert error / scale < 0.5

    def test_train_oracle_methods(self):
        env = make_quadcopter()
        cloned = train_oracle(env, method="cloned", hidden_sizes=(16, 16), seed=0)
        assert cloned.method == "cloned"
        assert cloned.training_seconds > 0
        with pytest.raises(ValueError):
            train_oracle(env, method="unknown")

    def test_cloned_oracle_is_competent(self):
        env = make_pendulum(safe_angle_deg=90.0)
        oracle = train_oracle(env, method="cloned", hidden_sizes=(32, 24), seed=0).policy
        trajectory = env.simulate(oracle, steps=400, rng=np.random.default_rng(1))
        assert trajectory.unsafe_steps == 0
        assert np.max(np.abs(trajectory.states[-1])) < 0.2

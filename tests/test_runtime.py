"""Tests for the deployment/measurement harness and the experiment infrastructure."""

import numpy as np
import pytest

from repro.envs import make_quadcopter, make_satellite
from repro.experiments import ExperimentScale, format_table
from repro.rl import train_oracle
from repro.runtime import DeploymentMetrics, EvaluationProtocol, evaluate_policy
from repro.shard import ShardPool


def _metrics(unsafe=(0,), interventions=(0,), steady=(-1,), steps=100, seconds=0.1):
    """A campaign result with one entry per episode in each array."""
    return DeploymentMetrics(
        steps=steps,
        total_rewards=np.full(len(unsafe), -1.0),
        unsafe_counts=np.array(unsafe, dtype=int),
        intervention_counts=np.array(interventions, dtype=int),
        steady_at=np.array(steady, dtype=int),
        total_seconds=seconds,
    )


class TestMetrics:
    def test_failures_count_episodes_not_steps(self):
        metrics = _metrics(unsafe=(5, 0), interventions=(0, 0), steady=(-1, -1))
        assert metrics.failures == 1
        assert metrics.unsafe_steps == 5

    def test_intervention_rate(self):
        metrics = _metrics(interventions=(10,), steps=100)
        assert metrics.intervention_rate == pytest.approx(0.1)

    def test_steps_to_steady_defaults_to_episode_length(self):
        metrics = _metrics(unsafe=(0, 0), interventions=(0, 0), steady=(20, -1), steps=100)
        assert metrics.mean_steps_to_steady == pytest.approx(60.0)

    def test_overhead_vs_baseline(self):
        fast = _metrics(seconds=1.0)
        slow = _metrics(seconds=1.2)
        assert slow.overhead_vs(fast) == pytest.approx(0.2)

    def test_summary_keys(self):
        summary = _metrics().summary()
        for key in ("failures", "interventions", "steps_to_steady"):
            assert key in summary

    def test_empty_metrics(self):
        metrics = _metrics(unsafe=(), interventions=(), steady=())
        assert metrics.num_episodes == 0
        assert metrics.intervention_rate == 0.0
        assert np.isnan(metrics.mean_steps_to_steady)


def _one_episode(env, policy, steps, initial_state):
    """One episode through the shard pool, from a pinned initial state."""
    with ShardPool(env, policy=policy) as pool:
        return pool.run_campaign(
            1, steps, seed=0, initial_states=np.reshape(initial_state, (1, env.state_dim))
        )


class TestSimulation:
    def test_run_episode_counts_unsafe_steps(self):
        env = make_quadcopter()
        initial_state = env.sample_initial_state(np.random.default_rng(0))

        def runaway(state):
            return np.asarray(env.action_high)

        episode = _one_episode(env, runaway, 200, initial_state)
        assert episode.total_decisions == 200
        assert episode.unsafe_steps > 0
        assert episode.failures == 1

    def test_evaluate_policy_protocol_is_reproducible(self):
        env = make_satellite()
        oracle = train_oracle(env, method="cloned", hidden_sizes=(16, 12), seed=0).policy
        protocol = EvaluationProtocol(episodes=3, steps=50, seed=7)
        first = evaluate_policy(env, oracle, protocol)
        second = evaluate_policy(env, oracle, protocol)
        assert first.failures == second.failures
        assert first.unsafe_steps == second.unsafe_steps

    def test_steady_state_detection(self):
        env = make_satellite()
        initial_state = env.sample_initial_state(np.random.default_rng(0))
        episode = _one_episode(
            env, lambda s: np.array([-2.0 * s[0] - 3.0 * s[1]]), 400, initial_state
        )
        assert 0 <= episode.steady_at[0] < 400

    def test_paper_protocol_constants(self):
        protocol = EvaluationProtocol.paper()
        assert protocol.episodes == 1000 and protocol.steps == 5000


class TestExperimentInfrastructure:
    def test_scales_are_ordered(self):
        smoke, medium, paper = (
            ExperimentScale.smoke(),
            ExperimentScale.medium(),
            ExperimentScale.paper(),
        )
        assert smoke.episodes < medium.episodes < paper.episodes
        assert smoke.steps < medium.steps <= paper.steps

    def test_cegis_config_builder(self):
        scale = ExperimentScale.smoke()
        config = scale.cegis_config(backend="barrier", invariant_degree=4)
        assert config.verification.backend == "barrier"
        assert config.verification.invariant_degree == 4
        assert config.synthesis.iterations == scale.synthesis_iterations

    def test_format_table(self):
        rows = [{"name": "a", "value": 1.2345}, {"name": "b", "value": 2}]
        text = format_table(rows)
        assert "name" in text and "a" in text and "b" in text
        assert format_table([]) == "(no rows)"

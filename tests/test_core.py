"""Tests for the paper's core algorithms: distance, synthesis (Alg. 1),
verification, CEGIS (Alg. 2), shielding (Alg. 3), and the end-to-end toolchain."""

import numpy as np
import pytest

import repro.core.distance
import repro.core.synthesis
from repro.baselines import make_lqr_policy
from repro.core import (
    CEGISConfig,
    CEGISLoop,
    DistanceConfig,
    ProgramSynthesizer,
    Shield,
    SynthesisConfig,
    VerificationConfig,
    program_oracle_distance,
    regression_warm_start,
    synthesize_shield,
    verify_program,
)
from repro.core.distance import draw_rows
from repro.envs import make_environment, make_quadcopter, make_satellite
from repro.lang import AffineProgram, AffineSketch
from repro.reference import trajectory_distance
from repro.rl import train_oracle
from repro.runtime import EvaluationProtocol, compare_shielded, evaluate_policy

FAST_SYNTH = SynthesisConfig(
    iterations=6, distance=DistanceConfig(num_trajectories=2, trajectory_length=50), seed=0
)
FAST_CEGIS = CEGISConfig(
    synthesis=FAST_SYNTH,
    verification=VerificationConfig(backend="auto", invariant_degree=2),
    max_counterexamples=4,
)


@pytest.fixture(scope="module")
def satellite_oracle():
    env = make_satellite()
    oracle = train_oracle(env, method="cloned", hidden_sizes=(24, 16), seed=0).policy
    return env, oracle


# ----------------------------------------------------------------------- distance
class TestDistance:
    def test_identical_policies_have_zero_distance(self, satellite_oracle):
        env, oracle = satellite_oracle
        config = DistanceConfig(num_trajectories=2, trajectory_length=30)
        rows = draw_rows(env, 2, np.random.default_rng(0), config)
        value = program_oracle_distance(env, [oracle], oracle, rows, config)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(0.0, abs=1e-9)

    def test_distance_decreases_with_disagreement(self, satellite_oracle):
        env, oracle = satellite_oracle
        near = AffineProgram(gain=np.array([[-0.5, -1.0]]))
        far = AffineProgram(gain=np.array([[5.0, 5.0]]))
        config = DistanceConfig(num_trajectories=2, trajectory_length=30)
        rows = draw_rows(env, 4, np.random.default_rng(1), config)
        d_near, d_far = program_oracle_distance(env, [near, far], oracle, rows, config)
        assert d_near > d_far

    def test_unsafe_states_incur_large_penalty(self, satellite_oracle, monkeypatch):
        env, oracle = satellite_oracle
        rng = np.random.default_rng(0)
        trajectory = env.simulate(oracle, steps=10, rng=rng)
        trajectory.states[5] = np.asarray(env.safe_box.high) * 3.0
        monkeypatch.setattr(repro.core.distance, "UNSAFE_PENALTY", 1234.0)
        penalised = trajectory_distance(env, trajectory, oracle, oracle)
        assert penalised <= -1234.0

    @pytest.mark.parametrize(
        "overrides",
        [{"num_trajectories": 0}, {"num_trajectories": -1}, {"trajectory_length": -1}],
    )
    def test_config_rejects_invalid_values(self, overrides):
        with pytest.raises(ValueError):
            DistanceConfig(**overrides)

    def test_config_accepts_boundary_values(self):
        assert DistanceConfig(num_trajectories=1, trajectory_length=0).trajectory_length == 0


# ---------------------------------------------------------------------- synthesis
class TestSynthesis:
    def test_warm_start_recovers_linear_oracle(self):
        env = make_satellite()
        teacher = make_lqr_policy(env)
        sketch = AffineSketch(state_dim=2, action_dim=1)
        warm = regression_warm_start(env, teacher, sketch, np.random.default_rng(0))
        np.testing.assert_allclose(warm, teacher.gain.ravel(), atol=0.05)

    def test_synthesized_program_tracks_oracle(self, satellite_oracle):
        env, oracle = satellite_oracle
        sketch = AffineSketch(
            state_dim=2, action_dim=1, action_low=env.action_low, action_high=env.action_high
        )
        result = ProgramSynthesizer(env, oracle, sketch, FAST_SYNTH).synthesize()
        rng = np.random.default_rng(0)
        states = env.init_region.sample(rng, 50)
        gaps = [abs(float(result.program.act(s)[0] - oracle(s)[0])) for s in states]
        scale = np.mean([abs(float(oracle(s)[0])) for s in states]) + 1e-6
        assert np.mean(gaps) / scale < 0.6
        assert result.iterations >= 1
        assert result.wall_clock_seconds > 0

    def test_initial_parameters_override(self, satellite_oracle):
        env, oracle = satellite_oracle
        sketch = AffineSketch(state_dim=2, action_dim=1)
        start = np.array([-1.0, -1.0])
        result = ProgramSynthesizer(env, oracle, sketch, FAST_SYNTH).synthesize(
            initial_parameters=start
        )
        assert result.parameters.shape == start.shape


# ------------------------------------------------------------------- verification
class TestVerification:
    def test_lyapunov_backend_on_linear_benchmark(self):
        env = make_satellite()
        program = AffineProgram(gain=make_lqr_policy(env).gain)
        outcome = verify_program(env, program, config=VerificationConfig(backend="lyapunov"))
        assert outcome.verified
        assert outcome.backend == "lyapunov"
        assert outcome.invariant.holds(np.zeros(2))

    def test_lyapunov_backend_rejects_nonlinear_env(self):
        env = make_environment("duffing")
        program = AffineProgram(gain=np.array([[-1.0, -1.0]]))
        outcome = verify_program(env, program, config=VerificationConfig(backend="lyapunov"))
        assert not outcome.verified

    def test_barrier_backend_on_linear_benchmark(self):
        env = make_satellite()
        program = AffineProgram(gain=make_lqr_policy(env).gain)
        outcome = verify_program(
            env, program, config=VerificationConfig(backend="barrier", invariant_degree=2)
        )
        assert outcome.verified
        assert outcome.backend == "barrier"

    def test_unstable_program_is_rejected(self):
        env = make_satellite()
        program = AffineProgram(gain=np.array([[5.0, 5.0]]))
        outcome = verify_program(env, program)
        assert not outcome.verified
        assert outcome.failure_reason

    def test_verified_invariant_respects_conditions_empirically(self):
        env = make_satellite()
        program = AffineProgram(gain=make_lqr_policy(env).gain)
        outcome = verify_program(env, program)
        invariant = outcome.invariant
        rng = np.random.default_rng(0)
        # Init condition.
        assert all(invariant.holds(s) for s in env.init_region.sample(rng, 50))
        # Unsafe condition.
        unsafe_samples = env.unsafe_region.sample(rng, 100)
        assert not any(invariant.holds(s) for s in unsafe_samples)
        # Induction along simulated trajectories.
        state = env.init_region.sample(rng, 1)[0]
        for _ in range(300):
            assert invariant.holds(state)
            state = env.step(state, program.act(state))

    def test_unknown_backend(self):
        env = make_satellite()
        program = AffineProgram(gain=np.array([[-1.0, -1.0]]))
        with pytest.raises(ValueError):
            verify_program(env, program, config=VerificationConfig(backend="nonsense"))


# ------------------------------------------------------------------------- CEGIS
class TestCEGIS:
    def test_cegis_covers_satellite(self, satellite_oracle):
        env, oracle = satellite_oracle
        result = CEGISLoop(env, oracle, config=FAST_CEGIS).run()
        assert result.covered
        assert result.program_size >= 1
        program = result.program
        # Theorem 4.2: every initial state lies in some branch invariant.
        rng = np.random.default_rng(0)
        for state in env.init_region.sample(rng, 50):
            assert result.invariant.holds(state)
            assert program.branch_index(state) >= 0

    def test_cegis_reports_failure_for_impossible_sketch(self, monkeypatch):
        # The quadcopter is open-loop unstable (no contraction without feedback),
        # so a synthesis run pinned at θ = 0 cannot produce a certifiable program.
        env = make_quadcopter()

        def hostile_oracle(state):
            return np.array([10.0])  # constant saturating action, not stabilising

        monkeypatch.setattr(repro.core.synthesis, "WARM_START_WITH_REGRESSION", False)
        config = CEGISConfig(
            synthesis=SynthesisConfig(
                iterations=2,
                learning_rate=0.0,
                distance=DistanceConfig(num_trajectories=1, trajectory_length=20),
            ),
            verification=VerificationConfig(backend="lyapunov"),
            max_counterexamples=2,
            max_shrink_iterations=2,
        )
        result = CEGISLoop(env, hostile_oracle, config=config).run()
        assert not result.covered


# ------------------------------------------------------------------------ shield
class TestShield:
    def test_shield_end_to_end_on_satellite(self, satellite_oracle):
        env, oracle = satellite_oracle
        result = synthesize_shield(env, oracle, config=FAST_CEGIS)
        protocol = EvaluationProtocol(episodes=5, steps=120, seed=1)
        comparison = compare_shielded(env, oracle, result.shield, protocol)
        assert comparison.shielded.failures == 0
        assert comparison.program.failures == 0
        assert result.program_size >= 1
        assert "def P(" in result.pretty_program()

    def test_shield_blocks_adversarial_policy(self, satellite_oracle):
        env, oracle = satellite_oracle
        result = synthesize_shield(env, oracle, config=FAST_CEGIS)

        def adversary(state):
            return np.asarray(env.action_high)  # always slam the actuator

        shield = Shield(env, adversary, result.program, result.invariant)
        metrics = evaluate_policy(env, shield, EvaluationProtocol(episodes=3, steps=150, seed=2), shield=shield)
        assert metrics.failures == 0
        assert metrics.interventions > 0

    def test_shield_statistics_and_reset(self, satellite_oracle):
        env, oracle = satellite_oracle
        result = synthesize_shield(env, oracle, config=FAST_CEGIS)
        shield = result.shield
        shield.reset_statistics()
        state = env.sample_initial_state(np.random.default_rng(0))
        shield.act(state)
        assert shield.statistics.decisions == 1
        shield.reset_statistics()
        assert shield.statistics.decisions == 0

    def test_raising_program_leaves_counters_consistent(self):
        """A program that fails while computing the fallback must not be counted
        as an intervention (or a decision): the counters stay consistent."""
        env = make_satellite()

        class ExplodingProgram:
            def act(self, state):
                raise RuntimeError("fallback controller crashed")

        from repro.lang import Invariant, InvariantUnion
        from repro.polynomials import Polynomial

        # An invariant so tight every proposed action triggers the override path.
        invariant = Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 1e-12)
        destabilising = AffineProgram(gain=[[5.0, 5.0]], names=env.state_names)
        shield = Shield(
            env=env,
            neural_policy=destabilising,
            program=ExplodingProgram(),
            invariant=InvariantUnion([invariant]),
        )
        with pytest.raises(RuntimeError, match="fallback controller crashed"):
            shield.act(np.array([0.4, 0.4]))
        assert shield.statistics.interventions == 0
        assert shield.statistics.decisions == 0

    def test_would_intervene_is_side_effect_free(self, satellite_oracle):
        env, oracle = satellite_oracle
        result = synthesize_shield(env, oracle, config=FAST_CEGIS)
        shield = result.shield
        before = shield.statistics.decisions
        shield.would_intervene(np.zeros(2))
        assert shield.statistics.decisions == before

"""The population objective of Algorithm 1 is bit-equal to the scalar reference.

``repro.core.distance.program_oracle_distance`` scores a list of programs as
one lockstep fleet; ``repro.reference.program_oracle_distance_scalar`` scores
them one program, one rollout and one state at a time.  The scores must be
identical to the last bit and the generator must end in the same state, so
that Algorithm 1 synthesizes the same programs either way.
"""

import numpy as np
import pytest

import repro.core.distance
import repro.core.synthesis
from repro.core import DistanceConfig, ProgramSynthesizer, SynthesisConfig, program_oracle_distance
from repro.core.distance import draw_rows
from repro.envs import make_environment
from repro.envs.registry import benchmark_names
from repro.lang import AffineSketch, PolynomialSketch
from repro.reference import program_oracle_distance_scalar
from repro.rl import MLP, NeuralPolicy

ALL_ENVS = benchmark_names()


def _mlp_oracle(env, seed=1):
    network = MLP(
        env.state_dim,
        (16, 8),
        env.action_dim,
        output_scale=np.full(env.action_dim, 2.0),
        seed=seed,
    )
    return NeuralPolicy(network)


def _callable_oracle(env):
    gain = np.random.default_rng(5).normal(scale=0.5, size=(env.action_dim, env.state_dim))
    return lambda state: np.tanh(gain @ state)


def _shrunk_region(env):
    return env.init_region.shrink_around(env.init_region.center, 0.3 * env.init_region.radius)


def _sketches(env):
    affine = dict(action_low=env.action_low, action_high=env.action_high)
    return [
        AffineSketch(env.state_dim, env.action_dim, include_bias=False, **affine),
        AffineSketch(env.state_dim, env.action_dim, include_bias=True, **affine),
        PolynomialSketch(env.state_dim, env.action_dim, degree=2 if env.state_dim <= 4 else 1),
    ]


def _assert_row_exact(env, programs, oracle, config, init_region=None, seed=7):
    fleet_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    rows = draw_rows(env, len(programs) * config.num_trajectories, fleet_rng, config, init_region)
    fleet = program_oracle_distance(env, programs, oracle, rows, config)
    scalar = program_oracle_distance_scalar(env, programs, oracle, scalar_rng, config, init_region)
    assert fleet.shape == (len(programs),)
    np.testing.assert_array_equal(fleet, scalar)
    assert fleet_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("name", ALL_ENVS)
def test_population_scores_equal_scalar_reference(name):
    env = make_environment(name)
    config = DistanceConfig(num_trajectories=2, trajectory_length=25)
    parameter_rng = np.random.default_rng(3)
    for region in (None, _shrunk_region(env)):
        for sketch in _sketches(env):
            programs = [
                sketch.instantiate(parameter_rng.normal(scale=0.5, size=sketch.num_parameters))
                for _ in range(4)
            ]
            _assert_row_exact(env, programs, _mlp_oracle(env), config, init_region=region)
    affine = _sketches(env)[0]
    programs = [affine.instantiate(parameter_rng.normal(size=affine.num_parameters)) for _ in range(3)]
    _assert_row_exact(env, programs, _callable_oracle(env), config)


def test_unsafe_rows_score_the_penalty_at_every_step(monkeypatch):
    env = make_environment("satellite")
    sketch = AffineSketch(2, 1)
    runaway = sketch.instantiate([50.0, 50.0])
    monkeypatch.setattr(repro.core.distance, "UNSAFE_PENALTY", 1234.0)
    config = DistanceConfig(num_trajectories=3, trajectory_length=40)
    rows = draw_rows(env, config.num_trajectories, np.random.default_rng(0), config)
    scores = program_oracle_distance(env, [runaway], _mlp_oracle(env), rows, config)
    assert scores[0] < -1234.0
    _assert_row_exact(env, [runaway], _mlp_oracle(env), config)


@pytest.mark.parametrize("name", ["satellite", "pendulum", "lane_keeping"])
def test_synthesizer_matches_scalar_objective(name, monkeypatch):
    env = make_environment(name)
    oracle = _mlp_oracle(env)
    sketch = AffineSketch(
        env.state_dim, env.action_dim, action_low=env.action_low, action_high=env.action_high
    )
    monkeypatch.setattr(repro.core.synthesis, "DIRECTIONS", 3)
    config = SynthesisConfig(
        iterations=4,
        distance=DistanceConfig(num_trajectories=2, trajectory_length=30),
        seed=11,
    )
    start = np.full(sketch.num_parameters, -0.5)
    cases = [
        dict(),
        dict(init_region=_shrunk_region(env)),
        dict(init_region=_shrunk_region(env), initial_parameters=start),
    ]

    def run_all():
        return [ProgramSynthesizer(env, oracle, sketch, config).synthesize(**case) for case in cases]

    fleet = run_all()

    def scalar_objective(env, programs, oracle, rows, config):
        return program_oracle_distance_scalar(env, programs, oracle, config=config, rows=rows)

    monkeypatch.setattr(repro.core.synthesis, "program_oracle_distance", scalar_objective)
    scalar = run_all()
    for fleet_result, scalar_result in zip(fleet, scalar):
        np.testing.assert_array_equal(fleet_result.parameters, scalar_result.parameters)
        assert fleet_result.objective_history == scalar_result.objective_history


def test_rows_must_match_the_programs():
    env = make_environment("satellite")
    config = DistanceConfig(num_trajectories=2, trajectory_length=5)
    program = AffineSketch(2, 1).instantiate([0.0, 0.0])
    rows = draw_rows(env, 3, np.random.default_rng(0), config)
    with pytest.raises(ValueError, match="3 rows cannot score 1 programs"):
        program_oracle_distance(env, [program], _mlp_oracle(env), rows, config)

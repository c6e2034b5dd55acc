"""Algorithm 1 scores one fleet per iteration, and still searches as the unfused loop.

``ProgramSynthesizer.synthesize`` scores θ's history rows in front of the next
iteration's perturbed programs.  ``repro.reference.UnfusedProgramSynthesizer``
scores them as two fleets, each drawing its own rows.  The two must agree on θ,
the objective history, the iteration count, the convergence flag and the
generator's final state, so the fusion changes no synthesized program.
"""

import numpy as np
import pytest

import repro.core.synthesis
from repro.core import DistanceConfig, ProgramSynthesizer, SynthesisConfig
from repro.envs import make_environment
from repro.lang import AffineSketch, PolynomialSketch
from repro.reference import UnfusedProgramSynthesizer
from repro.rl import MLP, NeuralPolicy

DISTANCE = DistanceConfig(num_trajectories=2, trajectory_length=30)


def _oracle(env):
    network = MLP(
        env.state_dim, (16, 8), env.action_dim, output_scale=np.full(env.action_dim, 2.0), seed=1
    )
    return NeuralPolicy(network)


def _affine(env):
    return AffineSketch(
        env.state_dim, env.action_dim, action_low=env.action_low, action_high=env.action_high
    )


def _polynomial(env):
    return PolynomialSketch(env.state_dim, env.action_dim, degree=2)


def _shrunk_region(env):
    return env.init_region.shrink_around(env.init_region.center, 0.3 * env.init_region.radius)


def _run(cls, env, sketch, config, **case):
    synthesizer = cls(env, _oracle(env), sketch, config)
    return synthesizer.synthesize(**case), synthesizer._rng.bit_generator.state


def _assert_same_search(env, sketch, config, **case):
    fused, fused_state = _run(ProgramSynthesizer, env, sketch, config, **case)
    unfused, unfused_state = _run(UnfusedProgramSynthesizer, env, sketch, config, **case)
    np.testing.assert_array_equal(fused.parameters, unfused.parameters)
    assert fused.objective_history == unfused.objective_history
    assert fused.iterations == unfused.iterations
    assert fused.converged == unfused.converged
    assert fused_state == unfused_state
    return fused


@pytest.mark.parametrize(
    "name, make_sketch",
    [
        ("satellite", _affine),
        ("pendulum", _affine),
        ("pendulum", _polynomial),
        ("lane_keeping", _affine),
    ],
)
@pytest.mark.parametrize("iterations", [0, 1, 4])
def test_fused_loop_matches_unfused_reference(name, make_sketch, iterations):
    env = make_environment(name)
    sketch = make_sketch(env)
    config = SynthesisConfig(iterations=iterations, distance=DISTANCE, seed=11)
    warm = np.full(sketch.num_parameters, -0.1)
    for case in (
        dict(),
        dict(init_region=_shrunk_region(env)),
        dict(init_region=_shrunk_region(env), initial_parameters=warm),
    ):
        result = _assert_same_search(env, sketch, config, **case)
        assert result.iterations == iterations


def test_converged_search_gives_back_the_dropped_candidates_draws(monkeypatch):
    # A loose tolerance makes the search converge at 2·CONVERGENCE_WINDOW
    # iterations, well before its budget: the fused loop has then drawn the
    # next fleet's candidates and must restore the generator.
    monkeypatch.setattr(repro.core.synthesis, "CONVERGENCE_TOLERANCE", 0.5)
    env = make_environment("pendulum")
    config = SynthesisConfig(iterations=40, distance=DISTANCE, seed=3)
    result = _assert_same_search(env, _affine(env), config)
    assert result.converged
    assert result.iterations == 2 * repro.core.synthesis.CONVERGENCE_WINDOW


@pytest.mark.parametrize("iterations", [0, 1, 2, 5])
def test_one_fleet_per_iteration_and_one_for_the_last_theta(monkeypatch, iterations):
    scored = repro.core.synthesis.program_oracle_distance
    calls = []

    def counting(env, programs, oracle, rows, config):
        calls.append((len(programs), len(rows)))
        return scored(env, programs, oracle, rows, config)

    monkeypatch.setattr(repro.core.synthesis, "program_oracle_distance", counting)
    env = make_environment("satellite")
    config = SynthesisConfig(iterations=iterations, distance=DISTANCE, seed=2)
    result = ProgramSynthesizer(env, _oracle(env), _affine(env), config).synthesize()
    assert not result.converged
    directions = repro.core.synthesis.DIRECTIONS
    repeats = DISTANCE.num_trajectories
    expected = (
        [2 * directions] + [1 + 2 * directions] * (iterations - 1) + [1] if iterations else []
    )
    assert [programs for programs, _ in calls] == expected
    assert [rows for _, rows in calls] == [programs * repeats for programs in expected]

"""Tests for the stability extension (repro.core.stability)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.synthesis
from repro import make_environment
from repro.baselines import make_lqr_policy
from repro.core import (
    StableSynthesisConfig,
    SynthesisConfig,
    synthesize_stable_program,
    verify_stability,
)
from repro.lang import AffineProgram, ExprProgram, parse_expression


@pytest.fixture(scope="module")
def satellite():
    return make_environment("satellite")


@pytest.fixture(scope="module")
def pendulum():
    return make_environment("pendulum")


class TestVerifyStability:
    def test_lqr_gain_is_stable_on_linear_benchmark(self, satellite):
        program = AffineProgram(gain=make_lqr_policy(satellite).gain, names=satellite.state_names)
        result = verify_stability(satellite, program)
        assert result.stable
        certificate = result.certificate
        assert certificate is not None
        assert certificate.spectral_radius < 1.0
        assert certificate.nonlinear_decrease_verified
        # The Lyapunov value decreases along a trajectory from a corner of S0.
        start = np.asarray(satellite.init_region.high, dtype=float)
        trajectory = satellite.simulate(program, steps=200, initial_state=start)
        values = [certificate.lyapunov_value(s) for s in trajectory.states]
        assert values[0] > 0.0
        assert values[-1] < values[0]
        assert "spectral radius" in certificate.describe()

    def test_zero_gain_is_unstable_when_plant_is_unstable(self, pendulum):
        # The uncontrolled inverted pendulum diverges from upright.
        program = AffineProgram(gain=[[0.0, 0.0]], names=pendulum.state_names)
        result = verify_stability(pendulum, program)
        assert not result.stable
        assert "not contracting" in result.failure_reason

    def test_stabilising_gain_on_pendulum(self, pendulum):
        program = AffineProgram(gain=[[-12.05, -5.87]], names=pendulum.state_names)
        result = verify_stability(pendulum, program)
        assert result.stable, result.failure_reason
        certificate = result.certificate
        assert certificate.region is not None  # nonlinear: region-local certificate
        # Lyapunov decrease observed along a rollout starting inside the region.
        trajectory = pendulum.simulate(program, steps=400, initial_state=np.array([0.2, 0.0]))
        values = [certificate.lyapunov_value(s) for s in trajectory.states]
        assert values[-1] < values[0] * 0.5

    def test_biased_program_is_rejected(self, satellite):
        program = AffineProgram(
            gain=make_lqr_policy(satellite).gain,
            bias=[0.5],
            names=satellite.state_names,
        )
        result = verify_stability(satellite, program)
        assert not result.stable
        assert "affine, bias-free" in result.failure_reason

    def test_non_affine_program_is_rejected(self, satellite):
        exprs = (parse_expression("x0^3", names=["x0", "x1"]),)
        program = ExprProgram(exprs=exprs, state_dim=2, names=("x0", "x1"))
        result = verify_stability(satellite, program)
        assert not result.stable

    def test_wall_clock_recorded(self, satellite):
        program = AffineProgram(gain=make_lqr_policy(satellite).gain)
        result = verify_stability(satellite, program)
        assert result.wall_clock_seconds >= 0.0


class TestSynthesizeStableProgram:
    @pytest.fixture(autouse=True)
    def _two_directions(self, monkeypatch):
        monkeypatch.setattr(repro.core.synthesis, "DIRECTIONS", 2)

    def _quick_config(self) -> StableSynthesisConfig:
        return StableSynthesisConfig(
            synthesis=SynthesisConfig(iterations=3),
            blend_steps=4,
        )

    def test_stable_program_from_lqr_oracle(self, satellite):
        oracle = make_lqr_policy(satellite)
        result = synthesize_stable_program(satellite, oracle, config=self._quick_config())
        assert result.certificate.spectral_radius < 1.0
        assert result.attempts >= 1
        # The synthesized program actually drives the system towards the origin.
        trajectory = satellite.simulate(
            result.program, steps=500, initial_state=satellite.init_region.center
        )
        assert np.linalg.norm(trajectory.states[-1]) < np.linalg.norm(trajectory.states[0]) + 1e-9

    def test_stable_program_on_pendulum_oracle(self, pendulum):
        oracle = AffineProgram(gain=[[-12.05, -5.87]], names=pendulum.state_names)
        result = synthesize_stable_program(pendulum, oracle, config=self._quick_config())
        assert result.certificate is not None
        trajectory = pendulum.simulate(
            result.program, steps=500, initial_state=np.array([0.2, 0.1])
        )
        assert np.abs(trajectory.states[-1]).max() < 0.1

    def test_destabilising_oracle_falls_back_to_lqr_blend(self, satellite):
        # An oracle that pushes the state away from the origin: the raw imitation
        # gain cannot be certified, so the synthesizer must blend towards LQR.
        destabilising = AffineProgram(
            gain=5.0 * np.ones((satellite.action_dim, satellite.state_dim))
        )
        result = synthesize_stable_program(satellite, destabilising, config=self._quick_config())
        assert result.blend_weight > 0.0
        assert result.used_lqr_blending
        assert result.certificate.spectral_radius < 1.0

    def test_rejects_non_affine_sketch(self, satellite):
        from repro.lang import PolynomialSketch

        oracle = make_lqr_policy(satellite)
        with pytest.raises(ValueError, match="affine sketch"):
            synthesize_stable_program(
                satellite, oracle, sketch=PolynomialSketch(state_dim=2, action_dim=1, degree=2),
                config=self._quick_config(),
            )

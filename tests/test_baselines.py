"""Tests for the LQR baseline (repro.baselines), the behaviour-cloning teacher."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_environment
from repro.baselines import linearize, lqr_gain, make_lqr_policy


@pytest.fixture(scope="module")
def pendulum():
    return make_environment("pendulum")


@pytest.fixture(scope="module")
def satellite():
    return make_environment("satellite")


# ------------------------------------------------------------------------------ LQR
class TestLQR:
    def test_lqr_stabilises_linear_benchmark(self, satellite):
        policy = make_lqr_policy(satellite)
        start = np.asarray(satellite.init_region.high)
        trajectory = satellite.simulate(policy, steps=400, initial_state=start)
        assert trajectory.unsafe_steps == 0
        assert np.linalg.norm(trajectory.states[-1]) < 0.5 * np.linalg.norm(start)

    def test_linearize_matches_exact_for_linear_env(self, satellite):
        a_exact, b_exact = satellite.linear_matrices()
        a_est, b_est = linearize(satellite)
        np.testing.assert_allclose(a_est, a_exact, atol=1e-9)
        np.testing.assert_allclose(b_est, b_exact, atol=1e-9)

    def test_linearize_nonlinear_pendulum(self, pendulum):
        a, b = linearize(pendulum)
        # d(omega_dot)/d(eta) = g/l at the origin; d(omega_dot)/d(a) = 1/(m l^2).
        assert a[1, 0] == pytest.approx(9.8 / pendulum.length, rel=1e-3)
        assert b[1, 0] == pytest.approx(1.0 / (pendulum.mass * pendulum.length**2), rel=1e-3)

    def test_lqr_gain_riccati_solution_is_positive_definite(self, satellite):
        a, b = satellite.linear_matrices()
        result = lqr_gain(a, b)
        eigenvalues = np.linalg.eigvalsh(result.riccati)
        assert np.all(eigenvalues > 0)

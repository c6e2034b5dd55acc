"""Property-based tests of the shield's behavioural guarantees (Algorithm 3).

These complement the unit tests in ``test_core.py`` with randomised checks of
the properties the shield construction is supposed to provide *by design*:

* the shield is transparent exactly when the neural proposal's predicted
  successor stays inside the invariant;
* when the shield intervenes it executes the verified program's action;
* the shield never emits an action outside the environment's actuator bounds
  when its constituent policies respect them;
* deploying the shield never increases the number of episodes that reach an
  unsafe state, relative to the bare network, when the program/invariant pair
  has been verified by the toolchain;
* the scalar shield (``act``/``would_intervene``) and the fleet shield
  (``decide_batch``) reach the same decision at the same state, even when the
  invariant's boundary runs exactly through the predicted successor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_environment, verify_program
from repro.baselines import make_lqr_policy
from repro.core import Shield
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial


@pytest.fixture(scope="module")
def satellite():
    return make_environment("satellite")


@pytest.fixture(scope="module")
def verified_pair(satellite):
    """A (program, invariant) pair actually verified by the toolchain."""
    program = AffineProgram(
        gain=make_lqr_policy(satellite).gain,
        action_low=satellite.action_low,
        action_high=satellite.action_high,
        names=satellite.state_names,
    )
    outcome = verify_program(satellite, program)
    assert outcome.verified, outcome.failure_reason
    guarded = GuardedProgram(branches=[(outcome.invariant, program)], names=satellite.state_names)
    return guarded, InvariantUnion([outcome.invariant])


def _make_shield(satellite, verified_pair, neural_gain) -> Shield:
    program, invariant = verified_pair
    neural = AffineProgram(
        gain=neural_gain,
        action_low=satellite.action_low,
        action_high=satellite.action_high,
    )
    return Shield(env=satellite, neural_policy=neural, program=program, invariant=invariant)


class TestShieldDecisionProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_transparent_iff_prediction_stays_inside(self, satellite, verified_pair, data):
        gain_entries = [
            data.draw(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
            for _ in range(satellite.state_dim * satellite.action_dim)
        ]
        neural_gain = np.asarray(gain_entries).reshape(satellite.action_dim, satellite.state_dim)
        shield = _make_shield(satellite, verified_pair, neural_gain)
        state = np.asarray(
            [
                data.draw(st.floats(min_value=float(l), max_value=float(h), allow_nan=False))
                for l, h in zip(satellite.safe_box.low, satellite.safe_box.high)
            ]
        )
        proposed = shield.neural_policy(state)
        predicted = satellite.predict(state, proposed)
        expected_transparent = shield.invariant.holds(predicted)
        action = shield.act(state)
        if expected_transparent:
            np.testing.assert_allclose(action, np.atleast_1d(proposed), atol=1e-12)
            assert shield.statistics.interventions == 0
        else:
            np.testing.assert_allclose(action, shield.program.act(state), atol=1e-12)
            assert shield.statistics.interventions == 1
        assert shield.would_intervene(state) == (not expected_transparent)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_actions_respect_actuator_bounds(self, satellite, verified_pair, data):
        neural_gain = np.asarray(
            [
                data.draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
                for _ in range(satellite.state_dim * satellite.action_dim)
            ]
        ).reshape(satellite.action_dim, satellite.state_dim)
        shield = _make_shield(satellite, verified_pair, neural_gain)
        state = np.asarray(
            [
                data.draw(st.floats(min_value=float(l), max_value=float(h), allow_nan=False))
                for l, h in zip(satellite.domain.low, satellite.domain.high)
            ]
        )
        action = shield.act(state)
        assert np.all(action >= satellite.action_low - 1e-9)
        assert np.all(action <= satellite.action_high + 1e-9)

    def test_statistics_accumulate_across_decisions(self, satellite, verified_pair):
        shield = _make_shield(satellite, verified_pair, np.zeros((1, satellite.state_dim)))
        rng = np.random.default_rng(0)
        for state in satellite.init_region.sample(rng, 25):
            shield.act(state)
        assert shield.statistics.decisions == 25
        shield.reset_statistics()
        assert shield.statistics.decisions == 0


class TestShieldEpisodeProperties:
    @pytest.mark.parametrize("neural_scale", [0.0, 1.0, 5.0])
    def test_shielded_failures_never_exceed_bare_failures(
        self, satellite, verified_pair, neural_scale
    ):
        """A verified shield can only remove failures, never add them."""
        rng = np.random.default_rng(1)
        neural_gain = neural_scale * np.ones((satellite.action_dim, satellite.state_dim))
        shield = _make_shield(satellite, verified_pair, neural_gain)
        neural = shield.neural_policy

        bare_failures = 0
        shielded_failures = 0
        for episode in range(10):
            start = satellite.sample_initial_state(rng)
            bare = satellite.simulate(neural, steps=150, initial_state=start)
            shielded = satellite.simulate(shield, steps=150, initial_state=start)
            bare_failures += int(bare.became_unsafe)
            shielded_failures += int(shielded.became_unsafe)
        assert shielded_failures <= bare_failures
        assert shielded_failures == 0

    def test_shield_keeps_destabilising_network_safe(self, satellite, verified_pair):
        shield = _make_shield(
            satellite, verified_pair, 5.0 * np.ones((satellite.action_dim, satellite.state_dim))
        )
        rng = np.random.default_rng(2)
        trajectory = satellite.simulate(
            shield, steps=300, initial_state=satellite.init_region.sample(rng, 1)[0]
        )
        assert trajectory.unsafe_steps == 0


# States and actions at which a one-ulp gap between the single-state and the
# fleet prediction used to flip the shield's decision.
_BOUNDARY_CASES = {
    "pendulum": ([0.3194840970740013, 0.026536552410842684], [-9.789819924389384]),
    # The first such duffing state drawn from init_region with seed 3.
    "duffing": ([2.0537511402244117, -0.004746198627944231], [-18.972193345162538]),
}


class TestScalarFleetAgreement:
    @pytest.mark.parametrize("name", sorted(_BOUNDARY_CASES))
    def test_scalar_and_fleet_shields_agree_on_the_boundary(self, name):
        env = make_environment(name)
        state, action = (np.asarray(v) for v in _BOUNDARY_CASES[name])
        scalar = env.predict(state, action)
        fleet = env.predict_batch(state[None], action[None])[0]
        np.testing.assert_array_equal(scalar, fleet)
        program = AffineProgram(gain=np.zeros((env.action_dim, env.state_dim)))
        for k in range(env.state_dim):
            # The barrier x_k - c passes through the predicted successor.
            barrier = Polynomial.variable(k, env.state_dim) - min(scalar[k], fleet[k])
            invariant = Invariant(barrier=barrier, names=env.state_names)
            shield = Shield(
                env=env,
                neural_policy=lambda s: action,
                program=GuardedProgram(branches=[(invariant, program)]),
                invariant=InvariantUnion([invariant]),
            )
            assert shield.would_intervene(state) == shield.decide_batch(state[None])[1][0]

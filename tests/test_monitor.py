"""Tests for the runtime monitor (repro.runtime.monitor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_environment
from repro.core import Shield
from repro.envs import BoundedUniformDisturbance, simulate_with_disturbance
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.reference import monitor_episode
from repro.runtime import RuntimeMonitor


def _pendulum_shield(neural_gain, invariant_level=0.25):
    """A hand-built shield for the pendulum: program + circular invariant."""
    env = make_environment("pendulum")
    program = AffineProgram(gain=[[-12.05, -5.87]], names=env.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(2)) - invariant_level,
        names=env.state_names,
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=env.state_names)
    neural = AffineProgram(gain=neural_gain, names=env.state_names)
    shield = Shield(
        env=env,
        neural_policy=neural,
        program=guarded,
        invariant=InvariantUnion([invariant]),
    )
    return env, shield


class TestRuntimeMonitor:
    def test_records_every_decision(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        monitor = RuntimeMonitor(shield)
        state = np.array([0.1, 0.0])
        for _ in range(10):
            action = monitor.act(state)
            state = env.step(state, action)
            monitor.observe_transition(state)
        report = monitor.report()
        assert report.decisions == 10
        assert shield.statistics.decisions == 10
        assert report.interventions == 0
        assert report.invariant_excursions == 0

    def test_intervention_detected_for_destabilising_network(self):
        # A neural policy that accelerates the fall: the shield must intervene.
        env, shield = _pendulum_shield(neural_gain=[[30.0, 10.0]], invariant_level=0.05)
        monitor = RuntimeMonitor(shield)
        state = np.array([0.2, 0.1])
        for _ in range(30):
            action = monitor.act(state)
            state = env.step(state, action)
            monitor.observe_transition(state)
        report = monitor.report()
        assert report.interventions > 0
        assert report.intervention_rate > 0.0
        assert report.intervention_states().shape[1] == 2
        # Without disturbances the model prediction is exact, so even when the
        # hand-made invariant is left, the monitor never reports a *mismatch*
        # between the predicted and the observed successor.
        assert report.model_mismatches == 0

    def test_observe_before_act_raises(self):
        _, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        monitor = RuntimeMonitor(shield)
        with pytest.raises(RuntimeError, match="before any decision"):
            monitor.observe_transition(np.zeros(2))

    def test_reset_clears_state(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        monitor = RuntimeMonitor(shield)
        state = np.array([0.05, 0.0])
        action = monitor.act(state)
        monitor.observe_transition(env.step(state, action))
        monitor.reset()
        assert monitor.report().decisions == 0

    def test_summary_fields(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        report = monitor_episode(shield, steps=20, rng=np.random.default_rng(0))
        summary = report.summary()
        assert set(summary) >= {
            "decisions",
            "interventions",
            "intervention_rate",
            "model_mismatches",
            "invariant_excursions",
            "mean_decision_seconds",
        }
        assert summary["decisions"] == 20

    def test_empty_report(self):
        _, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        report = RuntimeMonitor(shield).report()
        assert report.decisions == 0
        assert report.intervention_rate == 0.0
        assert report.mean_decision_seconds == 0.0


class TestMismatchAttribution:
    """Regression tests: mismatch is judged on the *executed* action's prediction."""

    def test_model_mismatch_fires_on_intervened_steps(self):
        # The neural action's predicted successor leaves phi (so the shield
        # intervenes), the program's predicted successor stays inside, and the
        # deliberately wrong reality below leaves phi anyway: the monitor must
        # report a model mismatch for the executed (program) action.
        env, shield = _pendulum_shield(neural_gain=[[30.0, 10.0]], invariant_level=0.05)
        monitor = RuntimeMonitor(shield)
        state = np.array([0.2, 0.05])
        monitor.act(state)
        record = monitor.records[-1]
        assert record.intervened
        assert record.predicted_next_in_invariant  # the executed action's verdict
        monitor.observe_transition(np.array([2.0, 2.0]))  # unmodelled reality
        report = monitor.report()
        assert report.model_mismatches == 1
        assert report.invariant_excursions == 1

    def test_intervened_record_reports_program_prediction_verdict(self):
        # Same setup, but reality follows the program's prediction: in phi, no
        # mismatch, no excursion.
        env, shield = _pendulum_shield(neural_gain=[[30.0, 10.0]], invariant_level=0.05)
        monitor = RuntimeMonitor(shield)
        state = np.array([0.2, 0.05])
        action = monitor.act(state)
        monitor.observe_transition(env.predict(state, action))
        report = monitor.report()
        assert report.interventions == 1
        assert report.model_mismatches == 0
        assert report.invariant_excursions == 0

    def test_non_intervened_path_predicts_once(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        calls = {"count": 0}
        original = env.predict

        def counting_predict(state, action):
            calls["count"] += 1
            return original(state, action)

        env.predict = counting_predict
        monitor = RuntimeMonitor(shield)
        monitor.act(np.array([0.1, 0.0]))
        assert not monitor.records[-1].intervened
        assert calls["count"] == 1

    def test_monitor_accumulates_shield_timers(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        monitor = RuntimeMonitor(shield)
        state = np.array([0.1, 0.0])
        for _ in range(5):
            action = monitor.act(state)
            state = env.step(state, action)
            monitor.observe_transition(state)
        assert shield.statistics.neural_seconds > 0.0
        assert shield.statistics.shield_seconds > 0.0
        assert shield.statistics.overhead > 0.0

    def test_monitor_respects_measure_time_flag(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        shield.measure_time = False
        monitor = RuntimeMonitor(shield)
        monitor.act(np.array([0.1, 0.0]))
        assert shield.statistics.neural_seconds == 0.0
        assert shield.statistics.shield_seconds == 0.0


class TestDisturbanceFeedback:
    def test_estimates_disturbance_from_observed_transitions(self):
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        monitor = RuntimeMonitor(shield, estimate_disturbance=True)
        model = BoundedUniformDisturbance(magnitude=[0.3, 0.3])
        rng = np.random.default_rng(1)
        state = np.array([0.05, 0.0])
        for step in range(200):
            action = monitor.act(state)
            rate = env.rate_numeric(state, action) + model.sample(rng, step)
            state = state + env.dt * rate
            monitor.observe_transition(state)
        report = monitor.report()
        assert report.disturbance_estimate is not None
        # The 3-sigma estimate should be of the same order as the injected bound.
        assert np.all(report.disturbance_estimate.bound <= 0.6)
        assert np.all(report.disturbance_estimate.bound >= 0.05)

    def test_no_estimate_without_feedback(self):
        _, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]])
        monitor = RuntimeMonitor(shield, estimate_disturbance=False)
        state = np.array([0.05, 0.0])
        monitor.act(state)
        monitor.observe_transition(state)
        assert monitor.report().disturbance_estimate is None

    def test_model_mismatch_detected_under_large_disturbance(self):
        # Inject a disturbance far larger than anything the invariant was built
        # for: the monitor should flag excursions / mismatches rather than hide them.
        env, shield = _pendulum_shield(neural_gain=[[-12.0, -6.0]], invariant_level=0.02)
        monitor = RuntimeMonitor(shield)
        rng = np.random.default_rng(2)
        state = np.array([0.1, 0.05])
        kick = np.array([0.0, 60.0])  # persistent unmodelled torque disturbance
        for _ in range(50):
            action = monitor.act(state)
            rate = env.rate_numeric(state, action) + kick
            state = state + env.dt * rate
            monitor.observe_transition(state)
        report = monitor.report()
        assert report.invariant_excursions > 0

"""Property tests: batched fleet monitoring ≡ the scalar monitor, plus the
adaptive maintenance loop end to end.

The batched monitor (``repro.runtime.monitored``) must reproduce the scalar
:func:`monitor_episode` bookkeeping exactly: same per-episode intervention,
model-mismatch, and invariant-excursion counts under the same seed for
disturbance-free environments, and the same counts *and* disturbance estimate
for single-episode disturbed deployments (where the generator streams
coincide).  The adaptation tests pin the paper's Section 3 loop: a widened
runtime disturbance estimate invalidates a weak deployed certificate, which
triggers store-backed re-synthesis with provenance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.core import (
    CEGISConfig,
    DistanceConfig,
    Shield,
    SynthesisConfig,
    VerificationConfig,
)
from repro.envs import (
    BoundedUniformDisturbance,
    SinusoidalDisturbance,
    TruncatedGaussianDisturbance,
    make_environment,
)
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.reference import monitor_episode
from repro.rl.policies import LinearPolicy
from repro.runtime import (
    MonitoredBatchedCampaign,
    adapt_shield,
    monitor_fleet,
    recheck_certificate,
)
from repro.runtime.adaptation import widened_environment
from repro.store import ShieldStore, SynthesisService

#: Environments the equivalence property is pinned on: five LTI plants plus a
#: nonlinear one — all disturbance-free (no built-in draws), which is what makes
#: the scalar and batched generator streams coincide bit for bit.
EQUIVALENCE_ENVS = (
    "satellite",
    "dcmotor",
    "tape",
    "suspension",
    "magnetic_pointer",
    "pendulum",
)


def _make_shield(env, neural_scale=2.0, invariant_level=0.25):
    """A hand-built monitored deployment: LQR program, ellipsoidal invariant,
    mildly destabilising linear 'network' so the shield actually intervenes."""
    program = AffineProgram(gain=make_lqr_policy(env).gain, names=env.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(env.state_dim)) - invariant_level,
        names=env.state_names,
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=env.state_names)
    neural = LinearPolicy(gain=neural_scale * np.ones((env.action_dim, env.state_dim)))
    return Shield(
        env=env,
        neural_policy=neural,
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=False,
    )


def _scalar_reports(name, episodes, steps, seed, disturbance=None):
    """The sequential reference: same initial-state stream as the fleet."""
    env = make_environment(name)
    shield = _make_shield(env)
    inits = env.sample_initial_states(np.random.default_rng(seed), episodes)
    return [
        monitor_episode(
            shield,
            steps=steps,
            rng=np.random.default_rng(seed),
            initial_state=s0,
            disturbance=disturbance,
        )
        for s0 in inits
    ]


class TestFleetScalarEquivalence:
    @pytest.mark.parametrize("name", EQUIVALENCE_ENVS)
    def test_fleet_counts_match_scalar_monitor(self, name):
        """Disturbance-free: per-episode counters are bit-for-bit identical."""
        episodes, steps, seed = 5, 100, 3
        scalars = _scalar_reports(name, episodes, steps, seed)
        env = make_environment(name)
        fleet = monitor_fleet(
            _make_shield(env), episodes=episodes, steps=steps, rng=np.random.default_rng(seed)
        )
        assert list(fleet.interventions) == [r.interventions for r in scalars]
        assert list(fleet.model_mismatches) == [r.model_mismatches for r in scalars]
        assert list(fleet.invariant_excursions) == [r.invariant_excursions for r in scalars]
        assert fleet.decisions == sum(r.decisions for r in scalars)

    @pytest.mark.parametrize("name", ("satellite", "pendulum"))
    def test_fleet_barrier_peaks_match_scalar_records(self, name):
        episodes, steps, seed = 4, 80, 1
        scalars = _scalar_reports(name, episodes, steps, seed)
        env = make_environment(name)
        fleet = monitor_fleet(
            _make_shield(env), episodes=episodes, steps=steps, rng=np.random.default_rng(seed)
        )
        expected = [max(rec.barrier_value for rec in r.records) for r in scalars]
        np.testing.assert_allclose(fleet.peak_barrier_values, expected, rtol=1e-10)

    @pytest.mark.parametrize(
        "disturbance_factory",
        [
            lambda dim: BoundedUniformDisturbance(magnitude=np.full(dim, 0.15)),
            lambda dim: TruncatedGaussianDisturbance(
                mean=np.zeros(dim), std=np.full(dim, 0.05)
            ),
            lambda dim: SinusoidalDisturbance(amplitude=np.full(dim, 0.2), period=40.0),
        ],
        ids=["uniform", "gaussian", "sinusoidal"],
    )
    @pytest.mark.parametrize("name", ("satellite", "pendulum"))
    def test_single_episode_disturbed_matches_scalar(self, name, disturbance_factory):
        """episodes=1: the per-step draw streams coincide, so the trajectories
        agree to floating-point noise and the fitted estimates to high precision.

        Counts are allowed a tiny slack: batched linear algebra (``s @ A.T``)
        and scalar (``A @ s``) can differ in the last ulp, which may flip a
        verdict on a step that grazes the invariant boundary exactly.
        """
        env = make_environment(name)
        steps, seed = 120, 7
        initial = env.sample_initial_states(np.random.default_rng(99), 1)
        scalar = monitor_episode(
            _make_shield(make_environment(name)),
            steps=steps,
            rng=np.random.default_rng(seed),
            initial_state=initial[0],
            disturbance=disturbance_factory(env.state_dim),
        )
        fleet = monitor_fleet(
            _make_shield(env),
            episodes=1,
            steps=steps,
            rng=np.random.default_rng(seed),
            disturbance=disturbance_factory(env.state_dim),
            initial_states=initial,
        )
        assert abs(int(fleet.interventions[0]) - scalar.interventions) <= 2
        assert abs(int(fleet.model_mismatches[0]) - scalar.model_mismatches) <= 2
        assert abs(int(fleet.invariant_excursions[0]) - scalar.invariant_excursions) <= 2
        assert (fleet.disturbance_estimate is None) == (scalar.disturbance_estimate is None)
        if fleet.disturbance_estimate is not None:
            np.testing.assert_allclose(
                fleet.disturbance_estimate.mean, scalar.disturbance_estimate.mean,
                rtol=1e-6, atol=1e-9,
            )
            np.testing.assert_allclose(
                fleet.disturbance_estimate.bound, scalar.disturbance_estimate.bound,
                rtol=1e-6, atol=1e-9,
            )

    def test_mismatch_detected_fleet_wide_under_unmodelled_disturbance(self):
        """A large unmodelled kick produces excursions the model did not predict."""
        env = make_environment("pendulum")
        shield = _make_shield(env, neural_scale=-0.5, invariant_level=0.02)
        fleet = monitor_fleet(
            shield,
            episodes=8,
            steps=60,
            rng=np.random.default_rng(0),
            disturbance=BoundedUniformDisturbance(magnitude=[0.0, 60.0]),
        )
        assert fleet.total_invariant_excursions > 0
        assert fleet.total_model_mismatches > 0
        assert fleet.disturbance_estimate is not None
        assert fleet.disturbance_estimate.bound[1] > 1.0

    def test_sinusoidal_fleet_per_episode_phases(self):
        env = make_environment("satellite")
        rng = np.random.default_rng(5)
        model = SinusoidalDisturbance.fleet(
            amplitude=np.full(env.state_dim, 0.1), episodes=6, rng=rng, period_spread=0.2
        )
        fleet = monitor_fleet(
            _make_shield(env), episodes=6, steps=50, rng=rng, disturbance=model
        )
        assert fleet.episodes == 6
        assert np.isfinite(fleet.final_states).all()
        # Different phases => the episodes do not all see identical residuals.
        assert fleet.disturbance_estimate is not None

    def test_dimension_and_shape_validation(self):
        env = make_environment("satellite")
        shield = _make_shield(env)
        with pytest.raises(ValueError, match="disturbance dimension"):
            MonitoredBatchedCampaign(
                shield=shield, steps=10, disturbance=BoundedUniformDisturbance(magnitude=[0.1])
            )
        campaign = MonitoredBatchedCampaign(shield=shield, steps=10)
        with pytest.raises(ValueError, match="initial states"):
            campaign.run(3, np.random.default_rng(0), initial_states=np.zeros((2, 2)))

    def test_shield_statistics_accumulate_through_fleet(self):
        env = make_environment("satellite")
        shield = _make_shield(env)
        monitor_fleet(shield, episodes=4, steps=25, rng=np.random.default_rng(0))
        assert shield.statistics.decisions == 100

    def test_decide_batch_predicted_matches_decide_batch(self):
        """The 3-tuple variant returns the same decisions plus the executed
        actions' predicted successors (no full-batch re-prediction needed)."""
        env = make_environment("satellite")
        shield_a = _make_shield(env)
        shield_b = _make_shield(env)
        states = env.safe_box.sample(np.random.default_rng(2), 32)
        actions_a, intervened_a = shield_a.decide_batch(states)
        actions_b, intervened_b, predicted = shield_b.decide_batch_predicted(states)
        np.testing.assert_array_equal(actions_a, actions_b)
        np.testing.assert_array_equal(intervened_a, intervened_b)
        assert intervened_b.any() and not intervened_b.all()
        np.testing.assert_allclose(
            predicted, env.predict_batch(states, actions_b), rtol=1e-12, atol=1e-12
        )
        assert shield_b.statistics.decisions == 32
        assert shield_b.statistics.interventions == shield_a.statistics.interventions


# ---------------------------------------------------------------- adaptation
def _weak_deployment(env):
    """A deployed shield whose program is certifiable without disturbance but
    loses its certificate once the bound widens (slow contraction)."""
    weak = AffineProgram(gain=[[-0.5, -0.3]], names=env.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(2)) - 0.6, names=env.state_names
    )
    guarded = GuardedProgram(branches=[(invariant, weak)], names=env.state_names)
    oracle = LinearPolicy(gain=np.array([[-3.0, -2.5]]))
    shield = Shield(
        env=env,
        neural_policy=oracle,
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=False,
    )
    return shield, oracle


FAST_CEGIS = CEGISConfig(
    synthesis=SynthesisConfig(
        iterations=6, distance=DistanceConfig(num_trajectories=2, trajectory_length=60), seed=0
    ),
    verification=VerificationConfig(backend="lyapunov"),
    max_counterexamples=4,
)


class TestAdaptationLoop:
    def test_recheck_valid_without_disturbance(self):
        env = make_environment("satellite")
        shield, _ = _weak_deployment(env)
        ok, outcomes = recheck_certificate(env, shield)
        assert ok and all(o.verified for o in outcomes)

    def test_recheck_verdicts_are_disturbance_aware(self):
        """Every kernel verdict on a disturbed environment must model the
        bound: every backend is disturbance-aware, so there is no pinning
        and no blindness flag to propagate."""
        env = make_environment("satellite")
        shield, _ = _weak_deployment(env)
        widened = widened_environment(env, np.full(2, 0.02))
        ok, outcomes = recheck_certificate(widened, shield)
        assert outcomes
        assert all(outcome.disturbance_aware for outcome in outcomes)
        # Provenance names only disturbance-aware backends.
        assert all(
            outcome.backend in ("lyapunov", "sos", "barrier") for outcome in outcomes
        )

    def test_adaptation_outcome_reports_backend_provenance(self, tmp_path):
        env = make_environment("satellite")
        shield, oracle = _weak_deployment(env)
        outcome = adapt_shield(
            shield,
            episodes=10,
            steps=100,
            rng=np.random.default_rng(0),
            disturbance=BoundedUniformDisturbance(magnitude=[0.01, 0.01]),
            oracle=oracle,
        )
        assert outcome.certificate_valid
        assert outcome.recheck_backends
        assert outcome.summary()["recheck_backends"] == ",".join(outcome.recheck_backends)
        assert all(v.disturbance_aware for v in outcome.verifications)

    def test_recheck_widened_bound_asks_the_kernel(self):
        """Under a bound that breaks the Lyapunov contraction the kernel keeps
        dispatching disturbance-aware backends; whatever the verdict, it is
        never a disturbance-blind SAFE."""
        env = make_environment("satellite")
        shield, _ = _weak_deployment(env)
        widened = widened_environment(env, np.full(2, 0.15))
        ok, outcomes = recheck_certificate(widened, shield)
        assert not ok
        assert outcomes[0].attempts  # dispatch provenance present
        assert outcomes[0].disturbance_aware

    def test_certificate_valid_skips_resynthesis(self, tmp_path):
        env = make_environment("satellite")
        shield, oracle = _weak_deployment(env)
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        outcome = adapt_shield(
            shield,
            episodes=10,
            steps=100,
            rng=np.random.default_rng(0),
            disturbance=BoundedUniformDisturbance(magnitude=[0.01, 0.01]),
            oracle=oracle,
            service=service,
            config=FAST_CEGIS,
            environment="satellite",
        )
        assert outcome.certificate_valid
        assert not outcome.resynthesized
        assert len(service.store) == 0

    def test_widened_estimate_triggers_resynthesis_and_persists(self, tmp_path):
        """The acceptance scenario: a runtime estimate the deployed certificate
        cannot absorb forces store-backed re-synthesis with provenance."""
        env = make_environment("satellite")
        shield, oracle = _weak_deployment(env)
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        outcome = adapt_shield(
            shield,
            episodes=20,
            steps=150,
            rng=np.random.default_rng(0),
            disturbance=BoundedUniformDisturbance(magnitude=[0.08, 0.08]),
            oracle=oracle,
            service=service,
            config=FAST_CEGIS,
            environment="satellite",
            prior_key="deadbeef",
        )
        assert outcome.estimate is not None
        assert np.all(outcome.widened_bound >= 0.1)  # the 3-sigma widened bound
        assert not outcome.certificate_valid
        assert outcome.resynthesized
        assert outcome.repaired_shield is not None
        assert outcome.store_key

        # The repaired shield is persisted with provenance linking it to the
        # estimate that forced it, and its environment is reconstructible.
        artifact = service.store.get(outcome.store_key)
        assert artifact.metadata["adaptation"] == "runtime-disturbance-estimate"
        assert artifact.metadata["adapted_from"] == "deadbeef"
        assert artifact.metadata["estimate_samples"] == outcome.estimate.samples
        assert artifact.environment == "satellite"
        np.testing.assert_allclose(
            artifact.environment_overrides["disturbance_bound"], outcome.widened_bound
        )
        rebuilt_env = make_environment(
            artifact.environment, **artifact.environment_overrides
        )
        np.testing.assert_allclose(rebuilt_env.disturbance_bound, outcome.widened_bound)

        # The repaired program really is certified under the widened bound.
        repaired_ok, _ = recheck_certificate(
            widened_environment(env, outcome.widened_bound), outcome.repaired_shield
        )
        assert repaired_ok

    def test_monitoring_only_mode_stops_after_recheck(self):
        env = make_environment("satellite")
        shield, oracle = _weak_deployment(env)
        outcome = adapt_shield(
            shield,
            episodes=10,
            steps=100,
            rng=np.random.default_rng(0),
            disturbance=BoundedUniformDisturbance(magnitude=[0.08, 0.08]),
            oracle=oracle,
            service=None,
        )
        assert not outcome.certificate_valid
        assert not outcome.resynthesized
        assert outcome.repaired_shield is None

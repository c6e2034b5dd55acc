"""The verification kernel: backend registry dispatch, the fixed auto
sequence, the disturbance-aware barrier encoding, and the store-backed
verdict cache (hit accounting + bit-identical cache-on/off behaviour)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.baselines import make_lqr_policy
from repro.certificates import (
    BarrierCertificateSynthesizer,
    Box,
    BranchAndBoundVerifier,
    SafetyProblem,
    available_backends,
    backend_names,
)
from repro.core import (
    CEGISConfig,
    CEGISLoop,
    DistanceConfig,
    SynthesisConfig,
    VerificationConfig,
    verify_program,
)
from repro.envs import make_environment
from repro.lang import AffineProgram, InvariantSketch
from repro.store import ShieldStore, SynthesisService, VerdictCache, environment_fingerprint

DUFFING_BOX = Box([-0.5, -0.5], [0.5, 0.5])


def _satellite():
    env = make_environment("satellite")
    return env, AffineProgram(gain=make_lqr_policy(env).gain)


# ------------------------------------------------------------------- registry
class TestBackendRegistry:
    def test_registry_exposes_all_four_backends(self):
        # Fixed order: the fuzz backends family takes the first three.
        assert backend_names() == ["lyapunov", "sos", "barrier", "farkas"]
        assert [backend.name for backend in available_backends()] == backend_names()

    def test_config_accepts_every_registered_name(self):
        env, program = _satellite()
        for name in backend_names():
            outcome = verify_program(
                env, program, config=VerificationConfig(backend=name)
            )
            assert outcome.backend == name
            assert outcome.verified, (name, outcome.failure_reason)
            assert outcome.attempts == (name,)

    def test_auto_stops_at_the_first_proof(self):
        env, program = _satellite()
        outcome = verify_program(env, program)
        assert outcome.verified
        assert outcome.attempts == ("lyapunov",)  # provenance of the dispatch
        assert outcome.backend == outcome.attempts[-1]

    def test_unknown_backend_raises_with_available_list(self):
        env, program = _satellite()
        with pytest.raises(ValueError, match="farkas"):
            verify_program(env, program, config=VerificationConfig(backend="nonsense"))
        with pytest.raises(ValueError, match="sos"):
            verify_program(env, program, config=VerificationConfig(backend="nonsense"))

    def test_named_backend_runs_alone(self):
        env, program = _satellite()
        outcome = verify_program(
            env, program, config=VerificationConfig(backend="barrier")
        )
        assert outcome.attempts == ("barrier",)
        assert outcome.verified

    def test_named_backend_runs_even_without_support(self):
        # A named backend always runs, even when it cannot structurally
        # support the query — it reports its own reason instead of being
        # skipped the way the auto sequence skips it.
        env = make_environment("duffing")
        program = AffineProgram(gain=np.array([[-1.0, -1.5]]))
        outcome = verify_program(
            env, program, init_box=DUFFING_BOX,
            config=VerificationConfig(backend="lyapunov"),
        )
        assert outcome.attempts == ("lyapunov",)
        assert not outcome.verified
        assert "linear" in outcome.failure_reason


# ------------------------------------------------------------- auto sequence
class TestAutoSequence:
    def test_nonlinear_env_skips_linear_only_backends(self):
        env = make_environment("duffing")
        program = AffineProgram(gain=np.array([[-1.0, -1.5]]))
        outcome = verify_program(env, program, init_box=DUFFING_BOX)
        assert outcome.verified
        assert outcome.attempts == ("barrier",)
        assert outcome.backend == "barrier"

    def test_failed_lyapunov_falls_through_to_barrier(self):
        # A destabilising program fails lyapunov; auto then runs barrier, and
        # never sos (the same quadratic search) or farkas.
        env = make_environment("satellite")
        bad = AffineProgram(gain=np.array([[5.0, 5.0]]))
        outcome = verify_program(env, bad)
        assert not outcome.verified
        assert outcome.attempts == ("lyapunov", "barrier")

    def test_no_eligible_backend_reports_structured_failure(self):
        class OpaquePolicy:  # no to_polynomials, no gain: nothing supports it
            def act(self, state):
                return np.zeros(1)

        env = make_environment("duffing")
        outcome = verify_program(env, OpaquePolicy())
        assert not outcome.verified
        assert outcome.backend == "none"
        assert "no backend supports this query" in outcome.failure_reason


# ----------------------------------------------------------------------- config
class TestVerificationConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("backend_time_budget_seconds", 0.0),
            ("backend_time_budget_seconds", -1.0),
            ("verifier_max_boxes", 0),
        ],
    )
    def test_rejects_invalid_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            VerificationConfig(**{field: value})

    def test_accepts_boundary_values(self):
        config = VerificationConfig(backend_time_budget_seconds=1e-3, verifier_max_boxes=1)
        assert config.verifier_max_boxes == 1

    def test_barrier_leaf_width_is_a_two_hundredth_of_the_widest_side(self, monkeypatch):
        """The branch-and-bound verifier of the barrier backend stops splitting
        boxes narrower than 1/200 of the domain's widest side."""
        import repro.certificates.conditions as conditions_module

        built = []
        real = conditions_module.BranchAndBoundVerifier

        def recording(**kwargs):
            built.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(conditions_module, "BranchAndBoundVerifier", recording)
        env = make_environment("duffing")
        program = AffineProgram(gain=np.array([[-1.0, -1.5]]))
        verify_program(
            env, program, init_box=DUFFING_BOX, config=VerificationConfig(backend="barrier")
        )
        assert built
        assert built[0]["min_width"] == float(np.max(env.domain.widths)) / 200.0
        assert built[0]["tolerance"] == conditions_module.VERIFIER_TOLERANCE
        assert built[0]["max_boxes"] == VerificationConfig().verifier_max_boxes


# ------------------------------------------- disturbance-aware barrier verdicts
class TestDisturbanceAwareBarrier:
    def test_disturbed_nonlinear_registry_env_gets_aware_verdict(self):
        """Acceptance: barrier verification of a disturbed nonlinear registry
        environment returns a disturbance-aware verdict — no pinning, no flag."""
        env = make_environment("duffing", disturbance_bound=[0.05, 0.05])
        program = AffineProgram(gain=np.array([[-1.0, -1.5]]))
        outcome = verify_program(env, program, init_box=DUFFING_BOX)
        assert outcome.verified
        assert outcome.backend == "barrier"
        assert outcome.disturbance_aware

    def test_blind_lp_accepts_unsound_candidate_new_encoding_rejects(self):
        """Regression for the disturbance-blind barrier LP: the old encoding
        (no disturbance term) accepts a certificate that the disturbance-aware
        sound check refutes with a concrete condition-(10) witness."""
        env = make_environment("satellite")
        program = AffineProgram(gain=make_lqr_policy(env).gain)
        closed = env.closed_loop_polynomials(program)
        sketch = InvariantSketch(state_dim=2, degree=2, names=env.state_names)
        verifier = BranchAndBoundVerifier(
            tolerance=1e-6,
            max_boxes=120_000,
            min_width=float(np.max(env.domain.widths)) / 200.0,
        )
        common = dict(
            closed_loop=closed,
            init_box=env.init_region,
            unsafe_boxes=env.unsafe_cover_boxes(),
            safe_box=env.safe_box,
            domain_box=env.domain,
        )
        blind = BarrierCertificateSynthesizer(
            sketch, SafetyProblem(**common), verifier=verifier
        ).search()
        assert blind.verified  # the old, disturbance-blind verdict

        from repro.certificates import BarrierSynthesisConfig

        aware = BarrierCertificateSynthesizer(
            sketch,
            SafetyProblem(**common, disturbance_bound=[0.4, 0.4], disturbance_scale=env.dt),
            config=BarrierSynthesisConfig(max_refinements=2),
            verifier=verifier,
        )
        # The blind certificate is not inductive once the worst-case
        # disturbance of condition (10) is modelled...
        failure = aware._sound_check(blind.invariant)
        assert failure is not None
        kind, witness = failure
        assert kind == "induction"
        assert witness.shape == (2,)  # projected back to state coordinates
        # ...and the new encoding refuses to certify the candidate sketch.
        assert not aware.search().verified

    def test_kernel_rejects_unsound_candidate_on_disturbed_env(self):
        env = make_environment("satellite", disturbance_bound=[0.4, 0.4])
        program = AffineProgram(gain=make_lqr_policy(env).gain)
        outcome = verify_program(
            env, program, config=VerificationConfig(backend="barrier")
        )
        assert not outcome.verified
        assert outcome.disturbance_aware

    def test_barrier_time_budget_is_sound(self):
        env = make_environment("duffing")
        program = AffineProgram(gain=np.array([[-1.0, -1.5]]))
        config = VerificationConfig(backend="barrier", invariant_degree=4)
        config.barrier.time_budget_seconds = 0.0
        outcome = verify_program(env, program, init_box=DUFFING_BOX, config=config)
        assert not outcome.verified
        assert "time budget" in outcome.failure_reason


# ----------------------------------------------------------------- verdict cache
def _verdict_counts(since):
    """The verdict-cache counts in :mod:`repro.obs` after the snapshot ``since``."""
    counts = obs.delta(since)
    return {key: counts.get(f"verdicts.{key}", 0) for key in ("hits", "misses", "puts")}


class TestVerdictCache:
    def test_hit_returns_bit_identical_outcome_and_record_stream(self, tmp_path):
        env, program = _satellite()
        cache = VerdictCache(tmp_path / "verdicts")
        config = VerificationConfig(backend="barrier")
        fresh_records, cached_records = [], []
        since = obs.snapshot()
        fresh = verify_program(
            env,
            program,
            config=config,
            recorder=lambda kind, state: fresh_records.append((kind, tuple(state))),
            verdict_cache=cache,
        )
        cached = verify_program(
            env,
            program,
            config=config,
            recorder=lambda kind, state: cached_records.append((kind, tuple(state))),
            verdict_cache=cache,
        )
        assert _verdict_counts(since) == {"hits": 1, "misses": 1, "puts": 1}
        assert not fresh.from_cache and cached.from_cache
        assert cached.verified == fresh.verified
        assert cached.backend == fresh.backend
        assert cached.invariant == fresh.invariant
        assert cached.margin == fresh.margin
        assert cached.attempts == fresh.attempts
        assert cached_records == fresh_records  # recorder stream re-emitted

    def test_cache_on_off_outcomes_are_identical(self, tmp_path):
        env, program = _satellite()
        config = VerificationConfig(backend="barrier")
        plain = verify_program(env, program, config=config)
        cache = VerdictCache(tmp_path / "verdicts")
        first = verify_program(env, program, config=config, verdict_cache=cache)
        second = verify_program(env, program, config=config, verdict_cache=cache)
        for outcome in (first, second):
            assert outcome.verified == plain.verified
            assert outcome.backend == plain.backend
            assert outcome.invariant == plain.invariant
            assert outcome.margin == plain.margin

    def test_cache_persists_across_instances(self, tmp_path):
        env, program = _satellite()
        config = VerificationConfig(backend="lyapunov")
        verify_program(
            env, program, config=config, verdict_cache=VerdictCache(tmp_path / "v")
        )
        reopened = VerdictCache(tmp_path / "v")
        since = obs.snapshot()
        outcome = verify_program(env, program, config=config, verdict_cache=reopened)
        assert outcome.from_cache
        assert _verdict_counts(since)["hits"] == 1
        assert len(reopened) == 1

    def test_environment_fingerprint_captures_dynamics(self):
        from repro.envs.cartpole import make_cartpole

        short = environment_fingerprint(make_cartpole(pole_length=0.5))
        long = environment_fingerprint(make_cartpole(pole_length=0.65))
        again = environment_fingerprint(make_cartpole(pole_length=0.5))
        assert short is not None and long is not None
        assert short != long  # same name/regions, different dynamics
        assert short == again

    def test_fingerprint_distinguishes_disturbance_bound(self):
        clean = environment_fingerprint(make_environment("satellite"))
        disturbed = environment_fingerprint(
            make_environment("satellite", disturbance_bound=[0.1, 0.1])
        )
        assert clean != disturbed

    def test_budget_limited_failures_are_not_cached(self, tmp_path):
        """A FAILED verdict produced under a wall-clock budget is not
        deterministic and must never poison the persistent cache."""
        env = make_environment("duffing")
        program = AffineProgram(gain=np.array([[-1.0, -1.5]]))
        cache = VerdictCache(tmp_path / "v")
        config = VerificationConfig(backend="barrier")
        config.barrier.time_budget_seconds = 0.0
        since = obs.snapshot()
        outcome = verify_program(
            env, program, init_box=DUFFING_BOX, config=config, verdict_cache=cache
        )
        assert not outcome.verified
        assert _verdict_counts(since)["puts"] == 0  # the budget failure was not memoised
        # The same query under the same (budgeted) config re-proves fresh.
        again = verify_program(
            env, program, init_box=DUFFING_BOX, config=config, verdict_cache=cache
        )
        assert not again.from_cache

    def test_corrupt_entry_is_a_miss_and_gets_repaired(self, tmp_path):
        env, program = _satellite()
        config = VerificationConfig(backend="lyapunov")
        cache = VerdictCache(tmp_path / "v")
        outcome = verify_program(env, program, config=config, verdict_cache=cache)
        path = cache._path_for(outcome.cache_key)
        path.write_text("{ truncated")  # simulate a torn write

        reopened = VerdictCache(tmp_path / "v")
        since = obs.snapshot()
        fresh = verify_program(env, program, config=config, verdict_cache=reopened)
        assert not fresh.from_cache  # corrupt entry counted as a miss...
        assert _verdict_counts(since)["misses"] == 1
        repaired = verify_program(env, program, config=config, verdict_cache=reopened)
        assert repaired.from_cache  # ...and put() repaired the file
        assert VerdictCache(tmp_path / "v").get(outcome.cache_key) is not None

    def test_malformed_entry_payload_is_a_miss(self, tmp_path):
        import json

        env, program = _satellite()
        config = VerificationConfig(backend="lyapunov")
        cache = VerdictCache(tmp_path / "v")
        outcome = verify_program(env, program, config=config, verdict_cache=cache)
        path = cache._path_for(outcome.cache_key)
        wrapper = json.loads(path.read_text())
        del wrapper["entry"]["verified"]  # parses fine, payload incomplete
        path.write_text(json.dumps(wrapper))

        reopened = VerdictCache(tmp_path / "v")
        since = obs.snapshot()
        fresh = verify_program(env, program, config=config, verdict_cache=reopened)
        assert not fresh.from_cache
        assert _verdict_counts(since)["misses"] == 1

    def test_non_polynomial_dynamics_bypass_the_cache(self, tmp_path):
        env, program = _satellite()

        class TranscendentalEnv(type(env)):
            def rate(self, state, action):
                return [np.sin(float(state[0])), float(action[0])]

        weird = TranscendentalEnv(
            a_matrix=env.a_matrix,
            b_matrix=env.b_matrix,
            init_region=env.init_region,
            safe_box=env.safe_box,
            domain=env.domain,
            dt=env.dt,
        )
        assert environment_fingerprint(weird) is None
        cache = VerdictCache(tmp_path / "v")
        since = obs.snapshot()
        outcome = verify_program(
            weird,
            program,
            config=VerificationConfig(backend="lyapunov"),
            verdict_cache=cache,
        )
        assert outcome.cache_key == ""  # never keyed
        assert _verdict_counts(since) == {"hits": 0, "misses": 0, "puts": 0}


# --------------------------------------------------- cache through the service
FAST_CEGIS = CEGISConfig(
    synthesis=SynthesisConfig(
        iterations=5, distance=DistanceConfig(num_trajectories=2, trajectory_length=50), seed=0
    ),
    verification=VerificationConfig(backend="lyapunov"),
    max_counterexamples=4,
)


class TestServiceVerdictCache:
    def _oracle(self, env):
        return make_lqr_policy(env)

    def test_synthesis_populates_store_backed_cache(self, tmp_path):
        env = make_environment("satellite")
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        assert service.verdict_cache is not None
        since = obs.snapshot()
        result = service.synthesize(env, self._oracle(env), config=FAST_CEGIS)
        assert not result.from_store
        assert _verdict_counts(since)["puts"] >= 1
        assert result.artifact.metadata["branch_regions"]

    def test_verify_stored_hits_the_cache(self, tmp_path):
        env = make_environment("satellite")
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        result = service.synthesize(env, self._oracle(env), config=FAST_CEGIS)
        since = obs.snapshot()
        all_ok, outcomes, artifact = service.verify_stored(
            result.key, verification=FAST_CEGIS.verification
        )
        assert all_ok
        assert all(outcome.verified for outcome in outcomes)
        # The CEGIS proofs populated the cache under the same keys the
        # recorded branch regions reproduce — the recheck is free.
        assert _verdict_counts(since)["hits"] > 0
        assert all(outcome.from_cache for outcome in outcomes)

    def test_verify_stored_without_cache_reproves_identically(self, tmp_path):
        env = make_environment("satellite")
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        result = service.synthesize(env, self._oracle(env), config=FAST_CEGIS)
        ok_cached, cached, _ = service.verify_stored(
            result.key, verification=FAST_CEGIS.verification
        )
        ok_fresh, fresh, _ = service.verify_stored(
            result.key, verification=FAST_CEGIS.verification, use_cache=False
        )
        assert ok_cached == ok_fresh
        assert [o.verified for o in cached] == [o.verified for o in fresh]
        assert [o.invariant for o in cached] == [o.invariant for o in fresh]
        assert not any(o.from_cache for o in fresh)

    def test_cegis_verdict_cache_round_trip_is_bit_identical(self, tmp_path):
        env = make_environment("satellite")
        oracle = self._oracle(env)
        cache = VerdictCache(tmp_path / "verdicts")
        first = CEGISLoop(env, oracle, config=FAST_CEGIS, verdict_cache=cache).run()
        since = obs.snapshot()
        second = CEGISLoop(env, oracle, config=FAST_CEGIS, verdict_cache=cache).run()
        plain = CEGISLoop(env, oracle, config=FAST_CEGIS).run()
        assert _verdict_counts(since)["hits"] > 0  # re-synthesis served from cache
        for other in (second, plain):
            assert other.covered == first.covered
            assert other.counterexamples_used == first.counterexamples_used
            assert len(other.branches) == len(first.branches)
            for mine, theirs in zip(first.branches, other.branches):
                assert mine.invariant == theirs.invariant
                np.testing.assert_array_equal(mine.program.gain, theirs.program.gain)

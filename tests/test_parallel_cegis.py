"""Differential tests for the parallel CEGIS driver and the replay cache.

Three families of guarantees:

* ``workers=1`` vs ``workers=4`` with the same seed produce shields with
  identical safety verdicts and equivalent covered initial regions (checked
  on a sampled grid of initial states) — across ≥ 4 registry environments,
  including a multi-branch configuration and an uncoverable one;
* cache-on vs cache-off runs produce bit-identical ``CEGISResult`` programs
  (the replay cache may only skip work, never change the verdict or the
  search path); replay always runs in product code, so the cache-off
  reference run patches :meth:`CounterexampleCache.replay` to miss without
  counting;
* the :class:`CounterexampleCache` itself: sound replay (a hit is a real
  refutation), probing, counters, and JSON persistence.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.core import (
    CEGISConfig,
    CEGISLoop,
    CounterexampleCache,
    DistanceConfig,
    SynthesisConfig,
    VerificationConfig,
    batch_reaches_unsafe,
)
from repro.envs import make_environment
from repro.lang import AffineProgram, program_fingerprint

#: Registry environments whose LQR teacher verifies quickly via the exact
#: Lyapunov backend — fast enough to run each four times in this suite.
COVERED_ENVIRONMENTS = ("satellite", "tape", "suspension", "self_driving", "datacenter")

#: An environment the same budget cannot cover — both drivers must agree on
#: the negative verdict too.
UNCOVERED_ENVIRONMENT = "lane_keeping"

FAST = CEGISConfig(
    synthesis=SynthesisConfig(
        iterations=3,
        distance=DistanceConfig(num_trajectories=1, trajectory_length=30),
        seed=0,
    ),
    verification=VerificationConfig(backend="lyapunov"),
    max_counterexamples=4,
    seed=0,
)


def _run(env_name, config, oracle=None):
    env = make_environment(env_name)
    oracle = oracle or make_lqr_policy(env)
    loop = CEGISLoop(env, oracle, config=config)
    return env, loop.run()


def _run_without_replay(env_name, config):
    """The cache-off reference run: no candidate is ever refuted by replay."""
    with mock.patch.object(
        CounterexampleCache, "replay", lambda self, env, program, region: None
    ):
        return _run(env_name, config)


def _sampled_coverage(env, result, samples=200, seed=0):
    states = env.init_region.sample(np.random.default_rng(seed), samples)
    if not result.branches:
        return np.zeros(samples, dtype=bool)
    return result.invariant.holds_batch(states)


# ------------------------------------------------------- workers differential
class TestWorkersDifferential:
    @pytest.mark.parametrize("name", COVERED_ENVIRONMENTS)
    def test_parallel_and_sequential_agree(self, name):
        _env, sequential = _run(name, FAST)
        env, parallel = _run(name, replace(FAST, workers=4))
        assert sequential.covered and parallel.covered
        assert parallel.workers == 4
        # Equivalent covered initial regions: every sampled initial state is
        # inside both invariant unions (both results claim full coverage of
        # S0, so both must contain every sample).
        assert _sampled_coverage(env, sequential).all()
        assert _sampled_coverage(env, parallel).all()

    def test_multi_branch_parallel_agrees_with_sequential(self):
        config = replace(FAST, max_counterexamples=12, initial_radius_fraction=0.4)
        env, sequential = _run("satellite", config)
        _env, parallel = _run("satellite", replace(config, workers=4))
        assert sequential.covered and parallel.covered
        assert sequential.program_size >= 2, "fractional radius must force multi-branch"
        assert parallel.program_size >= 2
        assert _sampled_coverage(env, sequential).all()
        assert _sampled_coverage(env, parallel).all()

    def test_uncoverable_environment_same_verdict(self):
        _env, sequential = _run(UNCOVERED_ENVIRONMENT, FAST)
        _env, parallel = _run(UNCOVERED_ENVIRONMENT, replace(FAST, workers=4))
        assert not sequential.covered
        assert not parallel.covered
        assert sequential.failure_reason and parallel.failure_reason

    def test_parallel_run_is_deterministic(self):
        config = replace(FAST, workers=4, max_counterexamples=8, initial_radius_fraction=0.4)
        _env, first = _run("satellite", config)
        _env, second = _run("satellite", config)
        assert first.covered == second.covered
        assert program_fingerprint(first.program) == program_fingerprint(second.program)

    def test_parallel_rounds_record_round_count(self):
        _env, result = _run("satellite", replace(FAST, workers=4))
        assert result.rounds >= 1
        assert result.counterexamples_used >= 1


# ------------------------------------------------------------- one driver
class TestOneDriver:
    """``workers=1`` is a one-slot round of the same driver ``workers=N`` uses."""

    def test_one_worker_never_builds_a_process_pool(self):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must run its slot inline")

        with mock.patch("repro.faults.runner.ProcessPoolExecutor", no_pool):
            _env, result = _run("satellite", replace(FAST, initial_radius_fraction=0.4))
        assert result.covered
        assert result.workers == 1
        assert result.program_size >= 2

    def test_failed_verification_counts_its_round_and_seed_point(self):
        # magnetic_pointer verifies one branch under FAST, then fails.
        _env, result = _run("magnetic_pointer", FAST)
        assert not result.covered
        assert result.failure_reason.startswith("could not verify")
        assert len(result.branches) >= 1
        assert result.counterexamples_used == result.rounds == len(result.branches) + 1

    def test_exhausted_budget_reports_one_round_per_counterexample(self):
        config = replace(FAST, max_counterexamples=3, initial_radius_fraction=0.1)
        _env, result = _run("satellite", config)
        assert not result.covered
        assert result.failure_reason == "counterexample budget exhausted before covering S0"
        assert result.rounds == result.counterexamples_used == config.max_counterexamples

    @pytest.mark.parametrize("name", ("satellite", "tape", UNCOVERED_ENVIRONMENT))
    def test_one_and_two_workers_agree(self, name):
        env, one = _run(name, FAST)
        _env, two = _run(name, replace(FAST, workers=2))
        assert one.covered == two.covered
        assert bool(one.failure_reason) == bool(two.failure_reason)
        if one.covered:
            assert _sampled_coverage(env, one).all()
            assert _sampled_coverage(env, two).all()


# --------------------------------------------------------- cache differential
class TestCacheDifferential:
    @pytest.mark.parametrize("name", ("satellite", "tape", "magnetic_pointer"))
    def test_cache_on_off_identical_results(self, name):
        """The replay cache must be invisible in the result, covered or not.

        ``magnetic_pointer`` does not cover under this budget, so the
        comparison also exercises runs with failed verifications (where the
        cache actually probes and replays).
        """
        _env, with_cache = _run(name, FAST)
        _env, without_cache = _run_without_replay(name, FAST)
        assert with_cache.covered == without_cache.covered
        assert with_cache.counterexamples_used == without_cache.counterexamples_used
        assert len(with_cache.branches) == len(without_cache.branches)
        for branch_cached, branch_plain in zip(with_cache.branches, without_cache.branches):
            assert program_fingerprint(branch_cached.program) == program_fingerprint(
                branch_plain.program
            )
            np.testing.assert_allclose(
                branch_cached.counterexample, branch_plain.counterexample
            )
        assert without_cache.cache_hits == 0 and without_cache.cache_misses == 0

    def test_cache_on_off_identical_multi_branch_program(self):
        config = replace(FAST, max_counterexamples=12, initial_radius_fraction=0.4)
        _env, with_cache = _run("satellite", config)
        _env, without_cache = _run_without_replay("satellite", config)
        assert with_cache.covered and without_cache.covered
        assert program_fingerprint(with_cache.program) == program_fingerprint(
            without_cache.program
        )

    def test_cache_counters_surface_in_result(self):
        _env, result = _run("satellite", FAST)
        # Every candidate verification is preceded by exactly one replay
        # attempt; with no prior failures these are all misses.
        assert result.cache_misses >= 1
        assert result.cache_hits == 0

    def test_destabilizing_oracle_produces_cache_hits(self):
        """An oracle that drives the system unsafe makes candidates fail with
        concrete unsafe trajectories — the second shrink iteration must then
        be refuted by replay instead of re-running verification."""
        env = make_environment("satellite")
        unstable = AffineProgram(gain=5.0 * np.abs(make_lqr_policy(env).gain))
        config = replace(
            FAST,
            max_counterexamples=1,
            max_shrink_iterations=4,
            synthesis=replace(
                FAST.synthesis, iterations=1, learning_rate=0.0
            ),
        )
        loop = CEGISLoop(env, unstable, config=config)
        result = loop.run()
        assert not result.covered
        assert result.cache_hits >= 1
        assert loop.replay_cache.witness_count >= 1


# ------------------------------------------------------------ cache mechanics
class TestCounterexampleCache:
    def _env_and_programs(self):
        env = make_environment("satellite")
        stable = make_lqr_policy(env)
        unstable = AffineProgram(gain=-4.0 * stable.gain)
        return env, stable, unstable

    def test_replay_hit_is_a_real_refutation(self):
        env, _stable, unstable = self._env_and_programs()
        cache = CounterexampleCache(environment="satellite", horizon=200)
        witness = env.init_region.sample(np.random.default_rng(0), 1)[0]
        cache.record(witness, kind="trajectory")
        refuter = cache.replay(env, unstable, env.init_region)
        assert refuter is not None
        assert cache.hits == 1
        # Soundness: the returned state really does reach unsafe.
        assert batch_reaches_unsafe(env, unstable, refuter[None, :], 200)[0]

    def test_replay_miss_on_safe_program(self):
        env, stable, _unstable = self._env_and_programs()
        cache = CounterexampleCache(environment="satellite", horizon=200)
        cache.record(env.init_region.center, kind="trajectory")
        assert cache.replay(env, stable, env.init_region) is None
        assert cache.misses == 1

    def test_out_of_region_witnesses_are_not_replayed(self):
        env, _stable, unstable = self._env_and_programs()
        cache = CounterexampleCache(environment="satellite", horizon=200)
        far_away = np.asarray(env.domain.high) * 0.99
        cache.record(far_away, kind="trajectory")
        assert cache.replay(env, unstable, env.init_region) is None

    def test_probe_records_unsafe_reaching_states(self):
        env, _stable, unstable = self._env_and_programs()
        cache = CounterexampleCache(environment="satellite", horizon=200, probe_samples=16)
        added = cache.probe(env, unstable, env.init_region)
        assert added >= 1
        assert cache.witness_count == added

    def test_condition_records_are_not_replay_witnesses(self):
        cache = CounterexampleCache()
        cache.record(np.zeros(2), kind="induction")
        cache.record(np.zeros(2), kind="unsafe")
        assert len(cache.records) == 2
        assert cache.witness_count == 0

    def test_unknown_kind_rejected(self):
        cache = CounterexampleCache()
        with pytest.raises(ValueError, match="unknown counterexample kind"):
            cache.record(np.zeros(2), kind="mystery")

    def test_json_round_trip(self, tmp_path):
        cache = CounterexampleCache(environment="satellite", horizon=99)
        cache.record(np.array([0.1, -0.2]), kind="trajectory", source="probe")
        cache.record(np.array([0.3, 0.4]), kind="induction", source="verification")
        path = cache.save(tmp_path / "cex.json")
        restored = CounterexampleCache.load(path)
        assert restored.environment == "satellite"
        assert restored.horizon == 99
        assert len(restored.records) == 2
        assert restored.witness_count == 1
        np.testing.assert_allclose(restored.records[0].state, [0.1, -0.2])
        assert restored.records[1].kind == "induction"

    def test_shared_cache_accumulates_across_runs(self):
        env = make_environment("satellite")
        oracle = make_lqr_policy(env)
        cache = CounterexampleCache(environment="satellite")
        for _ in range(2):
            result = CEGISLoop(env, oracle, config=FAST, replay_cache=cache).run()
            assert result.covered
        assert cache.misses >= 2

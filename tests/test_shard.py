"""Sharded fleet execution: worker-count invariance, merging, and plumbing.

The sharded runtime's contract is that the *worker count is unobservable*:
``workers=1`` (in-process) and ``workers=N`` (fork pool) execute the identical
shard plan under identical per-shard seed streams, so every counter — unsafe
steps, interventions, steady-at indices, monitor mismatches, invariant
excursions, barrier peaks — and every merged artifact (rewards, disturbance
estimates, shield statistics) must be bit-identical.  These tests pin that
contract across registry environments, disturbed and monitored fleets and
odd episode counts, plus the shard plan and shared-memory arena mechanics
underneath.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.compile.stepper import RolloutWorkspace
from repro.core import Shield
from repro.envs import make_disturbance, make_environment
from repro.envs.disturbance import DisturbanceEstimator
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.runtime import EvaluationProtocol, evaluate_policy, monitor_fleet
from repro.shard import (
    DEFAULT_SHARDS,
    MIN_SHARD_EPISODES,
    ShardPool,
    create_arena,
    disturbance_estimate_from_moments,
    merge_moments,
    plan_shards,
)

#: Six cheap registry environments spanning 2-7 state dimensions.
IDENTITY_ENVS = ("satellite", "dcmotor", "tape", "pendulum", "cartpole", "oscillator")

CAMPAIGN_FIELDS = ("total_rewards", "unsafe_counts", "intervention_counts", "steady_at")
MONITOR_FIELDS = (
    "interventions",
    "model_mismatches",
    "invariant_excursions",
    "unsafe_steps",
    "peak_barrier_values",
    "final_states",
)


def _make_shield(env, seed=0):
    rng = np.random.default_rng(seed)
    d, m = env.state_dim, env.action_dim
    scale = env.action_high if env.action_high is not None else np.ones(m)
    network = MLP(d, (24, 16), m, output_scale=scale, seed=seed)
    program = AffineProgram(gain=rng.normal(scale=0.2, size=(m, d)), names=env.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(d)) - 0.5, names=env.state_names
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=env.state_names)
    return Shield(
        env=env,
        neural_policy=NeuralPolicy(network),
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=False,
    )


def _linear_policy(env, seed=0):
    rng = np.random.default_rng(seed)
    return AffineProgram(
        gain=rng.normal(scale=0.2, size=(env.action_dim, env.state_dim)),
        names=env.state_names,
    )


def _campaign(env, episodes, steps, seed, initial_states=None, **pool_options):
    """One campaign on a fresh pool (``pool_options`` go to ``ShardPool``)."""
    with ShardPool(env, **pool_options) as pool:
        return pool.run_campaign(episodes, steps, seed=seed, initial_states=initial_states)


def _monitored(shield, episodes, steps, seed, disturbance=None, **pool_options):
    """One monitored fleet on a fresh pool."""
    with ShardPool(shield.env, shield=shield, **pool_options) as pool:
        return pool.run_monitored(episodes, steps, seed=seed, disturbance=disturbance)


# -------------------------------------------------------------------- the plan
class TestShardPlan:
    def test_plan_covers_every_episode_exactly_once(self):
        for episodes in (1, 2, 7, 8, 9, 37, 100):
            for shards in (None, 1, 3, 5, 8, 200):
                plan = plan_shards(episodes, shards)
                assert plan[0].start == 0
                assert plan[-1].stop == episodes
                for left, right in zip(plan, plan[1:]):
                    assert left.stop == right.start
                widths = [shard.episodes for shard in plan]
                assert max(widths) - min(widths) <= 1
                assert sum(widths) == episodes

    def test_shard_count_clamps_to_fleet_and_defaults(self):
        assert len(plan_shards(3, None)) == 1
        assert len(plan_shards(10_000, None)) == DEFAULT_SHARDS
        assert len(plan_shards(5, 200)) == 5
        assert len(plan_shards(3, 3)) == 3  # an explicit count is only clamped

    def test_default_plan_keeps_small_fleets_to_one_shard(self):
        assert MIN_SHARD_EPISODES == 500
        assert [shard.episodes for shard in plan_shards(5)] == [5]
        assert [shard.episodes for shard in plan_shards(999)] == [999]
        assert [shard.episodes for shard in plan_shards(1000)] == [500, 500]
        assert [shard.episodes for shard in plan_shards(4000)] == [500] * 8

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(0)
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_seed_streams_are_distinct_and_reproducible(self):
        plan_a = plan_shards(40, 4, seed=123)
        plan_b = plan_shards(40, 4, seed=123)
        draws_a = [np.random.default_rng(s.seed).integers(0, 2**32) for s in plan_a]
        draws_b = [np.random.default_rng(s.seed).integers(0, 2**32) for s in plan_b]
        assert draws_a == draws_b
        assert len(set(draws_a)) == len(draws_a)


# ------------------------------------------------------------------- the arena
class TestShardArena:
    def test_private_arena_round_trip(self):
        arena = create_arena(
            [("a", (5,), np.float64), ("b", (3, 2), np.int64)], shared=False
        )
        arena.view("a")[:] = np.arange(5.0)
        arena.view("b")[:] = 7
        taken = arena.take()
        arena.destroy()
        assert np.array_equal(taken["a"], np.arange(5.0))
        assert np.array_equal(taken["b"], np.full((3, 2), 7))

    def test_fields_are_cache_line_aligned(self):
        arena = create_arena(
            [("a", (3,), np.float64), ("b", (3,), np.int64), ("c", (1,), np.float64)],
            shared=False,
        )
        try:
            for field in arena.spec.fields:
                assert field.offset % 64 == 0
        finally:
            arena.destroy()


# ------------------------------------------------- worker-count bit-identity
class TestWorkerCountInvariance:
    @pytest.mark.parametrize("name", IDENTITY_ENVS)
    def test_campaign_counters_identical_across_worker_counts(self, name):
        env = make_environment(name)
        policy = _linear_policy(env)
        # 19 episodes over 5 shards: uneven widths (4,4,4,4,3).
        reference = _campaign(env, 19, 15, seed=11, policy=policy, workers=1, shards=5)
        for workers in (2, 4):
            other = _campaign(env, 19, 15, seed=11, policy=policy, workers=workers, shards=5)
            for field in CAMPAIGN_FIELDS:
                assert np.array_equal(
                    getattr(reference, field), getattr(other, field)
                ), f"{name}: {field} differs at workers={workers}"

    @pytest.mark.parametrize("name", ("pendulum", "oscillator"))
    def test_shielded_campaign_and_shield_statistics_identical(self, name):
        env = make_environment(name)
        results, statistics = [], []
        for workers in (1, 2, 4):
            shield = _make_shield(env)
            results.append(
                _campaign(env, 13, 12, seed=3, shield=shield, workers=workers, shards=4)
            )
            statistics.append(
                (shield.statistics.decisions, shield.statistics.interventions)
            )
        for other in results[1:]:
            for field in CAMPAIGN_FIELDS:
                assert np.array_equal(getattr(results[0], field), getattr(other, field))
        assert statistics[0] == statistics[1] == statistics[2]
        assert statistics[0][0] > 0  # the fold actually carried decisions across

    @pytest.mark.parametrize("kind", ("none", "uniform", "sinusoidal"))
    def test_monitored_fleet_identical_under_disturbance(self, kind):
        env = make_environment("pendulum")
        reports = []
        for workers in (1, 2, 4):
            shield = _make_shield(env)
            model = (
                None
                if kind == "none"
                else make_disturbance(
                    kind,
                    env.state_dim,
                    magnitude=0.05,
                    episodes=17,
                    rng=np.random.default_rng(5),
                )
            )
            reports.append(
                # odd width over 4 shards: (5,4,4,4)
                _monitored(shield, 17, 14, seed=13, disturbance=model, workers=workers, shards=4)
            )
        for other in reports[1:]:
            for field in MONITOR_FIELDS:
                assert np.array_equal(
                    getattr(reports[0], field), getattr(other, field)
                ), f"{field} differs"
            left, right = reports[0].disturbance_estimate, other.disturbance_estimate
            assert (left is None) == (right is None)
            if left is not None:
                assert np.array_equal(left.mean, right.mean)
                assert np.array_equal(left.covariance, right.covariance)
                assert np.array_equal(left.bound, right.bound)
                assert left.samples == right.samples

    def test_monitored_per_episode_disturbance_width_checked(self):
        env = make_environment("pendulum")
        shield = _make_shield(env)
        model = make_disturbance(
            "sinusoidal", env.state_dim, episodes=10, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="10 episodes"):
            _monitored(shield, 12, 5, seed=0, disturbance=model)

    def test_pool_reuse_across_runs_is_deterministic(self):
        env = make_environment("pendulum")
        policy = _linear_policy(env)
        with ShardPool(env, policy=policy, workers=2, shards=4) as pool:
            first = pool.run_campaign(11, 10, seed=21)
            second = pool.run_campaign(11, 10, seed=21)
        for field in CAMPAIGN_FIELDS:
            assert np.array_equal(getattr(first, field), getattr(second, field))


# ------------------------------------------------ one seeding discipline
class TestOneSeedingDiscipline:
    """The front ends have one path: the default, ``workers=1`` and
    ``workers=2`` run the same shard plan, so per-episode results agree."""

    def test_evaluate_policy_default_equals_every_worker_count(self):
        env = make_environment("pendulum")
        runs = []
        for workers in (None, 1, 2):
            options = {} if workers is None else {"workers": workers}
            shield = _make_shield(env)
            protocol = EvaluationProtocol(episodes=1200, steps=20, seed=4, **options)
            metrics = evaluate_policy(env, shield, protocol, shield=shield)
            runs.append([getattr(metrics, field).tolist() for field in CAMPAIGN_FIELDS])
        assert runs[0] == runs[1] == runs[2]
        assert sum(runs[0][CAMPAIGN_FIELDS.index("intervention_counts")]) > 0

    def test_monitor_fleet_default_equals_every_worker_count(self):
        env = make_environment("pendulum")
        reports = []
        for workers in (None, 1, 2):
            options = {} if workers is None else {"workers": workers}
            model = make_disturbance(
                "uniform", env.state_dim, magnitude=0.05, rng=np.random.default_rng(2)
            )
            reports.append(
                monitor_fleet(
                    _make_shield(env),
                    episodes=1200,
                    steps=20,
                    rng=np.random.default_rng(4),
                    disturbance=model,
                    **options,
                )
            )
        for other in reports[1:]:
            for field in MONITOR_FIELDS:
                assert np.array_equal(getattr(reports[0], field), getattr(other, field)), field
            assert np.array_equal(
                reports[0].disturbance_estimate.bound, other.disturbance_estimate.bound
            )
        assert reports[0].shard_stats["shards"] == 2
        assert [report.shard_stats["workers"] for report in reports] == [1, 1, 2]


# ------------------------------------------- agreement with the batched engine
class TestShardedVsUnsharded:
    @pytest.mark.parametrize("name", ("satellite", "cartpole"))
    def test_explicit_initial_states_reproduce_the_batched_engine(self, name):
        # Dynamics are deterministic given the initial states, so pinning them
        # makes a one-shard and a four-shard campaign directly comparable.
        env = make_environment(name)
        policy = _linear_policy(env)
        states = env.sample_initial_states(np.random.default_rng(4), 15)
        plain = _campaign(env, 15, 12, seed=0, initial_states=states.copy(), policy=policy)
        sharded = _campaign(
            env, 15, 12, seed=0, initial_states=states.copy(), policy=policy, workers=2, shards=4
        )
        assert plain.stats["shards"] == 1
        for field in CAMPAIGN_FIELDS:
            assert np.array_equal(getattr(plain, field), getattr(sharded, field)), field

    def test_metrics_package_matches_batched_conventions(self):
        env = make_environment("pendulum")
        metrics = _campaign(env, 8, 10, seed=1, policy=_linear_policy(env))
        assert metrics.num_episodes == 8
        assert metrics.total_decisions == 80
        assert metrics.failures == int(np.sum(metrics.unsafe_counts > 0))
        summary = metrics.summary()
        assert summary["episodes"] == 8
        assert metrics.stats["shards"] == len(metrics.stats["shard_episodes"])


# -------------------------------------------------------------- moment merging
class TestMomentMerging:
    def test_merged_moments_match_single_estimator(self):
        rng = np.random.default_rng(7)
        residuals = rng.normal(scale=0.1, size=(60, 3))
        whole = DisturbanceEstimator(3)
        whole.observe_batch(residuals)
        reference = whole.estimate()
        shards = []
        for start, stop in ((0, 21), (21, 40), (40, 60)):
            part = DisturbanceEstimator(3)
            part.observe_batch(residuals[start:stop])
            shards.append(part.moments())
        count, total, outer = merge_moments(shards, 3)
        merged = disturbance_estimate_from_moments(count, total, outer)
        assert merged.samples == reference.samples
        np.testing.assert_allclose(merged.mean, reference.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            merged.covariance, reference.covariance, rtol=0, atol=1e-12
        )

    def test_merge_is_order_fixed_and_skips_empty_shards(self):
        count, total, outer = merge_moments([None, (0, np.zeros(2), np.zeros((2, 2)))], 2)
        assert count == 0
        assert disturbance_estimate_from_moments(count, total, outer) is None

    def test_below_two_samples_yields_no_estimate(self):
        assert disturbance_estimate_from_moments(1, np.ones(2), np.eye(2)) is None


# -------------------------------------------------------- workspace buffering
class TestRolloutWorkspaceBuffers:
    def test_same_shape_reuses_the_same_buffer(self):
        ws = RolloutWorkspace()
        first = ws.array("states", (8, 3))
        second = ws.array("states", (8, 3))
        assert first.base is second.base

    def test_shrinking_shape_reuses_grown_buffer(self):
        # The episode-count thrash: alternating fleet widths must not
        # re-allocate once the largest width has been seen.
        ws = RolloutWorkspace()
        big = ws.array("states", (16, 3))
        small = ws.array("states", (4, 3))
        big_again = ws.array("states", (16, 3))
        assert small.base is big.base
        assert big_again.base is big.base
        assert len(ws) == 1

    def test_distinct_names_get_distinct_float64_buffers(self):
        ws = RolloutWorkspace()
        states = ws.array("states", (8, 2))
        scratch = ws.array("scratch", (8, 2))
        assert states.dtype == scratch.dtype == np.float64
        assert states.base is not scratch.base
        assert len(ws) == 2


# ------------------------------------------------------------------ CLI knobs
class TestCLIWorkersKnob:
    def test_run_and_monitor_accept_worker_flags(self):
        parser = build_parser()
        for command in ("run", "monitor"):
            args = parser.parse_args([command, "pendulum", "--workers", "2", "--shards", "3"])
            assert args.workers == 2
            assert args.shards == 3

    def test_experiments_accept_workers(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--workers", "4"])
        assert args.workers == 4
        args = parser.parse_args(["robustness", "--workers", "2"])
        assert args.workers == 2

    def test_workers_default_is_one_in_process_worker(self):
        parser = build_parser()
        for command in ("run", "monitor", "adapt", "table1", "robustness"):
            argv = [command, "pendulum"] if command in ("run", "monitor", "adapt") else [command]
            assert parser.parse_args(argv).workers == 1


# ----------------------------------------------------------------- pool misc
class TestShardPoolContracts:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_non_positive_worker_count_rejected(self, workers):
        env = make_environment("pendulum")
        with pytest.raises(ValueError, match="at least one worker"):
            ShardPool(env, policy=_linear_policy(env), workers=workers)

    def test_policy_and_shield_both_set_rejected(self):
        env = make_environment("pendulum")
        with pytest.raises(ValueError, match="not both"):
            ShardPool(env, policy=_linear_policy(env), shield=_make_shield(env))

    def test_monitor_requires_shield(self):
        env = make_environment("pendulum")
        with ShardPool(env, policy=_linear_policy(env)) as pool:
            with pytest.raises(ValueError, match="shield"):
                pool.run_monitored(4, 5)

    def test_closed_pool_refuses_work(self):
        env = make_environment("pendulum")
        pool = ShardPool(env, policy=_linear_policy(env))
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_campaign(4, 5, seed=0)

    def test_bad_initial_state_shape_rejected(self):
        env = make_environment("pendulum")
        with ShardPool(env, policy=_linear_policy(env)) as pool:
            with pytest.raises(ValueError, match="shape"):
                pool.run_campaign(6, 5, seed=0, initial_states=np.zeros((3, env.state_dim)))

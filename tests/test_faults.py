"""Fault injection, per-shard recovery, crash-safe journals, and chaos scenarios.

The recovery contract under test: a campaign that survives injected worker
crashes, hangs, or transient IO errors is *bit-identical* to the fault-free
run on every counter and statistic, only the failed shard/slot is re-executed
(asserted via the per-shard execution counters), the recovery is recorded in a
structured :class:`~repro.faults.FaultLog`, and a SIGKILLed sweep resumed
from its journal renders a byte-identical report.
"""

from __future__ import annotations

import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.faults.runner as runner_module
from repro.cli import build_parser, main as cli_main
from repro.core import Shield
from repro.envs import make_environment
from repro.faults import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RowJournal,
    ShardManifest,
    activate,
    active_plan,
    deactivate,
    fault_plan,
    fault_site,
    run_scenario,
)
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.shard import ShardPool, run_sharded_campaign

CAMPAIGN_FIELDS = ("total_rewards", "unsafe_counts", "interventions", "steady_at")


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


def _campaign(workers=2, shards=4, retry=None, checkpoint=None, resume=False):
    env = make_environment("satellite")
    shield = _make_shield(env)
    return run_sharded_campaign(
        env,
        shield=shield,
        episodes=8,
        steps=25,
        seed=7,
        workers=workers,
        shards=shards,
        retry=retry,
        checkpoint=checkpoint,
        resume=resume,
    )


def _failed_fork(self, *args, **kwargs):
    """``ProcessPoolExecutor.submit`` on a host that cannot fork any more."""
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    deactivate()
    yield
    deactivate()


# -------------------------------------------------------------------- the plan
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nowhere", kind="crash")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="shard.worker", kind="gremlin")

    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=[
                FaultSpec(site="shard.worker", kind="crash", index=2, attempt=None),
                FaultSpec(site="store.put", kind="partial-write"),
            ],
            seed=11,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.seed == plan.seed
        assert restored.specs == plan.specs

    def test_random_plans_are_seed_deterministic(self):
        assert FaultPlan.random(5).to_json() == FaultPlan.random(5).to_json()
        assert FaultPlan.random(5).to_json() != FaultPlan.random(6).to_json()

    def test_activation_exports_env_var_and_lazy_adoption(self):
        plan = FaultPlan(specs=[FaultSpec(site="shard.worker", kind="oserror")])
        activate(plan)
        assert ENV_VAR in os.environ
        # A "fresh process" (module state cleared) adopts the env plan lazily.
        import repro.faults.plan as plan_module

        plan_module._ACTIVE = None
        adopted = active_plan()
        assert adopted is not None
        assert adopted.specs == plan.specs
        assert adopted.activated_pid == os.getpid()
        deactivate()
        assert ENV_VAR not in os.environ
        assert active_plan() is None

    def test_fault_site_without_plan_is_noop(self):
        assert fault_site("shard.worker", index=0) is None

    def test_inline_lane_never_fires_and_keeps_spec_armed(self):
        with fault_plan(FaultPlan(specs=[FaultSpec(site="shard.worker", kind="oserror")])):
            assert fault_site("shard.worker", index=0, inline=True) is None
            with pytest.raises(OSError, match="injected transient OSError"):
                fault_site("shard.worker", index=0)

    def test_crash_never_fires_in_activating_process(self):
        with fault_plan(FaultPlan(specs=[FaultSpec(site="shard.worker", kind="crash")])):
            # Would os._exit(CRASH_EXIT_CODE) in a worker; here it must not.
            assert fault_site("shard.worker", index=0) is None
        assert CRASH_EXIT_CODE == 23

    def test_count_and_attempt_matching(self):
        plan = FaultPlan(
            specs=[FaultSpec(site="shard.worker", kind="oserror", index=1, attempt=0, count=2)]
        )
        with fault_plan(plan):
            assert fault_site("shard.worker", index=0) is None  # wrong index
            assert fault_site("shard.worker", index=1, attempt=1) is None  # wrong attempt
            with pytest.raises(OSError):
                fault_site("shard.worker", index=1, attempt=0)
            with pytest.raises(OSError):
                fault_site("shard.worker", index=1, attempt=0)
            assert fault_site("shard.worker", index=1, attempt=0) is None  # count spent

    def test_data_kinds_are_returned_not_raised(self):
        with fault_plan(FaultPlan(specs=[FaultSpec(site="store.put", kind="partial-write")])):
            spec = fault_site("store.put")
            assert spec is not None and spec.kind == "partial-write"


class TestRetryPolicy:
    def test_backoff_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_seconds=0.1, jitter_fraction=0.2, seed=3)
        values = [policy.backoff_for("shard.worker", 2, attempt) for attempt in (1, 2, 3)]
        assert values == [policy.backoff_for("shard.worker", 2, a) for a in (1, 2, 3)]
        for attempt, value in enumerate(values, start=1):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert base * 0.8 <= value <= base * 1.2
        # Different coordinates jitter differently.
        assert policy.backoff_for("shard.worker", 0, 1) != policy.backoff_for(
            "shard.worker", 1, 1
        )

    def test_wave_timeout_scales_with_queue_depth(self):
        policy = RetryPolicy(deadline_seconds=2.0)
        assert policy.wave_timeout(4, 2) == 4.0
        assert policy.wave_timeout(1, 2) == 2.0
        assert RetryPolicy().wave_timeout(4, 2) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)


# --------------------------------------------------------- per-shard recovery
class TestShardRecovery:
    def test_crash_recovery_is_bit_identical_and_retries_only_failed_shards(self):
        baseline = _campaign()
        plan = FaultPlan(
            specs=[FaultSpec(site="shard.worker", kind="crash", index=2, attempt=0)]
        )
        with fault_plan(plan), pytest.warns(RuntimeWarning, match="shard pool recovery"):
            recovered = _campaign()
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(recovered, field), err_msg=field
            )
        executions = recovered.stats["shard_executions"]
        assert executions[2] == 2  # the crashed shard ran twice
        # No whole-run fallback: at most the crash's in-flight casualties
        # re-ran, never all shards from scratch.
        assert sum(executions) < 2 * len(executions)
        assert recovered.stats["faults"]
        assert all(e["site"] == "shard.worker" for e in recovered.stats["faults"])
        assert baseline.stats["faults"] == []

    def test_hang_recovery_via_watchdog_deadline(self):
        retry = RetryPolicy(max_attempts=3, backoff_seconds=0.01, deadline_seconds=0.4)
        baseline = _campaign(retry=retry)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="shard.worker", kind="hang", index=1, attempt=0, delay_seconds=2.0
                )
            ]
        )
        with fault_plan(plan), pytest.warns(RuntimeWarning, match="watchdog deadline"):
            recovered = _campaign(retry=retry)
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(recovered, field), err_msg=field
            )
        assert recovered.stats["shard_executions"][1] >= 2
        outcomes = {e["outcome"] for e in recovered.stats["faults"]}
        assert "retry" in outcomes

    def test_transient_oserror_recovery(self):
        baseline = _campaign()
        plan = FaultPlan(
            specs=[FaultSpec(site="shard.worker", kind="oserror", index=0, attempt=0)]
        )
        with fault_plan(plan), pytest.warns(RuntimeWarning, match="injected transient"):
            recovered = _campaign()
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(recovered, field), err_msg=field
            )
        assert recovered.stats["shard_executions"][0] == 2

    def test_exhausted_retries_recover_on_inline_lane(self):
        retry = RetryPolicy(max_attempts=2, backoff_seconds=0.01)
        baseline = _campaign(retry=retry)
        # attempt=None: the crash re-fires on every fork attempt, so the shard
        # must land on the guaranteed inline lane.
        plan = FaultPlan(
            specs=[FaultSpec(site="shard.worker", kind="crash", index=1, attempt=None)]
        )
        with fault_plan(plan), pytest.warns(RuntimeWarning):
            recovered = _campaign(retry=retry)
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(recovered, field), err_msg=field
            )
        assert recovered.stats["shard_origins"][1] == "inline"
        assert any(
            e["outcome"] == "recovered-inline" for e in recovered.stats["faults"]
        )

    def test_monitored_fleet_crash_recovery_covers_disturbance_estimate(self):
        from repro.envs import make_disturbance
        from repro.shard import monitor_fleet_sharded

        env = make_environment("satellite")

        def run():
            disturbance = make_disturbance(
                "uniform", env.state_dim, magnitude=0.02, rng=np.random.default_rng(11)
            )
            return monitor_fleet_sharded(
                _make_shield(env),
                episodes=6,
                steps=20,
                seed=3,
                disturbance=disturbance,
                workers=2,
                shards=3,
            )

        baseline = run()
        plan = FaultPlan(
            specs=[FaultSpec(site="shard.worker", kind="crash", index=1, attempt=0)]
        )
        with fault_plan(plan), pytest.warns(RuntimeWarning, match="shard pool recovery"):
            recovered = run()
        np.testing.assert_array_equal(baseline.interventions, recovered.interventions)
        np.testing.assert_array_equal(baseline.model_mismatches, recovered.model_mismatches)
        np.testing.assert_array_equal(baseline.unsafe_steps, recovered.unsafe_steps)
        np.testing.assert_array_equal(
            baseline.peak_barrier_values, recovered.peak_barrier_values
        )
        left, right = baseline.disturbance_estimate, recovered.disturbance_estimate
        assert left is not None and right is not None
        np.testing.assert_array_equal(left.mean, right.mean)
        np.testing.assert_array_equal(left.covariance, right.covariance)
        assert recovered.shard_stats["shard_executions"][1] >= 2

    def test_genuine_worker_exceptions_still_propagate(self):
        env = make_environment("satellite")
        with pytest.raises(ValueError):
            run_sharded_campaign(
                env,
                policy=lambda s: np.zeros(99),  # wrong action shape
                episodes=4,
                steps=10,
                seed=0,
                workers=2,
                shards=2,
            )

    def test_no_fork_platform_falls_back_inline(self, monkeypatch):
        baseline = _campaign(workers=1)
        monkeypatch.setattr(runner_module, "fork_available", lambda: False)
        fallback = _campaign()
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(fallback, field), err_msg=field
            )
        assert fallback.stats["mode"] != "fork-pool"

    def test_executor_creation_failure_recovers_inline(self, monkeypatch):
        baseline = _campaign(workers=1)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", _failed_fork)
        with pytest.warns(RuntimeWarning, match="could not start the fork pool"):
            fallback = _campaign()
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(baseline, field), getattr(fallback, field), err_msg=field
            )
        assert all(origin == "inline" for origin in fallback.stats["shard_origins"])
        assert all(
            e["outcome"] == "recovered-inline" for e in fallback.stats["faults"]
        )

    def test_reused_pool_survives_a_dead_idle_worker(self):
        env = make_environment("satellite")
        with ShardPool(env, shield=_make_shield(env), workers=2, shards=4) as pool:
            first = pool.run_campaign(8, 25, seed=7)
            executor = pool._runner._executor
            os.kill(next(iter(executor._processes)), signal.SIGKILL)
            # Wait until the executor has noticed, so the next submit raises.
            deadline = time.monotonic() + 30.0
            while not executor._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executor._broken
            with pytest.warns(RuntimeWarning, match="shard pool recovery"):
                second = pool.run_campaign(8, 25, seed=7)
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(first, field), getattr(second, field), err_msg=field
            )
        assert first.stats["faults"] == []
        assert any(e["site"] == "shard.worker" for e in second.stats["faults"])


# ------------------------------------------------------- parallel CEGIS slots
class TestCEGISRecovery:
    def _run(self, workers=2, retry=None):
        from repro.baselines import make_lqr_policy
        from repro.core import (
            CEGISConfig,
            CEGISLoop,
            DistanceConfig,
            SynthesisConfig,
            VerificationConfig,
        )

        config = CEGISConfig(
            synthesis=SynthesisConfig(
                iterations=3,
                distance=DistanceConfig(num_trajectories=1, trajectory_length=30),
                seed=0,
            ),
            verification=VerificationConfig(backend="lyapunov"),
            max_counterexamples=4,
            seed=0,
            workers=workers,
        )
        env = make_environment("satellite")
        loop = CEGISLoop(env, make_lqr_policy(env), config=config, retry_policy=retry)
        return loop.run()

    def _assert_recovered(self, baseline, recovered):
        from repro.lang import program_fingerprint

        assert recovered.covered == baseline.covered
        assert program_fingerprint(recovered.program) == program_fingerprint(
            baseline.program
        )
        assert recovered.fault_log
        assert all(e["site"] == "cegis.worker" for e in recovered.fault_log)

    def test_crashed_slot_recovers_bit_identically(self):
        baseline = self._run()
        plan = FaultPlan(
            specs=[FaultSpec(site="cegis.worker", kind="crash", index=0, attempt=None)]
        )
        with fault_plan(plan), pytest.warns(RuntimeWarning, match="CEGIS recovery"):
            recovered = self._run()
        self._assert_recovered(baseline, recovered)
        assert baseline.fault_log == []

    @pytest.mark.parametrize(
        "spec, retry, match, outcome",
        [
            pytest.param(
                FaultSpec(
                    site="cegis.worker", kind="hang", index=1, attempt=0, delay_seconds=3.0
                ),
                RetryPolicy(max_attempts=3, backoff_seconds=0.01, deadline_seconds=1.0),
                "watchdog deadline",
                "retry",
                id="hang",
            ),
            pytest.param(
                FaultSpec(site="cegis.worker", kind="oserror", index=0, attempt=0),
                None,
                "injected transient",
                "retry",
                id="oserror",
            ),
            pytest.param(
                FaultSpec(site="cegis.worker", kind="crash", index=1, attempt=None),
                RetryPolicy(max_attempts=2, backoff_seconds=0.01),
                "CEGIS recovery",
                "recovered-inline",
                id="exhausted-retries",
            ),
        ],
    )
    def test_failed_slot_recovers_bit_identically(self, spec, retry, match, outcome):
        baseline = self._run(retry=retry)
        with fault_plan(FaultPlan(specs=[spec])), pytest.warns(RuntimeWarning, match=match):
            recovered = self._run(retry=retry)
        self._assert_recovered(baseline, recovered)
        assert outcome in {e["outcome"] for e in recovered.fault_log}
        # A crash breaks the whole pool, so in-flight slots may fail with it.
        assert spec.index in {e["index"] for e in recovered.fault_log}

    def test_fork_failure_recovers_inline(self, monkeypatch):
        baseline = self._run()
        monkeypatch.setattr(ProcessPoolExecutor, "submit", _failed_fork)
        with pytest.warns(RuntimeWarning, match="could not start the fork pool"):
            recovered = self._run()
        self._assert_recovered(baseline, recovered)
        assert all(e["outcome"] == "recovered-inline" for e in recovered.fault_log)


# ------------------------------------------------------------------- journals
class TestJournals:
    def test_row_journal_round_trip_preserves_key_order(self, tmp_path):
        path = tmp_path / "rows.journal"
        journal = RowJournal(path, meta={"experiment": "t"})
        assert journal.begin(resume=True) == {}
        row = {"zulu": 1, "alpha": 2.5, "mid": "TO"}
        journal.record("r1", row)
        resumed = RowJournal(path, meta={"experiment": "t"}).begin(resume=True)
        assert resumed == {"r1": row}
        # Insertion order survives the round trip — resumed reports render
        # their columns identically to uninterrupted ones.
        assert list(resumed["r1"]) == ["zulu", "alpha", "mid"]

    def test_fingerprint_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "rows.journal"
        journal = RowJournal(path, meta={"experiment": "a"})
        journal.begin(resume=False)
        journal.record("r1", {"x": 1})
        assert RowJournal(path, meta={"experiment": "a"}).begin(resume=True) == {
            "r1": {"x": 1}
        }
        # Same path, different work: the journal restarts instead of resuming.
        assert RowJournal(path, meta={"experiment": "b"}).begin(resume=True) == {}
        # No resume flag: truncates even when the fingerprint matches.
        journal.record("r1", {"x": 1})
        fresh = RowJournal(path, meta={"experiment": "b"})
        fresh.begin(resume=False)
        assert fresh.begin(resume=True) == {}

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "rows.journal"
        journal = RowJournal(path, meta={})
        journal.begin(resume=False)
        journal.record("r1", {"x": 1})
        journal.record("r2", {"x": 2})
        with open(path, "a") as handle:  # the SIGKILL signature
            handle.write('{"key": "r3", "ro')
        resumed = RowJournal(path, meta={}).begin(resume=True)
        assert set(resumed) == {"r1", "r2"}

    def test_float_values_round_trip_exactly(self, tmp_path):
        path = tmp_path / "rows.journal"
        journal = RowJournal(path, meta={})
        journal.begin(resume=False)
        values = {"a": 0.1 + 0.2, "b": 1e-17, "c": -0.0, "d": 3.37}
        journal.record("r", values)
        resumed = RowJournal(path, meta={}).begin(resume=True)["r"]
        for key, value in values.items():
            assert repr(resumed[key]) == repr(value)

    def test_shard_manifest_keys_by_index(self, tmp_path):
        path = tmp_path / "shards.manifest"
        manifest = ShardManifest(path, meta={"steps": 10})
        manifest.begin(resume=False)
        manifest.append({"index": 3, "views": {}})
        manifest.append({"index": 0, "views": {}})
        resumed = ShardManifest(path, meta={"steps": 10}).begin(resume=True)
        assert set(resumed) == {0, 3}


# -------------------------------------------------------- checkpoint + resume
class TestCampaignResume:
    def test_resume_restores_all_shards_without_execution(self, tmp_path):
        checkpoint = tmp_path / "campaign.manifest"
        first = _campaign(checkpoint=checkpoint)
        resumed = _campaign(checkpoint=checkpoint, resume=True)
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(first, field), getattr(resumed, field), err_msg=field
            )
        assert all(origin == "manifest" for origin in resumed.stats["shard_origins"])
        assert sum(resumed.stats["shard_executions"]) == 0

    def test_partial_manifest_resumes_only_missing_shards(self, tmp_path):
        checkpoint = tmp_path / "campaign.manifest"
        full = _campaign(checkpoint=checkpoint)
        # Drop the last two manifest lines — as if the run was SIGKILLed.
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[:-2]) + "\n")
        resumed = _campaign(checkpoint=checkpoint, resume=True)
        for field in CAMPAIGN_FIELDS:
            np.testing.assert_array_equal(
                getattr(full, field), getattr(resumed, field), err_msg=field
            )
        assert sum(1 for o in resumed.stats["shard_origins"] if o == "manifest") == 2
        assert sum(resumed.stats["shard_executions"]) == 2

    def test_without_resume_flag_checkpoint_is_overwritten(self, tmp_path):
        checkpoint = tmp_path / "campaign.manifest"
        _campaign(checkpoint=checkpoint)
        fresh = _campaign(checkpoint=checkpoint)
        assert all(origin == "fork" for origin in fresh.stats["shard_origins"])

    def test_monitored_fleet_checkpoint_resume(self, tmp_path):
        from repro.shard import monitor_fleet_sharded

        env = make_environment("satellite")
        checkpoint = tmp_path / "monitor.manifest"

        def run(resume):
            return monitor_fleet_sharded(
                _make_shield(env),
                episodes=6,
                steps=20,
                seed=3,
                workers=2,
                shards=3,
                checkpoint=checkpoint,
                resume=resume,
            )

        first = run(False)
        resumed = run(True)
        assert sum(resumed.shard_stats["shard_executions"]) == 0
        np.testing.assert_array_equal(first.interventions, resumed.interventions)
        np.testing.assert_array_equal(first.final_states, resumed.final_states)
        left, right = first.disturbance_estimate, resumed.disturbance_estimate
        assert (left is None) == (right is None)
        if left is not None:
            np.testing.assert_array_equal(left.mean, right.mean)
            np.testing.assert_array_equal(left.covariance, right.covariance)


# -------------------------------------------------------------- sweep resume
class TestSweepResume:
    def test_table1_resumes_only_missing_rows(self, tmp_path, monkeypatch):
        from repro.experiments import table1

        calls = []

        def fake_row(name, scale=None, service=None):
            calls.append(name)
            return {"benchmark": name, "training_s": 1.25, "value": len(name)}

        monkeypatch.setattr(table1, "run_benchmark_row", fake_row)
        journal = tmp_path / "table1.journal"
        names = ["satellite", "dcmotor", "tape"]
        rows = table1.run_table1(names, journal=journal, timing=False)
        assert calls == names
        assert all(row["training_s"] == 0.0 for row in rows)  # timing zeroed

        # Simulate a kill after the first two rows.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        calls.clear()
        resumed = table1.run_table1(names, journal=journal, resume=True, timing=False)
        assert calls == ["tape"]
        assert resumed == rows

    def test_robustness_prepares_each_benchmark_once_and_only_when_needed(
        self, tmp_path, monkeypatch
    ):
        """A benchmark's oracle and shield are made once for all its cells; a
        failed deployment becomes an error row per cell; on resume a
        benchmark whose cells are all journaled is not prepared at all."""
        from repro.experiments import robustness

        prepared = []

        def fake_prepare(benchmark, scale, service):
            prepared.append(benchmark)
            if benchmark == "dcmotor":
                raise RuntimeError("no program")
            return benchmark

        def fake_cell(benchmark, kind, scale, service, magnitude, _deployment):
            assert _deployment == benchmark
            return {"benchmark": benchmark, "disturbance": kind, "monitor_s": 2.5}

        monkeypatch.setattr(robustness, "_prepare_deployment", fake_prepare)
        monkeypatch.setattr(robustness, "run_robustness_cell", fake_cell)
        journal = tmp_path / "robustness.journal"
        kwargs = dict(
            benchmarks=["satellite", "dcmotor", "tape"],
            kinds=["none", "uniform"],
            journal=journal,
            timing=False,
        )
        rows = robustness.run_robustness(**kwargs)
        assert prepared == ["satellite", "dcmotor", "tape"]
        errors = [row.get("error") for row in rows]
        assert errors == [None, None, "no program", "no program", None, None]
        assert rows[0]["monitor_s"] == 0.0  # timing zeroed

        # Simulate a kill after the first three cells.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n")
        prepared.clear()
        resumed = robustness.run_robustness(resume=True, **kwargs)
        assert prepared == ["dcmotor", "tape"]
        assert resumed == rows

    def test_table2_markers_survive_timing_normalization(self):
        from repro.experiments.reporting import normalize_timing

        row = {"verification_s": "TO", "overhead_pct": "-", "campaign_s": 1.5, "n": 3}
        normalized = normalize_timing(row)
        assert normalized == {
            "verification_s": "TO",
            "overhead_pct": "-",
            "campaign_s": 0.0,
            "n": 3,
        }

    def test_journal_meta_fingerprints_scale_changes(self, tmp_path):
        from repro.experiments.reporting import ExperimentScale, open_row_journal

        journal = tmp_path / "sweep.journal"
        first, completed = open_row_journal(
            journal, False, "table1", ExperimentScale.smoke(), ["a", "b"]
        )
        first.record("a", {"x": 1})
        _, resumed = open_row_journal(
            journal, True, "table1", ExperimentScale.smoke(), ["a", "b"]
        )
        assert set(resumed) == {"a"}
        _, foreign = open_row_journal(
            journal, True, "table1", ExperimentScale.medium(), ["a", "b"]
        )
        assert foreign == {}


# ----------------------------------------------------------------- the store
class TestStoreDurability:
    def _artifact(self, seed=0):
        from repro.faults.scenarios import _tiny_artifact

        return _tiny_artifact(seed)

    def test_partial_write_leaves_committed_objects_intact(self, tmp_path):
        from repro.store import ShieldStore

        store = ShieldStore(tmp_path / "store")
        key = store.put(self._artifact(0))
        plan = FaultPlan(specs=[FaultSpec(site="store.put", kind="partial-write")])
        with fault_plan(plan), pytest.raises(OSError, match="injected partial write"):
            store.put(self._artifact(1))
        store.get(key)  # intact
        assert len(list((tmp_path / "store").glob("objects/*/*.tmp"))) == 1
        # Re-opening sweeps our own orphan; a later put succeeds.
        store = ShieldStore(tmp_path / "store")
        assert not list((tmp_path / "store").glob("objects/*/*.tmp"))
        store.get(store.put(self._artifact(1)))

    def test_foreign_live_writer_tmps_are_kept(self, tmp_path):
        from repro.store import ShieldStore
        from repro.store.store import _pid_alive

        store = ShieldStore(tmp_path / "store")
        store.put(self._artifact(0))
        subdir = next((tmp_path / "store" / "objects").iterdir())
        live_foreign = subdir / f"x.json.{1}.tmp"  # pid 1: alive, not ours
        dead_foreign = subdir / "y.json.999999999.tmp"
        legacy = subdir / "z.json.tmp"
        for path in (live_foreign, dead_foreign, legacy):
            path.write_text("partial")
        assert _pid_alive(1)
        ShieldStore(tmp_path / "store")
        assert live_foreign.exists()
        assert not dead_foreign.exists()
        assert not legacy.exists()

    def test_corrupt_read_raises_artifact_error_naming_path_and_key(self, tmp_path):
        from repro.lang import ArtifactError
        from repro.store import CorruptArtifactError, ShieldStore, StoreError

        store = ShieldStore(tmp_path / "store")
        key = store.put(self._artifact(0))
        plan = FaultPlan(specs=[FaultSpec(site="store.get", kind="corrupt-read")])
        with fault_plan(plan), pytest.raises(CorruptArtifactError) as excinfo:
            store.get(key)
        assert excinfo.value.key == key
        assert excinfo.value.path is not None
        assert "corrupt" in str(excinfo.value)
        assert isinstance(excinfo.value, StoreError)
        assert isinstance(excinfo.value, ArtifactError)
        store.get(key)  # transient: on-disk bytes were never touched

    def test_truncated_object_and_fsck_quarantine(self, tmp_path):
        from repro.store import CorruptArtifactError, ShieldStore

        store = ShieldStore(tmp_path / "store")
        good = store.put(self._artifact(0))
        bad = store.put(self._artifact(1))
        victim = store._path_for(bad)
        victim.write_text(victim.read_text()[:50])
        with pytest.raises(CorruptArtifactError):
            store.get(bad)
        ok_keys, corrupt = store.fsck()
        assert ok_keys == [good]
        assert [c["key"] for c in corrupt] == [bad]
        assert corrupt[0]["quarantined"] is None
        assert victim.exists()
        ok_keys, corrupt = store.fsck(delete_corrupt=True)
        assert not victim.exists()
        quarantined = tmp_path / "store" / "quarantine" / f"{bad}.json"
        assert quarantined.exists()
        assert store.put(self._artifact(1)) == bad  # re-put restores
        store.get(bad)


# --------------------------------------------------------------------- chaos
class TestChaos:
    def test_flaky_io_scenario(self, tmp_path):
        with pytest.warns(RuntimeWarning):
            result = run_scenario("flaky-io", seed=0, workdir=tmp_path)
        assert result["ok"], result["detail"]
        assert result["fault_events"]
        assert result["time_to_recover_seconds"] > 0

    def test_corrupt_store_scenario(self, tmp_path):
        result = run_scenario("corrupt-store", seed=0, workdir=tmp_path)
        assert result["ok"], result["detail"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_scenario("meteor-strike")


# ----------------------------------------------------------------------- CLI
class TestCLI:
    def test_chaos_list(self, capsys):
        assert cli_main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("crash-storm", "hang", "flaky-io", "corrupt-store", "kill-resume"):
            assert name in out

    def test_store_verify_fsck(self, tmp_path, capsys):
        from repro.faults.scenarios import _tiny_artifact
        from repro.store import ShieldStore

        root = tmp_path / "store"
        store = ShieldStore(root)
        key = store.put(_tiny_artifact(0))
        assert cli_main(["store", "--store", str(root), "verify"]) == 0
        victim = store._path_for(key)
        victim.write_text(victim.read_text()[:40])
        assert cli_main(["store", "--store", str(root), "verify"]) == 1
        assert cli_main(
            ["store", "--store", str(root), "verify", "--delete-corrupt"]
        ) == 1
        assert (root / "quarantine" / f"{key}.json").exists()
        assert cli_main(["store", "--store", str(root), "verify"]) == 0
        out = capsys.readouterr().out
        assert "quarantine" in out

    def test_experiment_parsers_accept_journal_flags(self):
        parser = build_parser()
        for sweep in ("table1", "table2", "table3", "robustness"):
            args = parser.parse_args(
                [sweep, "--journal", "j.journal", "--resume", "--no-timing"]
            )
            assert args.journal == "j.journal"
            assert args.resume and args.no_timing

    def test_run_parser_accepts_checkpoint_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "run",
                "satellite",
                "--checkpoint",
                "c.manifest",
                "--resume",
                "--max-attempts",
                "5",
                "--deadline",
                "1.5",
            ]
        )
        assert args.checkpoint == "c.manifest"
        assert args.resume and args.max_attempts == 5 and args.deadline == 1.5


# ---------------------------------------------------------------- fuzz family
class TestFaultsFuzzFamily:
    def test_registered_with_required_shape(self):
        from repro.fuzz import FAMILIES

        family = FAMILIES["faults"]
        assert family.weight >= 1

    def test_one_case_holds_and_payload_is_json_ready(self):
        from repro.fuzz import FAMILIES, case_rng

        family = FAMILIES["faults"]
        payload = family.generate(case_rng(0, "faults", 0))
        json.dumps(payload)  # corpus-persistable
        with pytest.warns(RuntimeWarning):
            assert family.check(payload) is None

    def test_shrink_candidates_stay_valid(self):
        from repro.fuzz import FAMILIES, case_rng

        family = FAMILIES["faults"]
        payload = family.generate(case_rng(0, "faults", 1))
        candidates = list(family.shrink_candidates(payload))
        assert candidates
        for candidate in candidates:
            assert candidate["episodes"] >= 1
            assert candidate["shards"] >= 2 or "shards" not in candidate

"""The process counter table (:mod:`repro.obs`) and its trip across forks.

* the arithmetic of ``snapshot``/``delta``/``merge``;
* :class:`~repro.faults.runner.ForkRunner` carries a forked task's counts
  home exactly once, and a resumed task's counts too;
* parallel CEGIS counts the same lookups whether its slots fork or run
  inline.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.baselines import make_lqr_policy
from repro.core import CEGISConfig, CEGISLoop, DistanceConfig, SynthesisConfig
from repro.envs import make_environment
from repro.faults import FaultLog, RetryPolicy
from repro.faults.runner import Done, ForkRunner, fork_available
from repro.lang import AffineProgram
from repro.store import VerdictCache

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs the fork start method")


# ------------------------------------------------------------------ arithmetic
class TestCounterTable:
    def test_delta_holds_only_what_changed_since_the_snapshot(self):
        obs.count("test_obs.before", 3)
        since = obs.snapshot()
        obs.count("test_obs.a")
        obs.count("test_obs.a", 2)
        obs.count("test_obs.b", 0.5)
        assert obs.delta(since) == {"test_obs.a": 3, "test_obs.b": 0.5}

    def test_snapshot_is_a_copy(self):
        since = obs.snapshot()
        since["test_obs.copy"] = 10
        assert "test_obs.copy" not in obs.snapshot()
        assert obs.delta(since) == {}

    def test_merge_adds_a_delta(self):
        since = obs.snapshot()
        obs.merge({"test_obs.merged": 4, "test_obs.other": 1})
        obs.merge({"test_obs.merged": 1})
        assert obs.delta(since) == {"test_obs.merged": 5, "test_obs.other": 1}

    def test_empty_delta_when_nothing_was_counted(self):
        since = obs.snapshot()
        assert obs.delta(since) == {}
        obs.merge({})
        assert obs.delta(since) == {}


# ---------------------------------------------------------------- fork runner
def _counting_task(payload, attempt, inline):
    obs.count("test_obs.task", payload)
    return payload * 10


def _run_tasks(workers, resumed=None):
    runner = ForkRunner(
        _counting_task,
        site="test.obs",
        workers=workers,
        retry=RetryPolicy(),
        label="obs test",
        unit="task",
    )
    since = obs.snapshot()
    try:
        done = runner.run({0: 1, 1: 2, 2: 3}, FaultLog(), 0.0, resumed=resumed)
    finally:
        runner.close()
    return done, obs.delta(since)


class TestForkRunnerCounts:
    def test_inline_tasks_count_once(self):
        done, counts = _run_tasks(workers=1)
        assert {index: d.lane for index, d in done.items()} == dict.fromkeys(range(3), "inline")
        assert counts == {"test_obs.task": 6}
        assert [done[i].counts for i in range(3)] == [
            {"test_obs.task": 1},
            {"test_obs.task": 2},
            {"test_obs.task": 3},
        ]

    @needs_fork
    def test_forked_task_counts_are_merged_into_the_parent(self):
        done, counts = _run_tasks(workers=2)
        assert {d.lane for d in done.values()} == {"fork"}
        assert [done[i].value for i in range(3)] == [10, 20, 30]
        assert counts == {"test_obs.task": 6}
        assert [done[i].counts for i in range(3)] == [
            {"test_obs.task": 1},
            {"test_obs.task": 2},
            {"test_obs.task": 3},
        ]

    def test_resumed_task_counts_are_merged(self):
        resumed = {7: Done("manifest", 70, {"test_obs.task": 7})}
        done, counts = _run_tasks(workers=1, resumed=resumed)
        assert done[7] == resumed[7]
        assert sorted(done) == [0, 1, 2, 7]
        assert counts == {"test_obs.task": 13}


# --------------------------------------------------------------- parallel CEGIS
PARITY_CONFIG = CEGISConfig(
    synthesis=SynthesisConfig(
        iterations=3,
        distance=DistanceConfig(num_trajectories=1, trajectory_length=30),
        seed=0,
    ),
    max_counterexamples=4,
    workers=2,
    seed=0,
)

#: Caches whose entries forked slots do not share: a slot may miss where the
#: inline run hit an entry an earlier slot built, so their lookups (hits +
#: misses) are compared.  Every other count must match exactly.
LOOKUP_TOTALS = ("kernel_cache", "interval_table")
EXACT_COUNTS = (
    "replay.hits",
    "replay.misses",
    "replay.states",
    "verdicts.hits",
    "verdicts.misses",
    "verdicts.puts",
    "prefilter.refuted",
)


def _lookups(counts, cache):
    return counts.get(f"{cache}.hits", 0) + counts.get(f"{cache}.misses", 0)


def _cegis_counts(name, oracle_gain_scale, initial_radius_fraction, fork):
    env = make_environment(name)
    oracle = make_lqr_policy(env)
    if oracle_gain_scale is not None:
        # A destabilizing oracle: candidates fail with concrete unsafe
        # trajectories, so replay hits and the static pre-filter refutes.
        oracle = AffineProgram(gain=oracle_gain_scale * np.abs(oracle.gain))
    config = CEGISConfig(
        **{**PARITY_CONFIG.__dict__, "initial_radius_fraction": initial_radius_fraction}
    )
    since = obs.snapshot()
    with mock.patch("repro.faults.runner.fork_available", lambda: fork):
        result = CEGISLoop(env, oracle, config=config, verdict_cache=VerdictCache()).run()
    return result, obs.delta(since)


@needs_fork
@pytest.mark.parametrize(
    "name, oracle_gain_scale, initial_radius_fraction",
    [("quadcopter", None, 0.4), ("quadcopter", 5.0, None), ("satellite", 5.0, None)],
)
def test_forked_and_inline_cegis_count_the_same(name, oracle_gain_scale, initial_radius_fraction):
    forked, forked_counts = _cegis_counts(name, oracle_gain_scale, initial_radius_fraction, True)
    inline, inline_counts = _cegis_counts(name, oracle_gain_scale, initial_radius_fraction, False)
    # A round had two slots, so the forked run did fork.
    assert forked.counterexamples_used > forked.rounds
    assert forked.covered == inline.covered
    assert forked.failure_reason == inline.failure_reason
    assert (forked.rounds, forked.counterexamples_used) == (
        inline.rounds,
        inline.counterexamples_used,
    )
    assert len(forked.branches) == len(inline.branches)
    assert forked.cache_records == inline.cache_records
    for cache in LOOKUP_TOTALS:
        assert _lookups(forked_counts, cache) == _lookups(inline_counts, cache), cache
    assert _lookups(forked_counts, "interval_table") > 0
    for counter in EXACT_COUNTS:
        assert forked_counts.get(counter, 0) == inline_counts.get(counter, 0), counter
    # The result fields are views of the same counts.
    assert (forked.cache_hits, forked.cache_misses, forked.statically_pruned) == (
        inline.cache_hits,
        inline.cache_misses,
        inline.statically_pruned,
    )
    assert forked.cache_hits == forked_counts.get("replay.hits", 0)
    assert forked.statically_pruned == forked_counts.get("prefilter.refuted", 0)

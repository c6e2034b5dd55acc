"""Fault-recovery overhead and time-to-recover, tracked as ``BENCH_faults.json``.

Two measurements back the robustness claims:

* **Single-crash overhead** — the same sharded campaign runs fault-free and
  with one scripted worker crash (``os._exit(23)`` mid-shard).  Recovery must
  be *bit-identical* on every counter, re-execute only the crashed shard plus
  its in-flight casualties (never the whole run), and finish in under
  ``MAX_SINGLE_CRASH_OVERHEAD``x the fault-free wall clock.
* **Chaos scenarios** — the ``repro chaos`` scenarios (crash storm, hang with
  watchdog recovery, flaky IO) each report their own fault-free/faulty split,
  recovery overhead, and time-to-recover (seconds from run start to the last
  recovery action), all recorded in the artifact.

Sizes are overridable for CI smoke runs: ``REPRO_FAULT_BENCH_EPISODES``
(default 20000 — large enough that shard compute, not pool spawn cost,
dominates the overhead ratio), ``REPRO_FAULT_BENCH_STEPS`` (default 50), and
``REPRO_FAULT_BENCH_SCENARIOS`` (default ``crash-storm,hang,flaky-io``; the
``kill-resume`` scenario also runs here when listed, at the cost of two
subprocess sweeps).

Run directly (``PYTHONPATH=src python benchmarks/test_fault_recovery.py``) or
via pytest; both refresh the artifact at the repository root.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
from hostinfo import host_metadata

from repro.core import Shield
from repro.envs import make_environment
from repro.faults import FaultPlan, FaultSpec, fault_plan, run_scenario
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.shard import ShardPool

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_faults.json"
ENV_NAME = "pendulum"
EPISODES = int(os.environ.get("REPRO_FAULT_BENCH_EPISODES", "20000"))
STEPS = int(os.environ.get("REPRO_FAULT_BENCH_STEPS", "50"))
SCENARIOS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_FAULT_BENCH_SCENARIOS", "crash-storm,hang,flaky-io"
    ).split(",")
    if name.strip()
)
WORKERS = 2
SHARDS = 4
CRASH_SHARD = 2
SEED = 0

#: A single worker crash may cost at most this factor over the fault-free run.
MAX_SINGLE_CRASH_OVERHEAD = 2.0

CAMPAIGN_FIELDS = ("total_rewards", "unsafe_counts", "interventions", "steady_at")


def _make_shield(env, seed: int = 0) -> Shield:
    rng = np.random.default_rng(seed)
    d, m = env.state_dim, env.action_dim
    scale = env.action_high if env.action_high is not None else np.ones(m)
    network = MLP(d, (48, 32), m, output_scale=scale, seed=seed)
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


def _run(env):
    shield = _make_shield(env, seed=SEED)
    start = time.perf_counter()
    with ShardPool(env, shield=shield, workers=WORKERS, shards=SHARDS) as pool:
        result = pool.run_campaign(EPISODES, STEPS, seed=SEED)
    return result, time.perf_counter() - start


def _single_crash_row(env) -> dict:
    _run(env)  # warm the kernel cache so both timed runs see the same state
    baseline, fault_free_s = _run(env)
    plan = FaultPlan(
        specs=[FaultSpec(site="shard.worker", kind="crash", index=CRASH_SHARD, attempt=0)]
    )
    with fault_plan(plan), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        recovered, faulty_s = _run(env)
    identical = all(
        np.array_equal(getattr(baseline, field), getattr(recovered, field))
        for field in CAMPAIGN_FIELDS
    )
    events = recovered.stats["faults"]
    executions = recovered.stats["shard_executions"]
    return {
        "episodes": EPISODES,
        "steps": STEPS,
        "workers": WORKERS,
        "shards": SHARDS,
        "crashed_shard": CRASH_SHARD,
        "fault_free_seconds": round(fault_free_s, 4),
        "faulty_seconds": round(faulty_s, 4),
        "overhead": round(faulty_s / fault_free_s, 4),
        "time_to_recover_seconds": round(
            max((event["at_seconds"] for event in events), default=0.0), 4
        ),
        "bit_identical": identical,
        "shard_executions": executions,
        "retried_shards": sum(1 for count in executions if count > 1),
        "fault_events": events,
    }


def _scenario_row(name: str) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_scenario(name, seed=SEED)


def measure_recovery() -> dict:
    env = make_environment(ENV_NAME)
    return {
        "env": ENV_NAME,
        "host": host_metadata(),
        "single_crash": _single_crash_row(env),
        "scenarios": [_scenario_row(name) for name in SCENARIOS],
    }


def write_artifact(payload: dict) -> None:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def _check(payload: dict) -> None:
    crash = payload["single_crash"]
    assert crash["bit_identical"], "recovered campaign diverged from fault-free run"
    assert crash["fault_events"], "the scripted crash never fired"
    assert crash["shard_executions"][CRASH_SHARD] >= 2
    # Only the crashed shard and its in-flight casualties re-ran.
    assert crash["retried_shards"] < SHARDS
    assert crash["overhead"] < MAX_SINGLE_CRASH_OVERHEAD, (
        f"single-crash recovery cost {crash['overhead']:.2f}x "
        f"(bar {MAX_SINGLE_CRASH_OVERHEAD}x; "
        f"{crash['fault_free_seconds']:.2f}s -> {crash['faulty_seconds']:.2f}s)"
    )
    for scenario in payload["scenarios"]:
        assert scenario["ok"], (scenario["scenario"], scenario["detail"])


def test_fault_recovery_artifact():
    payload = measure_recovery()
    write_artifact(payload)
    _check(payload)


if __name__ == "__main__":
    payload = measure_recovery()
    write_artifact(payload)
    _check(payload)
    print(json.dumps(payload, indent=2))

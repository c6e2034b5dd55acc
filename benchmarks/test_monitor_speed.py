"""Batched vs. scalar *monitored* campaign speedup, tracked as ``BENCH_monitor.json``.

Fleet monitoring adds bookkeeping on top of the rollout spine — executed-action
prediction verdicts, invariant-excursion checks, barrier values, residual
accumulation for the disturbance estimate — so its speedup is pinned separately
from the bare rollout benchmark: the same 100-episode x 250-step monitored
campaign runs through the sequential :func:`repro.reference.monitor_episode`
reference and the
:func:`repro.runtime.monitor_fleet` lockstep engine, and the measured speedup is
recorded at the repository root.

Run directly (``PYTHONPATH=src python benchmarks/test_monitor_speed.py``) or
via pytest; both refresh the artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from hostinfo import host_metadata

from repro.core import Shield
from repro.envs import make_environment
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.reference import monitor_episode, shard_streams
from repro.rl import train_oracle
from repro.runtime import monitor_fleet

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_monitor.json"
ENVIRONMENTS = ("pendulum", "satellite")
EPISODES = 100
STEPS = 250

_PROGRAM_GAINS = {
    "pendulum": [[-12.05, -5.87]],
    "satellite": [[-2.5, -2.0]],
}
_BARRIER_WEIGHTS = {
    "pendulum": [1.0, 0.5],
    "satellite": [1.0, 1.0],
}


def _make_shield(env, oracle) -> Shield:
    program = AffineProgram(gain=_PROGRAM_GAINS[env.name], names=env.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.diag(_BARRIER_WEIGHTS[env.name])) - 0.2,
        names=env.state_names,
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=env.state_names)
    return Shield(
        env=env,
        neural_policy=oracle,
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=False,
    )


def measure_monitoring_speedup(env_name: str, episodes: int = EPISODES, steps: int = STEPS) -> dict:
    """Time the same monitored campaign through the scalar and batched engines."""
    env = make_environment(env_name)
    oracle = train_oracle(env, hidden_sizes=(48, 32), seed=0).policy

    # Sequential reference: one monitored episode at a time over the same
    # shard plan (generators and initial states) the batched fleet will see.
    shield = _make_shield(env, oracle)
    streams = list(shard_streams(env, episodes, np.random.default_rng(0)))
    start = time.perf_counter()
    reports = [
        monitor_episode(shield, steps=steps, rng=generator, initial_state=s0)
        for _shard, generator, states in streams
        for s0 in states
    ]
    scalar_seconds = time.perf_counter() - start

    shield = _make_shield(env, oracle)
    start = time.perf_counter()
    fleet = monitor_fleet(
        shield, episodes=episodes, steps=steps, rng=np.random.default_rng(0)
    )
    batched_seconds = time.perf_counter() - start

    scalar_interventions = sum(r.interventions for r in reports)
    scalar_mismatches = sum(r.model_mismatches for r in reports)
    scalar_excursions = sum(r.invariant_excursions for r in reports)
    assert fleet.decisions == sum(r.decisions for r in reports)
    return {
        "env": env_name,
        "episodes": episodes,
        "steps": steps,
        "scalar_seconds": round(scalar_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(scalar_seconds / batched_seconds, 2),
        "interventions_scalar": scalar_interventions,
        "interventions_batched": fleet.total_interventions,
        "mismatches_scalar": scalar_mismatches,
        "mismatches_batched": fleet.total_model_mismatches,
        "excursions_scalar": scalar_excursions,
        "excursions_batched": fleet.total_invariant_excursions,
    }


def write_artifact(rows) -> None:
    payload = {"host": host_metadata(), "campaigns": list(rows)}
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def test_batched_monitoring_speedup_artifact():
    rows = [measure_monitoring_speedup(name) for name in ENVIRONMENTS]
    write_artifact(rows)
    for row in rows:
        # The acceptance bar: monitoring a 100x250 fleet in lockstep must be at
        # least 10x faster than the sequential monitor.
        assert row["speedup"] >= 10.0, row
        # Same campaign, same seed, disturbance-free envs: identical counters.
        assert row["interventions_scalar"] == row["interventions_batched"], row
        assert row["mismatches_scalar"] == row["mismatches_batched"], row
        assert row["excursions_scalar"] == row["excursions_batched"], row


if __name__ == "__main__":
    rows = [measure_monitoring_speedup(name) for name in ENVIRONMENTS]
    write_artifact(rows)
    print(json.dumps({"campaigns": rows}, indent=2))

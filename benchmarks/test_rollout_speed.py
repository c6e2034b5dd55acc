"""Batched vs. scalar campaign speedup, tracked as a ``BENCH_rollout.json`` artifact.

The batched rollout engine advances all episodes of a campaign in lockstep
instead of looping states one at a time; this benchmark runs the same
100-episode x 250-step *shielded* campaign through both paths on a linear and
a nonlinear benchmark and records the speedup, so the performance trajectory
of the rollout spine is pinned from this PR onward.

Run directly (``PYTHONPATH=src python benchmarks/test_rollout_speed.py``) or
via pytest; both refresh the artifact at the repository root.
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
from repro.reference import evaluate_policy_scalar
from repro.rl import train_oracle
from repro.runtime import EvaluationProtocol, evaluate_policy

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_rollout.json"
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


def measure_campaign_speedup(env_name: str, episodes: int = EPISODES, steps: int = STEPS) -> dict:
    """Time the same shielded campaign through the scalar and batched engines."""
    env = make_environment(env_name)
    oracle = train_oracle(env, hidden_sizes=(48, 32), seed=0).policy
    protocol = EvaluationProtocol(episodes=episodes, steps=steps, seed=0)

    shield = _make_shield(env, oracle)
    start = time.perf_counter()
    scalar_metrics = evaluate_policy_scalar(env, shield, protocol, shield=shield)
    scalar_seconds = time.perf_counter() - start

    shield = _make_shield(env, oracle)
    start = time.perf_counter()
    batched_metrics = evaluate_policy(env, shield, protocol, shield=shield)
    batched_seconds = time.perf_counter() - start

    assert scalar_metrics.total_decisions == batched_metrics.total_decisions
    return {
        "env": env_name,
        "episodes": episodes,
        "steps": steps,
        "scalar_seconds": round(scalar_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(scalar_seconds / batched_seconds, 2),
        "interventions_scalar": scalar_metrics.interventions,
        "interventions_batched": batched_metrics.interventions,
    }


def write_artifact(rows) -> None:
    payload = {"host": host_metadata(), "campaigns": list(rows)}
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def test_batched_campaign_speedup_artifact():
    rows = [measure_campaign_speedup(name) for name in ENVIRONMENTS]
    write_artifact(rows)
    for row in rows:
        # The whole point of the batched engine: a shielded deployment
        # campaign must be at least 5x faster than the sequential reference.
        assert row["speedup"] >= 5.0, row
        # Same campaign, same seed, disturbance-free envs: identical decisions.
        assert row["interventions_scalar"] == row["interventions_batched"], row


if __name__ == "__main__":
    rows = [measure_campaign_speedup(name) for name in ENVIRONMENTS]
    write_artifact(rows)
    print(json.dumps({"campaigns": rows}, indent=2))

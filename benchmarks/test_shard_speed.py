"""Sharded fleet scaling curves → ``BENCH_shard.json``.

Runs the same 10^4-episode shielded campaign (and a monitored fleet alongside)
at 1/2/4/8 workers and records episodes/sec per worker count.  Two claims are
checked, with very different strictness:

* **Counters are worker-count invariant** — every row's unsafe, intervention,
  and steady counters (and the monitor's mismatch/excursion counters and
  disturbance estimate) must be *bit-identical* to the ``workers=1`` row.
  This is asserted unconditionally: it is the sharded runtime's correctness
  contract and holds on any machine.
* **Throughput scales** — ≥1.7x at 2 workers and ≥3x at 8 on the shielded
  campaign.  Speedup is only asserted when the machine actually exposes that
  many cores (the ``host`` header's ``cpus``); a 1-core CI runner still produces the
  artifact and the identity assertions, but cannot meaningfully gate scaling.

Row sizes and worker counts are overridable for CI smoke runs:
``REPRO_SHARD_BENCH_EPISODES`` (default 10000), ``REPRO_SHARD_BENCH_STEPS``
(default 100), ``REPRO_SHARD_BENCH_WORKERS`` (default ``1,2,4,8``).

Run directly (``PYTHONPATH=src python benchmarks/test_shard_speed.py``) or via
pytest; both refresh the artifact at the repository root.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from hostinfo import host_metadata

from repro.core import Shield
from repro.envs import make_disturbance, make_environment
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.shard import ShardPool

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_shard.json"
ENV_NAME = "pendulum"
EPISODES = int(os.environ.get("REPRO_SHARD_BENCH_EPISODES", "10000"))
STEPS = int(os.environ.get("REPRO_SHARD_BENCH_STEPS", "100"))
WORKER_COUNTS = tuple(
    int(w) for w in os.environ.get("REPRO_SHARD_BENCH_WORKERS", "1,2,4,8").split(",")
)
SEED = 0

#: Scaling bars, gated on the machine actually exposing that many cores.
MIN_SPEEDUP = {2: 1.7, 4: 2.2, 8: 3.0}


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


def _campaign_counters(result) -> dict:
    return {
        "unsafe_steps": int(np.sum(result.unsafe_counts)),
        "failures": result.failures,
        "interventions": result.interventions,
        "steady_episodes": int(np.sum(result.steady_at >= 0)),
        "reward_sum": float(np.sum(result.total_rewards)),
    }


def _monitor_counters(report) -> dict:
    estimate = report.disturbance_estimate
    return {
        "interventions": report.total_interventions,
        "mismatches": report.total_model_mismatches,
        "excursions": report.total_invariant_excursions,
        "unsafe_steps": int(np.sum(report.unsafe_steps)),
        "peak_barrier_sum": float(np.sum(report.peak_barrier_values)),
        "estimate_mean": None if estimate is None else [float(v) for v in estimate.mean],
    }


def _shielded_row(env, workers: int) -> dict:
    shield = _make_shield(env, seed=SEED)
    start = time.perf_counter()
    with ShardPool(env, shield=shield, workers=workers) as pool:
        result = pool.run_campaign(EPISODES, STEPS, seed=SEED)
    elapsed = time.perf_counter() - start
    return {
        "workers": workers,
        "seconds": round(elapsed, 4),
        "episodes_per_second": round(EPISODES / elapsed, 1),
        "mode": result.stats["mode"],
        "counters": _campaign_counters(result),
    }


def _monitored_row(env, workers: int) -> dict:
    shield = _make_shield(env, seed=SEED)
    disturbance = make_disturbance(
        "uniform", env.state_dim, magnitude=0.02, rng=np.random.default_rng(SEED + 1)
    )
    start = time.perf_counter()
    with ShardPool(env, shield=shield, workers=workers) as pool:
        report = pool.run_monitored(EPISODES, STEPS, seed=SEED, disturbance=disturbance)
    elapsed = time.perf_counter() - start
    return {
        "workers": workers,
        "seconds": round(elapsed, 4),
        "episodes_per_second": round(EPISODES / elapsed, 1),
        "mode": report.shard_stats["mode"],
        "counters": _monitor_counters(report),
    }


def measure_scaling() -> dict:
    env = make_environment(ENV_NAME)
    shielded = [_shielded_row(env, workers) for workers in WORKER_COUNTS]
    monitored = [_monitored_row(env, workers) for workers in WORKER_COUNTS]
    return {
        "env": ENV_NAME,
        "episodes": EPISODES,
        "steps": STEPS,
        "host": host_metadata(),
        "shielded": shielded,
        "monitored": monitored,
    }


def write_artifact(payload: dict) -> None:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def _check(payload: dict) -> None:
    cpus = payload["host"]["cpus"]
    for section in ("shielded", "monitored"):
        rows = payload[section]
        reference = rows[0]
        assert reference["workers"] == min(WORKER_COUNTS)
        for row in rows:
            # Worker-count invariance: every counter identical to the first row.
            assert row["counters"] == reference["counters"], (section, row["workers"])
        if section != "shielded":
            continue
        for row in rows[1:]:
            bar = MIN_SPEEDUP.get(row["workers"])
            if bar is None or cpus < row["workers"]:
                continue  # not enough cores to gate this row's scaling
            speedup = reference["seconds"] / row["seconds"]
            assert speedup >= bar, (
                f"{row['workers']} workers: {speedup:.2f}x < {bar}x "
                f"({reference['seconds']:.2f}s -> {row['seconds']:.2f}s)"
            )


def test_sharded_scaling_artifact():
    payload = measure_scaling()
    write_artifact(payload)
    _check(payload)


if __name__ == "__main__":
    payload = measure_scaling()
    write_artifact(payload)
    _check(payload)
    print(json.dumps(payload, indent=2))

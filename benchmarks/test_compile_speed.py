"""Compiled vs. interpreted-batched campaign speedup → ``BENCH_compile.json``.

PR 1's batched engine advanced campaigns in lockstep but still *interpreted*
the artifacts: each step re-walked expression trees, evaluated barrier
polynomials through ``np.power`` tables, and crossed the policy → shield → env
dispatch boundary with a double dynamics evaluation.  The compiled execution
layer (``repro.compile``) lowers those artifacts once and fuses the whole
closed-loop step; this benchmark runs the same 100-episode × 250-step
*shielded* campaign through both engines (the interpreted one from
:mod:`repro.reference.campaigns`) and records the wall-clock ratio.

The acceptance bar is ≥ 3x on the high-dimensional benchmarks (4/8-car
platoon, oscillator), where the interpreted path's per-step overhead dominates
hardest; the low-dimensional rows (satellite, pendulum, cartpole) are recorded
for the full picture but not ratio-asserted — their compiled advantage is a
few tens of ms, too small a margin to gate CI on a shared runner.  Counters
must be *identical* between the two engines on every row — same
interventions, same unsafe steps — which is what makes the ratio a pure
execution-layer comparison.

Run directly (``PYTHONPATH=src python benchmarks/test_compile_speed.py``) or
via pytest; both refresh the artifact at the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from hostinfo import host_metadata

from repro.compile import kernel_cache_stats
from repro.core import Shield
from repro.envs import make_environment
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.reference import evaluate_policy_interpreted
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.runtime import EvaluationProtocol, evaluate_policy

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_compile.json"
EPISODES = 100
STEPS = 250

#: Envs that must clear the 3x acceptance bar, and record-only context rows.
FAST_ENVS = ("4_car_platoon", "8_car_platoon", "oscillator")
CONTEXT_ENVS = ("satellite", "pendulum", "cartpole")
MIN_SPEEDUP_FAST = 3.0


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


def _run(env, protocol, evaluate):
    """One shielded campaign through ``evaluate``; best of two runs."""
    best = float("inf")
    metrics = None
    for _ in range(2):
        shield = _make_shield(env)
        start = time.perf_counter()
        metrics = evaluate(env, shield, protocol, shield=shield)
        best = min(best, time.perf_counter() - start)
    return best, metrics


def measure_compile_speedup(env_name: str, episodes: int = EPISODES, steps: int = STEPS) -> dict:
    env = make_environment(env_name)
    protocol = EvaluationProtocol(episodes=episodes, steps=steps, seed=0)
    interpreted_seconds, interpreted_metrics = _run(env, protocol, evaluate_policy_interpreted)
    compiled_seconds, compiled_metrics = _run(env, protocol, evaluate_policy)
    unsafe_interpreted = sum(e.unsafe_steps for e in interpreted_metrics.episodes)
    unsafe_compiled = sum(e.unsafe_steps for e in compiled_metrics.episodes)
    return {
        "env": env_name,
        "episodes": episodes,
        "steps": steps,
        "interpreted_seconds": round(interpreted_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "speedup": round(interpreted_seconds / compiled_seconds, 2),
        "interventions_interpreted": interpreted_metrics.interventions,
        "interventions_compiled": compiled_metrics.interventions,
        "unsafe_interpreted": unsafe_interpreted,
        "unsafe_compiled": unsafe_compiled,
    }


def write_artifact(rows) -> None:
    payload = {
        "host": host_metadata(),
        "campaigns": list(rows),
        "kernel_cache": kernel_cache_stats(),
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")


def test_compiled_campaign_speedup_artifact():
    rows = [measure_compile_speedup(name) for name in FAST_ENVS + CONTEXT_ENVS]
    write_artifact(rows)
    for row in rows:
        # The execution layers must be observationally equivalent: identical
        # shield interventions and unsafe-step counters on the same seed.
        assert row["interventions_interpreted"] == row["interventions_compiled"], row
        assert row["unsafe_interpreted"] == row["unsafe_compiled"], row
        if row["env"] in FAST_ENVS:
            assert row["speedup"] >= MIN_SPEEDUP_FAST, row


if __name__ == "__main__":
    all_rows = [measure_compile_speedup(name) for name in FAST_ENVS + CONTEXT_ENVS]
    write_artifact(all_rows)
    print(json.dumps({"campaigns": all_rows}, indent=2))

"""Parallel + replay-cached CEGIS speedup, tracked as ``BENCH_synthesis.json``.

The scenario is chosen to stress the verification hot path the replay cache
short-circuits: a *marginally overshooting* satellite controller (gain
``[-12, 0]``, damping ratio ≈ 0.03) is safe near the origin but rings out of
the safe box from outer initial states.  Candidate programs imitate it, so
every large-radius region fails verification — and with a degree-6 invariant
sketch each such failure costs a full (time-bounded) barrier search, while a
replay hit costs one batched rollout.  The same CEGIS run is timed under
``workers ∈ {1, 4}`` × ``replay cache ∈ {on, off}``.  Replay always runs in
the product; the cache-off reference runs patch
:meth:`CounterexampleCache.replay` to miss without counting:

* all four configurations must reach the **identical safety verdict**;
* cache-on must reproduce the cache-off branch programs **bit-identically**
  (the cache is verdict-preserving by construction);
* the parallel multi-branch configuration must be **≥ 2x** faster with the
  cache than without it (measured ≈ 6-20x; the cache replays witnesses that
  the prewarm probe and earlier failures collected).

Run directly (``PYTHONPATH=src python benchmarks/test_synthesis_speed.py``)
or via pytest; both refresh the artifact at the repository root, under the
shared ``host`` header of :mod:`hostinfo`.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

from hostinfo import host_metadata

from repro.certificates.barrier import BarrierSynthesisConfig
from repro.core import (
    CEGISConfig,
    CEGISLoop,
    CounterexampleCache,
    DistanceConfig,
    SynthesisConfig,
    VerificationConfig,
)
from repro.envs import make_environment
from repro.lang import AffineProgram, program_fingerprint

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_synthesis.json"

#: Marginally overshooting attitude controller (see module docstring).
OVERSHOOT_GAIN = [[-12.0, 0.0]]
SEED = 6

BASE_CONFIG = CEGISConfig(
    synthesis=SynthesisConfig(
        iterations=3,
        distance=DistanceConfig(num_trajectories=1, trajectory_length=40),
        seed=SEED,
    ),
    verification=VerificationConfig(
        backend="auto",
        invariant_degree=6,
        barrier=BarrierSynthesisConfig(max_refinements=2, lp_time_limit_seconds=3.0),
        verifier_max_boxes=4000,
    ),
    max_counterexamples=8,
    max_shrink_iterations=6,
    min_radius_fraction=0.04,
    seed=SEED,
    replay_horizon=500,
)

#: ``(label, workers, replay cache on)``.
CONFIGURATIONS = (
    ("workers1_nocache", 1, False),
    ("workers1_cache", 1, True),
    ("workers4_nocache", 4, False),
    ("workers4_cache", 4, True),
)


def run_configuration(workers: int, replay: bool) -> tuple:
    env = make_environment("satellite")
    oracle = AffineProgram(gain=OVERSHOOT_GAIN)
    config = replace(BASE_CONFIG, workers=workers)
    start = time.perf_counter()
    with contextlib.nullcontext() if replay else mock.patch.object(
        CounterexampleCache, "replay", lambda self, env, program, region: None
    ):
        result = CEGISLoop(env, oracle, config=config).run()
    return result, time.perf_counter() - start


def measure() -> dict:
    rows = {"host": host_metadata()}
    results = {}
    for label, workers, replay in CONFIGURATIONS:
        result, seconds = run_configuration(workers, replay)
        results[label] = result
        rows[label] = {
            "workers": result.workers,
            "replay_cache": replay,
            "wall_clock_seconds": round(seconds, 3),
            "covered": result.covered,
            "program_size": result.program_size,
            "counterexamples_used": result.counterexamples_used,
            "rounds": result.rounds,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        }
    rows["speedup_workers1"] = round(
        rows["workers1_nocache"]["wall_clock_seconds"]
        / rows["workers1_cache"]["wall_clock_seconds"],
        2,
    )
    rows["speedup_workers4"] = round(
        rows["workers4_nocache"]["wall_clock_seconds"]
        / rows["workers4_cache"]["wall_clock_seconds"],
        2,
    )
    return rows, results


def write_artifact(rows: dict) -> None:
    ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")


def test_synthesis_speedup_artifact():
    rows, results = measure()
    write_artifact(rows)

    # Identical safety verdicts in every configuration.
    verdicts = {label: results[label].covered for label, _workers, _replay in CONFIGURATIONS}
    assert len(set(verdicts.values())) == 1, verdicts

    # The cache is verdict-preserving by construction: cache-on reproduces the
    # cache-off branch programs bit for bit (one worker).
    plain = results["workers1_nocache"].branches
    cached = results["workers1_cache"].branches
    assert len(plain) == len(cached)
    for branch_plain, branch_cached in zip(plain, cached):
        assert program_fingerprint(branch_plain.program) == program_fingerprint(
            branch_cached.program
        )

    # The parallel run is the multi-branch one (its rounds keep verifying
    # other regions while a corner region fails), and the replay cache must
    # deliver at least the 2x end-to-end speedup the service layer promises.
    assert results["workers4_cache"].program_size >= 2, rows["workers4_cache"]
    assert results["workers4_cache"].cache_hits >= 1
    assert rows["speedup_workers4"] >= 2.0, rows
    assert rows["speedup_workers1"] >= 2.0, rows


if __name__ == "__main__":
    measured, _results = measure()
    write_artifact(measured)
    print(json.dumps(measured, indent=2))

"""Verification-kernel speed: auto dispatch + verdict cache, tracked as
``BENCH_verification.json``.

Two effects are measured on a fixed query (the satellite benchmark under its
LQR teacher program, re-verified from the full initial region):

* **auto vs single backend** — ``backend="auto"`` runs ``lyapunov`` first on
  a linear closed loop (then ``barrier`` only if that fails), so on a linear
  plant it answers at Lyapunov cost (microseconds) while a pinned sampled-LP
  backend pays the full search; every backend must return the same verdict;
* **verdict cache on vs off** — re-verifying the identical (program,
  environment, init box, config) query with a store-backed
  :class:`~repro.store.VerdictCache` must be served from cache with a
  bit-identical outcome, turning repeat sweeps into JSON reads.

The cached repeat must be ≥ 5x faster than the fresh barrier proof (measured
≈ 100-1000x), and auto must not be slower than the most expensive single
backend (``portfolio_vs_worst_single`` in the artifact).

Run directly (``PYTHONPATH=src python benchmarks/test_verification_speed.py``)
or via pytest; both refresh the artifact at the repository root, under the
shared ``host`` header of :mod:`hostinfo`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from hostinfo import host_metadata

from repro import obs
from repro.baselines import make_lqr_policy
from repro.certificates import backend_names
from repro.core import VerificationConfig, verify_program
from repro.envs import make_environment
from repro.lang import AffineProgram
from repro.store import VerdictCache

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_verification.json"

REPEATS = 3


def _query():
    env = make_environment("satellite")
    program = AffineProgram(gain=make_lqr_policy(env).gain)
    return env, program


def _timed_verify(env, program, config, verdict_cache=None):
    start = time.perf_counter()
    outcome = verify_program(env, program, config=config, verdict_cache=verdict_cache)
    return outcome, time.perf_counter() - start


def measure(tmp_dir: Path) -> tuple:
    env, program = _query()
    rows: dict = {"host": host_metadata(), "query": "satellite/LQR over S0", "backends": {}}
    outcomes = {}

    for name in ["auto"] + backend_names():
        outcome, seconds = _timed_verify(env, program, VerificationConfig(backend=name))
        outcomes[name] = outcome
        rows["backends"][name] = {
            "verified": outcome.verified,
            "winning_backend": outcome.backend,
            "attempts": list(outcome.attempts),
            "wall_clock_seconds": round(seconds, 6),
        }

    single_costs = [
        rows["backends"][name]["wall_clock_seconds"] for name in backend_names()
    ]
    rows["portfolio_vs_worst_single"] = round(
        max(single_costs) / max(rows["backends"]["auto"]["wall_clock_seconds"], 1e-9), 2
    )

    # Verdict cache: fresh barrier proof vs cached repeats of the same query.
    cache = VerdictCache(tmp_dir / "verdicts")
    config = VerificationConfig(backend="barrier")
    since = obs.snapshot()
    fresh, fresh_seconds = _timed_verify(env, program, config, verdict_cache=cache)
    repeat_seconds = []
    cached_outcomes = []
    for _ in range(REPEATS):
        outcome, seconds = _timed_verify(env, program, config, verdict_cache=cache)
        cached_outcomes.append(outcome)
        repeat_seconds.append(seconds)
    counts = obs.delta(since)
    nocache_seconds = []
    for _ in range(REPEATS):
        _outcome, seconds = _timed_verify(env, program, config)
        nocache_seconds.append(seconds)
    rows["verdict_cache"] = {
        "fresh_seconds": round(fresh_seconds, 6),
        "cached_repeat_seconds": [round(s, 6) for s in repeat_seconds],
        "uncached_repeat_seconds": [round(s, 6) for s in nocache_seconds],
        "hits": counts.get("verdicts.hits", 0),
        "misses": counts.get("verdicts.misses", 0),
        "speedup": round(min(nocache_seconds) / max(min(repeat_seconds), 1e-9), 2),
    }
    return rows, outcomes, fresh, cached_outcomes


def write_artifact(rows: dict) -> None:
    ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")


def test_verification_speed_artifact(tmp_path):
    rows, outcomes, fresh, cached = measure(tmp_path)
    write_artifact(rows)

    # Every backend agrees with auto on the verdict.
    verdicts = {name: outcome.verified for name, outcome in outcomes.items()}
    assert all(verdicts.values()), verdicts

    # Auto answers at cheapest-backend cost: never slower than the most
    # expensive single backend (in practice it is orders of magnitude
    # faster, because lyapunov wins the dispatch on a linear plant).
    assert rows["portfolio_vs_worst_single"] >= 1.0, rows
    assert rows["backends"]["auto"]["winning_backend"] == "lyapunov"

    # Cached repeats are served from the store with bit-identical outcomes.
    assert all(outcome.from_cache for outcome in cached)
    for outcome in cached:
        assert outcome.verified == fresh.verified
        assert outcome.backend == fresh.backend
        assert outcome.invariant == fresh.invariant
    assert rows["verdict_cache"]["hits"] == REPEATS
    assert rows["verdict_cache"]["speedup"] >= 5.0, rows["verdict_cache"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        measured, *_rest = measure(Path(tmp))
    write_artifact(measured)
    print(json.dumps(measured, indent=2))

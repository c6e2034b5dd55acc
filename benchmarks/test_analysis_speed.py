"""Static-analysis throughput + CEGIS pre-filter savings → ``BENCH_analysis.json``.

Two measurements:

* **lint throughput** — `lint_store` over the committed counterexample-corpus
  store (every diagnostic A001-A007 runs per artifact), reported as
  artifacts/second.  Linting must stay cheap enough to gate every
  ``ShieldStore.put``.
* **CEGIS static pre-filter** — the same destabilizing-oracle CEGIS run with
  the interval pre-filter on and off (the filter always runs in the product;
  the filter-off reference run patches its call site to refute nothing).
  The filter must save at least one
  full verification call (``statically_pruned > 0``) while reproducing the
  filter-off branches, failure reason, and counterexample count
  bit-identically; wall-clock for both runs is recorded.

Run directly (``PYTHONPATH=src python benchmarks/test_analysis_speed.py``) or
via pytest; both refresh the artifact at the repository root.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from unittest import mock

import numpy as np
from hostinfo import host_metadata

from repro.analysis import lint_store
from repro.baselines import make_lqr_policy
from repro.core import CEGISConfig, CEGISLoop, SynthesisConfig
from repro.envs import make_environment
from repro.lang import program_fingerprint
from repro.store import ShieldStore

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_analysis.json"
CORPUS_STORE = Path(__file__).resolve().parents[1] / "tests" / "data" / "counterexamples" / "store"

LINT_PASSES = 25

BASE_CONFIG = CEGISConfig(
    seed=8,
    synthesis=SynthesisConfig(iterations=5, warm_start_samples=200),
    replay_prewarm_samples=0,
    max_counterexamples=1,
    max_shrink_iterations=1,
    initial_radius_fraction=0.0625,
)


def measure_lint() -> dict:
    store = ShieldStore(CORPUS_STORE)
    start = time.perf_counter()
    for _ in range(LINT_PASSES):
        results = lint_store(store)
    seconds = time.perf_counter() - start
    artifacts = len(results) * LINT_PASSES
    return {
        "store_artifacts": len(results),
        "lint_passes": LINT_PASSES,
        "total_seconds": round(seconds, 3),
        "artifacts_per_second": round(artifacts / seconds, 1),
        "all_clean": all(report.clean for _entry, report in results),
    }


def run_prefilter(enabled: bool):
    env = make_environment("satellite")
    bad_gain = 5.0 * np.abs(make_lqr_policy(env).gain)

    def oracle(state):
        return bad_gain @ np.asarray(state, dtype=float)

    start = time.perf_counter()
    with contextlib.nullcontext() if enabled else mock.patch(
        "repro.core.cegis.statically_refuted", lambda *args, **kwargs: None
    ):
        result = CEGISLoop(env, oracle, config=BASE_CONFIG).run()
    return result, time.perf_counter() - start


def measure_prefilter() -> tuple:
    on, on_seconds = run_prefilter(True)
    off, off_seconds = run_prefilter(False)
    rows = {
        "prefilter_on": {
            "wall_clock_seconds": round(on_seconds, 3),
            "statically_pruned": on.statically_pruned,
            "covered": on.covered,
            "counterexamples_used": on.counterexamples_used,
        },
        "prefilter_off": {
            "wall_clock_seconds": round(off_seconds, 3),
            "statically_pruned": off.statically_pruned,
            "covered": off.covered,
            "counterexamples_used": off.counterexamples_used,
        },
        "verification_calls_saved": on.statically_pruned,
    }
    return rows, on, off


def write_artifact(rows: dict) -> None:
    ARTIFACT.write_text(json.dumps({"host": host_metadata(), **rows}, indent=2) + "\n")


def test_analysis_speed_artifact():
    lint_rows = measure_lint()
    prefilter_rows, on, off = measure_prefilter()
    write_artifact({"lint": lint_rows, "cegis_prefilter": prefilter_rows})

    # The committed corpus must stay lint-clean, and linting must stay cheap
    # enough to run on every store write.
    assert lint_rows["all_clean"]
    assert lint_rows["artifacts_per_second"] >= 10.0, lint_rows

    # The filter saves at least one verification call and is bit-preserving.
    assert on.statically_pruned > 0
    assert off.statically_pruned == 0
    assert on.covered == off.covered
    assert on.failure_reason == off.failure_reason
    assert on.counterexamples_used == off.counterexamples_used
    assert len(on.branches) == len(off.branches)
    for branch_on, branch_off in zip(on.branches, off.branches):
        assert program_fingerprint(branch_on.program) == program_fingerprint(
            branch_off.program
        )


if __name__ == "__main__":
    lint_rows = measure_lint()
    prefilter_rows, _on, _off = measure_prefilter()
    payload = {"lint": lint_rows, "cegis_prefilter": prefilter_rows}
    write_artifact(payload)
    print(json.dumps(payload, indent=2))

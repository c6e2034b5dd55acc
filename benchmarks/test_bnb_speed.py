"""Branch-and-bound engine speed: vectorized frontier vs the scalar reference
(:mod:`repro.reference.bnb`), tracked as ``BENCH_bnb.json``.

Four rows of verification queries are timed under both engines:

* ``platoon8_decrease`` — the 8-dimensional car-platoon Lyapunov-decrease
  condition constrained away from the origin; interval bounds stay
  inconclusive so the search exhausts its full box budget (the worst case
  for the scalar engine: one Python iteration per box);
* ``satellite_disturbed_condition10`` — the lifted (state, disturbance)
  product-box induction query of condition (10), a 4-variable constrained
  query that explores tens of thousands of boxes before refuting;
* ``satellite_bad_gain_refuted`` — a deliberately destabilizing gain whose
  decrease condition is genuinely violated, terminating early with a
  counterexample (guards the cheap-query path from batching overhead);
* ``pendulum_fixture_init`` — the init condition (9) of each of the six
  branches of the committed ``perfbench/fixtures/pendulum`` shield (read,
  never written), each branch's barrier proved ``<= 0`` on its synthesis
  region.  These proofs reach the resolution limit, so the row tracks how
  many limit boxes rest on sampling rather than on a bound.

Because both engines share the same batch-size-independent numeric kernels
and the same canonical breadth-first frontier order, every query must agree
*exactly* — verdict, counterexample, ``boxes_explored``,
``max_depth_reached``, ``sampled_boxes`` — and the frontier engine must be
at least 3x faster on at least one hard row (measured ≈ 100-250x on the
platoon and condition-(10) rows).  A row of several queries records their
total boxes and sampled boxes, whether all verified, and the first
counterexample.

Run directly (``PYTHONPATH=src python benchmarks/test_bnb_speed.py``) or via
pytest; both refresh the artifact at the repository root, under the shared
``host`` header of :mod:`hostinfo`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from hostinfo import host_metadata

from repro.baselines import make_lqr_policy
from repro.certificates import Box, BranchAndBoundVerifier
from repro.envs import make_environment
from repro.lang import AffineProgram
from repro.polynomials import Polynomial
from repro.reference import ScalarBranchAndBoundVerifier
from repro.store import ShieldStore, branch_regions

ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = ROOT / "BENCH_bnb.json"
#: The committed seed-0 pendulum shield of the perfbench ``deploy-fleet`` workload.
PENDULUM_FIXTURE = ROOT / "perfbench" / "fixtures" / "pendulum"
PENDULUM_FIXTURE_KEY = "5ff41ebebc94ad7d450d85dfbdb562dab5b71a1ddda70292f7907d62168e4ba4"

MIN_SPEEDUP = 3.0


def _lyapunov_decrease(env, program):
    closed_loop = env.closed_loop_polynomials(program)
    value = Polynomial.quadratic_form(np.eye(env.state_dim))
    return value.substitute(closed_loop) - value, value


def _platoon_query():
    env = make_environment("8_car_platoon")
    program = AffineProgram(gain=make_lqr_policy(env).gain)
    decrease, value = _lyapunov_decrease(env, program)
    return {
        "label": "platoon8_decrease",
        "parts": [(decrease, [env.safe_box], [0.01 - value])],
        "kwargs": {"max_boxes": 5_000, "min_width": 1e-9},
    }


def _condition_ten_query():
    env = make_environment("satellite", disturbance_bound=[0.02, 0.02])
    program = AffineProgram(gain=make_lqr_policy(env).gain)
    closed_loop = env.closed_loop_polynomials(program)
    n = env.state_dim
    lift = [Polynomial.variable(i, 2 * n) for i in range(n)]
    barrier = Polynomial.quadratic_form(np.eye(n)) - 0.5
    successors = [
        poly.substitute(lift) + env.dt * Polynomial.variable(n + i, 2 * n)
        for i, poly in enumerate(closed_loop)
    ]
    bound = np.asarray(env.disturbance_bound, dtype=float)
    product_box = Box(
        low=tuple(env.safe_box.low) + tuple(-bound),
        high=tuple(env.safe_box.high) + tuple(bound),
    )
    return {
        "label": "satellite_disturbed_condition10",
        "parts": [(barrier.substitute(successors), [product_box], [barrier.substitute(lift)])],
        "kwargs": {"max_boxes": 20_000, "min_width": 0.01},
    }


def _bad_gain_query():
    env = make_environment("satellite")
    gain = 5.0 * np.ones((env.action_dim, env.state_dim))
    decrease, value = _lyapunov_decrease(env, AffineProgram(gain=gain))
    return {
        "label": "satellite_bad_gain_refuted",
        "parts": [(decrease, [env.safe_box], [value - 0.25])],
        "kwargs": {"max_boxes": 50_000, "min_width": 1e-4},
    }


def _pendulum_init_query():
    artifact = ShieldStore(PENDULUM_FIXTURE).get(PENDULUM_FIXTURE_KEY)
    members = artifact.invariant.members
    return {
        "label": "pendulum_fixture_init",
        "parts": [
            (member.barrier, [region], [])
            for member, region in zip(members, branch_regions(artifact))
        ],
        "kwargs": {"max_boxes": 120_000, "min_width": 0.04},
    }


def _timed_prove(query, engine):
    """The row's results, one per query part, and their total seconds."""
    verifier = engine(**query["kwargs"])
    start = time.perf_counter()
    results = [
        verifier.prove_nonpositive(target, boxes, constraints)
        for target, boxes, constraints in query["parts"]
    ]
    return results, time.perf_counter() - start


def measure() -> tuple:
    rows: dict = {"host": host_metadata(), "min_speedup_required": MIN_SPEEDUP, "queries": {}}
    results = {}
    queries = (_platoon_query(), _condition_ten_query(), _bad_gain_query(), _pendulum_init_query())
    for query in queries:
        scalar, scalar_seconds = _timed_prove(query, ScalarBranchAndBoundVerifier)
        frontier, frontier_seconds = _timed_prove(query, BranchAndBoundVerifier)
        results[query["label"]] = (scalar, frontier)
        counterexample = next(
            (part.counterexample for part in frontier if part.counterexample is not None), None
        )
        rows["queries"][query["label"]] = {
            "verified": all(part.verified for part in frontier),
            "boxes_explored": sum(part.boxes_explored for part in frontier),
            "max_depth_reached": any(part.max_depth_reached for part in frontier),
            "sampled_boxes": sum(part.sampled_boxes for part in frontier),
            "counterexample": (
                None if counterexample is None else [float(v) for v in counterexample]
            ),
            "scalar_seconds": round(scalar_seconds, 6),
            "frontier_seconds": round(frontier_seconds, 6),
            "speedup": round(scalar_seconds / max(frontier_seconds, 1e-9), 2),
        }
    rows["best_speedup"] = max(row["speedup"] for row in rows["queries"].values())
    return rows, results


def write_artifact(rows: dict) -> None:
    ARTIFACT.write_text(json.dumps(rows, indent=2) + "\n")


def _assert_identical(scalar, frontier, label):
    assert scalar.verified == frontier.verified, label
    assert scalar.boxes_explored == frontier.boxes_explored, label
    assert scalar.max_depth_reached == frontier.max_depth_reached, label
    assert scalar.sampled_boxes == frontier.sampled_boxes, label
    if scalar.counterexample is None or frontier.counterexample is None:
        assert scalar.counterexample is None and frontier.counterexample is None, label
    else:
        assert np.array_equal(scalar.counterexample, frontier.counterexample), label


def test_bnb_speed_artifact():
    rows, results = measure()
    write_artifact(rows)

    # The engines agree exactly on every query — the speedup is free of any
    # semantic drift.
    for label, (scalar, frontier) in results.items():
        assert len(scalar) == len(frontier), label
        for index, (scalar_part, frontier_part) in enumerate(zip(scalar, frontier)):
            _assert_identical(scalar_part, frontier_part, f"{label}[{index}]")

    # The hard rows terminate the way they were designed to.
    (platoon,) = results["platoon8_decrease"][1]
    assert not platoon.verified
    assert platoon.max_depth_reached
    assert platoon.boxes_explored == 5_000
    (bad_gain,) = results["satellite_bad_gain_refuted"][1]
    assert not bad_gain.verified
    assert bad_gain.counterexample is not None
    pendulum = results["pendulum_fixture_init"][1]
    assert len(pendulum) == 6 and all(part.verified for part in pendulum)

    # At least one hard query shows the headline win.
    assert rows["best_speedup"] >= MIN_SPEEDUP, rows


if __name__ == "__main__":
    measured, _results = measure()
    write_artifact(measured)
    print(json.dumps(measured, indent=2))

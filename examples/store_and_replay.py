"""Walkthrough: the shield artifact store, parallel CEGIS, and replay cache.

This example runs the full service-layer loop on the satellite benchmark:

1. synthesize a shield through :class:`~repro.store.SynthesisService` with
   ``workers=2`` and the counterexample replay cache enabled, persisting the
   result (program + invariant union + provenance) into a content-addressed
   :class:`~repro.store.ShieldStore`;
2. ask the service for the *same* shield again — a store hit that skips
   CEGIS entirely and deserializes in milliseconds;
3. re-check the stored shield against the paper's conditions (8)-(10)
   without re-running synthesis (what ``repro audit <key> --store DIR`` does);
4. demonstrate the replay cache: record a trajectory witness from a
   destabilizing candidate and watch it refute the next candidate by a
   single batched rollout instead of a certificate search.

Run with ``PYTHONPATH=src python examples/store_and_replay.py``.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import obs
from repro.baselines import make_lqr_policy
from repro.certificates import audit_shield
from repro.core import (
    CEGISConfig,
    CounterexampleCache,
    DistanceConfig,
    SynthesisConfig,
    VerificationConfig,
)
from repro.envs import make_environment
from repro.lang import AffineProgram
from repro.store import ShieldStore, SynthesisService, branch_regions, resolve_shield


def main() -> int:
    env = make_environment("satellite")
    oracle = make_lqr_policy(env)
    config = CEGISConfig(
        synthesis=SynthesisConfig(
            iterations=5,
            distance=DistanceConfig(num_trajectories=2, trajectory_length=40),
        ),
        verification=VerificationConfig(backend="lyapunov"),
        max_counterexamples=4,
    )

    store_dir = tempfile.mkdtemp(prefix="repro_store_")
    store = ShieldStore(store_dir)
    service = SynthesisService(store=store, workers=2)

    # -- 1. synthesize once, persist with provenance -----------------------
    first = service.synthesize(env, oracle, config=config, environment="satellite")
    print(f"synthesized: {first.program_size} branch(es) in {first.total_seconds:.2f}s")
    print(f"stored as    {first.key[:12]} under {store.root}")
    print(f"provenance   {first.artifact.metadata}")

    # -- 2. the same request again is a store hit --------------------------
    second = service.synthesize(env, oracle, config=config, environment="satellite")
    print(
        f"reloaded     from_store={second.from_store} in {second.total_seconds*1e3:.1f} ms"
        f" (no CEGIS ran)"
    )

    # -- 3. re-check the stored shield, no synthesis -----------------------
    stored = resolve_shield(first.key, store)
    reports = audit_shield(
        stored.env, stored.artifact.program, regions=branch_regions(stored.artifact)
    )
    all_ok = all(report.all_hold for report in reports)
    print(f"re-verified  {'PASS' if all_ok else 'FAIL'} ({len(reports)} branch(es))")

    # -- 4. the replay cache in isolation ----------------------------------
    cache = CounterexampleCache(environment="satellite", horizon=300)
    unstable = AffineProgram(gain=-4.0 * np.asarray(oracle.gain))
    cache.probe(env, unstable, env.init_region)  # harvest witnesses by simulation
    since = obs.snapshot()
    refuter = cache.replay(env, unstable, env.init_region)
    hits = obs.delta(since).get("replay.hits", 0)
    print(
        f"replay       {cache.witness_count} witness(es); candidate refuted from "
        f"{np.round(refuter, 3).tolist()} (hits={hits}) — verification skipped"
    )
    safe_check = cache.replay(env, oracle, env.init_region)
    print(f"replay       safe program not refuted (result={safe_check}) — verifier runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

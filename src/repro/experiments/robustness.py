"""Robustness sweep: disturbance classes × registry environments.

For every benchmark the sweep synthesizes (or reloads from the store) a shield,
then deploys it as a monitored batched fleet under each disturbance class —
including classes the shield was *not* synthesized for (uniform box noise,
truncated-Gaussian sensor noise, sinusoidal "road curvature" with per-episode
phases).  Each row reports the fleet's intervention/mismatch/excursion counts,
the runtime multivariate-normal disturbance estimate, and whether the deployed
certificate can still be re-derived under the estimated (widened) bound — the
trigger signal of the adaptive maintenance loop
(:func:`~repro.runtime.adaptation.adapt_shield`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..envs.disturbance import DISTURBANCE_KINDS, make_disturbance
from ..envs.registry import get_benchmark, make_environment
from ..rl.training import train_oracle
from ..runtime.adaptation import recheck_certificate, widened_environment
from ..runtime.monitored import monitor_fleet
from ..store import SynthesisService, branch_regions
from .reporting import ExperimentScale, Row, normalize_timing, open_row_journal

__all__ = ["ROBUSTNESS_BENCHMARKS", "run_robustness_cell", "run_robustness"]

#: Default environment slice: one per dynamics family, kept small enough for CI.
ROBUSTNESS_BENCHMARKS = ("satellite", "dcmotor", "suspension", "pendulum", "oscillator")


def _prepare_deployment(benchmark: str, scale: ExperimentScale, service: SynthesisService):
    """Train the benchmark's oracle and obtain its shield (store hit or CEGIS)."""
    spec = get_benchmark(benchmark)
    env = make_environment(benchmark)
    oracle = train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    config = scale.cegis_config(
        backend=spec.certificate_backend, invariant_degree=spec.invariant_degree
    )
    result = service.synthesize(env, oracle, config=config, environment=benchmark)
    return env, result, config


def run_robustness_cell(
    benchmark: str,
    kind: str,
    scale: ExperimentScale | None = None,
    service: SynthesisService | None = None,
    magnitude: float = 0.05,
    recheck: bool = True,
    _deployment=None,
) -> Row:
    """One sweep cell: deploy ``benchmark``'s shield under disturbance ``kind``."""
    scale = scale or ExperimentScale.smoke()
    service = service or SynthesisService()
    try:
        env, result, config = _deployment or _prepare_deployment(benchmark, scale, service)
    except RuntimeError as error:
        return {"benchmark": benchmark, "disturbance": kind, "error": str(error)[:100]}

    rng = np.random.default_rng(scale.seed)
    model = make_disturbance(
        kind, env.state_dim, magnitude=magnitude, episodes=scale.episodes, rng=rng
    )
    report = monitor_fleet(
        result.shield,
        episodes=scale.episodes,
        steps=scale.steps,
        rng=rng,
        disturbance=model,
        workers=scale.workers,
    )
    row: Row = {
        "benchmark": benchmark,
        "disturbance": kind,
        "episodes": report.episodes,
        "interventions": report.total_interventions,
        "mismatches": report.total_model_mismatches,
        "excursions": report.total_invariant_excursions,
        "failures": report.failures,
        "model_bound": round(float(np.max(model.bound())), 4),
        "estimated_bound": (
            round(float(np.max(report.disturbance_estimate.bound)), 4)
            if report.disturbance_estimate is not None
            else None
        ),
    }
    if recheck and report.disturbance_estimate is not None:
        widened = widened_environment(env, report.disturbance_estimate.bound)
        cache = getattr(service, "verdict_cache", None)
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        valid, outcomes = recheck_certificate(
            widened,
            result.shield,
            verification=config.verification,
            verdict_cache=cache,
            regions=branch_regions(result.artifact),
        )
        row["certificate_valid"] = valid
        # Every kernel verdict on a disturbed environment models the widened
        # bound (disturbance-blind backends are never dispatched); surface the
        # backend provenance instead of a blindness flag.
        row["recheck_backends"] = ",".join(outcome.backend for outcome in outcomes)
        if cache is not None:
            row["verdict_hits"] = cache.hits - hits_before
            row["verdict_misses"] = cache.misses - misses_before
    return row


def run_robustness(
    benchmarks: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    scale: ExperimentScale | None = None,
    store=None,
    magnitude: float = 0.05,
    recheck: bool = True,
    journal=None,
    resume: bool = False,
    timing: bool = True,
) -> List[Row]:
    """The full sweep (one row per benchmark × disturbance class).

    With a ``journal``, every finished cell is checkpointed; on ``resume`` a
    benchmark whose cells are all journaled skips oracle training and shield
    synthesis entirely.
    """
    scale = scale or ExperimentScale.smoke()
    service = SynthesisService(store=store) if store is not None else SynthesisService()
    bench_names = list(benchmarks or ROBUSTNESS_BENCHMARKS)
    kind_names = list(kinds or DISTURBANCE_KINDS)
    keys = [f"{b}:{k}" for b in bench_names for k in kind_names]
    row_journal, completed = open_row_journal(
        journal, resume, "robustness", scale, keys, store
    )
    rows: List[Row] = []
    for benchmark in bench_names:
        pending_kinds = [k for k in kind_names if f"{benchmark}:{k}" not in completed]
        if not pending_kinds:
            # Every cell of this benchmark is journaled; skip oracle training
            # and synthesis entirely.
            rows.extend(completed[f"{benchmark}:{k}"] for k in kind_names)
            continue
        try:
            deployment = _prepare_deployment(benchmark, scale, service)
        except RuntimeError as error:
            for kind in kind_names:
                key = f"{benchmark}:{kind}"
                if key in completed:
                    rows.append(completed[key])
                    continue
                row = {"benchmark": benchmark, "disturbance": kind, "error": str(error)[:100]}
                rows.append(row)
                if row_journal is not None:
                    row_journal.record(key, row)
            continue
        for kind in kind_names:
            key = f"{benchmark}:{kind}"
            if key in completed:
                rows.append(completed[key])
                continue
            row = run_robustness_cell(
                benchmark,
                kind,
                scale=scale,
                service=service,
                magnitude=magnitude,
                recheck=recheck,
                _deployment=deployment,
            )
            if not timing:
                row = normalize_timing(row)
            rows.append(row)
            if row_journal is not None:
                row_journal.record(key, row)
    return rows

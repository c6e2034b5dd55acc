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

from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..envs.disturbance import DISTURBANCE_KINDS, make_disturbance
from ..envs.registry import get_benchmark, make_environment
from ..rl.training import train_oracle
from ..runtime.adaptation import recheck_certificate, widened_environment
from ..runtime.monitored import monitor_fleet
from ..store import SynthesisService, branch_regions
from .reporting import ExperimentScale, Row, run_sweep

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
    if report.disturbance_estimate is not None:
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
    journal=None,
    resume: bool = False,
    timing: bool = True,
) -> List[Row]:
    """The full sweep (one row per benchmark × disturbance class).

    Each benchmark trains its oracle and obtains its shield once, on its
    first cell that is not journaled already, so on ``resume`` a benchmark
    whose cells are all journaled skips both.
    """
    scale = scale or ExperimentScale.smoke()
    service = SynthesisService(store=store)
    deployments: Dict[str, object] = {}

    def cell(benchmark: str, kind: str) -> Row:
        if benchmark not in deployments:
            try:
                deployments[benchmark] = _prepare_deployment(benchmark, scale, service)
            except RuntimeError as error:
                deployments[benchmark] = error
        deployment = deployments[benchmark]
        if isinstance(deployment, RuntimeError):
            return {"benchmark": benchmark, "disturbance": kind, "error": str(deployment)[:100]}
        return run_robustness_cell(
            benchmark, kind, scale, service, magnitude, _deployment=deployment
        )

    cells = [
        (f"{benchmark}:{kind}", partial(cell, benchmark, kind))
        for benchmark in benchmarks or ROBUSTNESS_BENCHMARKS
        for kind in kinds or DISTURBANCE_KINDS
    ]
    return run_sweep("robustness", scale, cells, store, journal, resume, timing)

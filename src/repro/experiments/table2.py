"""Table 2: effect of the invariant degree bound on verification time,
interventions, and shield overhead.

The paper sweeps degrees {2, 4, 8} on Pendulum, Self-Driving, and 8-Car platoon
and reports verification time (or TO), intervention counts, and overhead.  The
expected shape: higher degree → more permissive invariant → fewer interventions
but slower verification and higher per-decision overhead; too low a degree →
no invariant found (TO).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

from ..envs.registry import get_benchmark
from ..rl.training import train_oracle
from ..runtime.simulation import compare_shielded
from ..store import SynthesisService
from .reporting import ExperimentScale, Row, run_sweep

__all__ = ["run_degree_row", "run_table2"]

TABLE2_BENCHMARKS: Sequence[str] = ("pendulum", "self_driving", "8_car_platoon")
TABLE2_DEGREES: Sequence[int] = (2, 4, 8)


def run_degree_row(
    name: str,
    degree: int,
    scale: ExperimentScale | None = None,
    service: SynthesisService | None = None,
) -> Row:
    """One (benchmark, invariant degree) cell of Table 2.

    The store key includes the config hash, so each degree sweep cell is
    cached independently by a store-backed ``service``.
    """
    scale = scale or ExperimentScale.smoke()
    spec = get_benchmark(name)
    env = spec.make()
    oracle = train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    config = scale.cegis_config(backend="barrier", invariant_degree=degree)
    service = service or SynthesisService()
    try:
        shield_result = service.synthesize(
            env,
            oracle,
            config=config,
            environment=name,
            extra_metadata={"experiment": "table2", "invariant_degree": degree},
        )
    except RuntimeError as error:
        return {
            "benchmark": name,
            "degree": degree,
            "verification_s": "TO",
            "interventions": "-",
            "overhead_pct": "-",
            "note": str(error)[:80],
        }
    comparison = compare_shielded(env, oracle, shield_result.shield, scale.protocol())
    if shield_result.cegis is not None:
        verification_seconds = sum(
            b.verification_seconds for b in shield_result.cegis.branches
        )
    else:  # reloaded from the store: no verification ran in this process
        verification_seconds = 0.0
    return {
        "benchmark": name,
        "degree": degree,
        "verification_s": round(verification_seconds, 2),
        "from_store": shield_result.from_store,
        "interventions": comparison.shielded.interventions,
        "overhead_pct": round(100.0 * comparison.overhead, 2),
        "program_size": shield_result.program_size,
    }


def run_table2(
    benchmarks: Optional[Sequence[str]] = None,
    degrees: Optional[Sequence[int]] = None,
    scale: ExperimentScale | None = None,
    store=None,
    journal=None,
    resume: bool = False,
    timing: bool = True,
) -> List[Row]:
    scale = scale or ExperimentScale.smoke()
    service = SynthesisService(store=store) if store is not None else None
    cells = [
        (f"{name}:{degree}", partial(run_degree_row, name, degree, scale, service=service))
        for name in (benchmarks or TABLE2_BENCHMARKS)
        for degree in (degrees or TABLE2_DEGREES)
    ]
    return run_sweep("table2", scale, cells, store, journal, resume, timing)

"""Table 3: handling environment changes without retraining the network.

The paper takes controllers trained in one environment, perturbs the
environment (longer pole, heavier/longer pendulum, an obstacle on the road),
and shows that re-synthesizing a shield for the *new* environment — while
keeping the original neural oracle — is much cheaper than retraining, and that
the new shield removes the failures the stale oracle now exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..envs.cartpole import make_cartpole
from ..envs.driving import make_self_driving
from ..envs.pendulum import make_pendulum
from ..rl.training import train_oracle
from ..runtime.simulation import compare_shielded
from ..store import SynthesisService
from .reporting import ExperimentScale, Row, run_sweep

__all__ = ["ENVIRONMENT_CHANGES", "run_environment_change", "run_table3"]


@dataclass
class EnvironmentChange:
    """A Table 3 scenario: train in ``original``, deploy+shield in ``changed``."""

    name: str
    description: str
    original: Callable[[], object]
    changed: Callable[[], object]
    invariant_degree: int = 4
    backend: str = "barrier"


ENVIRONMENT_CHANGES: Dict[str, EnvironmentChange] = {
    "cartpole_pole_length": EnvironmentChange(
        name="cartpole_pole_length",
        description="Increased pole length by 0.15 m",
        original=lambda: make_cartpole(pole_length=0.5),
        changed=lambda: make_cartpole(pole_length=0.65),
        invariant_degree=2,
    ),
    "pendulum_mass": EnvironmentChange(
        name="pendulum_mass",
        description="Increased pendulum mass by 0.3 kg",
        original=lambda: make_pendulum(safe_angle_deg=30.0, mass=1.0),
        changed=lambda: make_pendulum(safe_angle_deg=30.0, mass=1.3),
    ),
    "pendulum_length": EnvironmentChange(
        name="pendulum_length",
        description="Increased pendulum length by 0.15 m",
        original=lambda: make_pendulum(safe_angle_deg=30.0, length=0.5),
        changed=lambda: make_pendulum(safe_angle_deg=30.0, length=0.65),
    ),
    "self_driving_obstacle": EnvironmentChange(
        name="self_driving_obstacle",
        description="Added an obstacle that must be avoided",
        original=lambda: make_self_driving(obstacle=False),
        changed=lambda: make_self_driving(obstacle=True),
        invariant_degree=2,
        backend="auto",
    ),
}


def run_environment_change(
    key: str,
    scale: ExperimentScale | None = None,
    service: SynthesisService | None = None,
) -> Row:
    """One Table 3 row: reuse the original oracle, synthesize a shield for the change.

    The changed environments are ad-hoc (factory closures, not registry
    names), so store entries are keyed by the scenario name recorded in the
    artifact metadata rather than by a reconstructable environment id.
    """
    scale = scale or ExperimentScale.smoke()
    change = ENVIRONMENT_CHANGES[key]
    original_env = change.original()
    changed_env = change.changed()

    oracle_result = train_oracle(
        original_env,
        method=scale.oracle_method,
        hidden_sizes=scale.oracle_hidden,
        seed=scale.seed,
    )
    oracle = oracle_result.policy

    config = scale.cegis_config(
        backend=change.backend, invariant_degree=change.invariant_degree
    )
    service = service or SynthesisService()
    try:
        shield_result = service.synthesize(
            changed_env,
            oracle,
            config=config,
            environment=f"table3:{change.name}",
            extra_metadata={"experiment": "table3", "scenario": change.name},
        )
    except RuntimeError as error:
        return {"change": change.description, "error": str(error)[:120]}
    comparison = compare_shielded(changed_env, oracle, shield_result.shield, scale.protocol())
    synthesis_seconds = (
        shield_result.stored_synthesis_seconds
        if shield_result.from_store
        else shield_result.synthesis_seconds
    )
    return {
        "change": change.description,
        "nn_size": oracle_result.network_size,
        "training_s": round(oracle_result.training_seconds, 2),
        "nn_failures": comparison.neural.failures,
        "program_size": shield_result.program_size,
        "synthesis_s": round(synthesis_seconds, 2),
        "from_store": shield_result.from_store,
        "overhead_pct": round(100.0 * comparison.overhead, 2),
        "interventions": comparison.shielded.interventions,
        "shielded_failures": comparison.shielded.failures,
        "retrain_cheaper_than_resynthesis": synthesis_seconds
        < oracle_result.training_seconds,
    }


def run_table3(
    changes: Optional[Sequence[str]] = None,
    scale: ExperimentScale | None = None,
    store=None,
    journal=None,
    resume: bool = False,
    timing: bool = True,
) -> List[Row]:
    scale = scale or ExperimentScale.smoke()
    service = SynthesisService(store=store) if store is not None else None
    cells = [
        (key, partial(run_environment_change, key, scale, service=service))
        for key in changes or ENVIRONMENT_CHANGES
    ]
    return run_sweep("table3", scale, cells, store, journal, resume, timing)

"""Figure 3: invariant inference on the inverted pendulum, original vs. restricted safety.

Fig. 3(a) shows the inductive invariant found for the 90°-safety pendulum;
Fig. 3(b) shows the new, smaller invariant required when the environment is
restricted to 30° (the Segway scenario), together with the §2.2 statistics:
without the new shield the pendulum entered the unsafe region in some episodes,
with it none; the intervention rate is a tiny fraction of all decisions.

Because no plotting library is available the figure is regenerated as *data*:
for each variant we return the synthesized invariant (printable polynomial),
a rasterised membership grid over the (η, ω) plane, and the shielded-run
statistics.  The grid can be rendered with any external plotting tool.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.toolchain import synthesize_shield
from ..envs.pendulum import make_pendulum
from ..rl.training import train_oracle
from ..runtime.simulation import compare_shielded
from .reporting import ExperimentScale, Row

__all__ = ["run_fig3_variant", "run_fig3"]

FIG3_VARIANTS: Sequence[float] = (90.0, 30.0)


def invariant_grid(invariant, box, resolution: int = 41) -> np.ndarray:
    """Boolean membership grid of the invariant over a 2-D box (for plotting)."""
    grid_points = box.grid(resolution)
    return invariant.holds_batch(grid_points).reshape(resolution, resolution)


def run_fig3_variant(safe_angle_deg: float, scale: ExperimentScale | None = None) -> Dict:
    """Synthesize the shield for one safety variant and collect figure data."""
    scale = scale or ExperimentScale.smoke()
    env = make_pendulum(safe_angle_deg=safe_angle_deg)
    oracle = train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    config = scale.cegis_config(backend="barrier", invariant_degree=4)
    shield_result = synthesize_shield(env, oracle, config=config)
    comparison = compare_shielded(env, oracle, shield_result.shield, scale.protocol())
    return {
        "safe_angle_deg": safe_angle_deg,
        "invariant": shield_result.invariant,
        "invariant_pretty": shield_result.invariant.pretty(),
        "grid": invariant_grid(shield_result.invariant, env.domain),
        "program": shield_result.pretty_program(),
        "neural_failures": comparison.neural.failures,
        "shielded_failures": comparison.shielded.failures,
        "interventions": comparison.shielded.interventions,
        "decisions": comparison.shielded.total_decisions,
    }


def run_fig3(
    variants: Optional[Sequence[float]] = None, scale: ExperimentScale | None = None
) -> List[Row]:
    """Both panels of Fig. 3 as summary rows (grids attached under 'grid')."""
    rows: List[Row] = []
    for angle in variants or FIG3_VARIANTS:
        data = run_fig3_variant(angle, scale)
        covered = int(np.sum(data["grid"]))
        total = data["grid"].size
        rows.append(
            {
                "safe_angle_deg": angle,
                "invariant_cells": covered,
                "domain_cells": total,
                "invariant_fraction": covered / total,
                "neural_failures": data["neural_failures"],
                "shielded_failures": data["shielded_failures"],
                "interventions": data["interventions"],
                "decisions": data["decisions"],
                "intervention_rate": (
                    data["interventions"] / data["decisions"] if data["decisions"] else 0.0
                ),
            }
        )
    return rows

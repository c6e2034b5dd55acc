"""Figure 6 / Example 4.3: CEGIS on the Duffing oscillator.

The paper walks through the counterexample-guided loop on the Duffing
oscillator: the first synthesized linear policy is verified only on a
sub-region of S0, a counterexample initial state drives the synthesis of a
second policy, and the union of the two invariants covers S0, yielding the
two-branch guarded program ``P_oscillator`` shown in the example.

This module reproduces that trace: it returns the per-branch programs and
invariants, membership grids over the (x, y) plane for plotting, and checks the
final coverage of S0.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.cegis import CEGISLoop
from ..envs.duffing import make_duffing
from ..rl.training import train_oracle
from .fig3 import invariant_grid
from .reporting import ExperimentScale

__all__ = ["run_fig6"]


def run_fig6(scale: ExperimentScale | None = None) -> Dict:
    """Run CEGIS on the Duffing oscillator and collect the Fig. 6 trace data."""
    scale = scale or ExperimentScale.smoke()
    env = make_duffing()
    oracle = train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    config = scale.cegis_config(backend="barrier", invariant_degree=4)
    result = CEGISLoop(env, oracle, config=config).run()

    branches = []
    for branch in result.branches:
        branches.append(
            {
                "program": branch.program.pretty(env.state_names),
                "invariant": branch.invariant.pretty(),
                "counterexample": branch.counterexample.tolist(),
                "region": repr(branch.region),
                "grid": invariant_grid(branch.invariant, env.domain),
                "verification_backend": branch.verification_backend,
            }
        )

    init_samples = env.init_region.grid(21)
    covered = (
        result.invariant.holds_batch(init_samples) if result.branches else np.zeros(len(init_samples), dtype=bool)
    )
    return {
        "covered": result.covered,
        "num_branches": result.program_size if result.branches else 0,
        "branches": branches,
        "program": result.program.pretty(env.state_names) if result.branches else "",
        "init_grid_coverage": float(np.mean(covered)),
        "counterexamples_used": result.counterexamples_used,
        "total_seconds": result.total_seconds,
    }

#!/usr/bin/env python3
"""Bring your own environment: shield a controller for a system the paper never saw.

The toolchain is not tied to the fifteen benchmark models — any infinite-state
transition system written as an :class:`~repro.envs.EnvironmentContext` can be
shielded.  This example builds a *damped Duffing-style beam* from scratch:

    ẋ = v
    v̇ = -2ζ v - x - 0.5 x³ + a          (|a| ≤ 4)

with initial states ``|x|, |v| ≤ 0.6`` and unsafe states ``|x| ≥ 2 or |v| ≥ 2``,
then runs the full pipeline: oracle → CEGIS → verified program → audited shield.

Run with:  python examples/custom_environment.py
"""

from typing import List, Sequence

import numpy as np

from repro import (
    CEGISConfig,
    EvaluationProtocol,
    SynthesisConfig,
    VerificationConfig,
    compare_shielded,
    synthesize_shield,
    train_oracle,
)
from repro.certificates import Box, audit_shield
from repro.core import DistanceConfig
from repro.envs import EnvironmentContext


class DampedBeam(EnvironmentContext):
    """A nonlinear second-order beam with cubic stiffness (polynomial dynamics)."""

    def __init__(self, damping: float = 0.4, dt: float = 0.01) -> None:
        self.damping = float(damping)
        super().__init__(
            state_dim=2,
            action_dim=1,
            init_region=Box((-0.6, -0.6), (0.6, 0.6)),
            safe_box=Box((-2.0, -2.0), (2.0, 2.0)),
            domain=Box((-4.0, -4.0), (4.0, 4.0)),
            dt=dt,
            action_low=[-4.0],
            action_high=[4.0],
            steady_state_tolerance=0.05,
        )
        self.name = "damped_beam"
        self.state_names = ("x", "v")

    def rate(self, state: Sequence, action: Sequence) -> List:
        x, v = state
        force = action[0]
        acceleration = -2.0 * self.damping * v - x - 0.5 * (x * x * x) + force
        return [v, acceleration]


def main() -> None:
    env = DampedBeam()
    print("Environment:", env.describe())

    # A neural oracle cloned from the linearised LQR teacher (seconds, not minutes).
    oracle = train_oracle(env, hidden_sizes=(48, 32), seed=0).policy
    print("Oracle:", oracle.describe())

    config = CEGISConfig(
        synthesis=SynthesisConfig(
            iterations=10,
            distance=DistanceConfig(num_trajectories=2, trajectory_length=80),
        ),
        verification=VerificationConfig(backend="barrier", invariant_degree=4),
        max_counterexamples=8,
    )
    result = synthesize_shield(env, oracle, config=config)
    print(f"\nSynthesized {result.program_size} verified branch(es):\n")
    print(result.pretty_program())

    # Independent audit of every branch against verification conditions (8)-(10),
    # each branch's (9) on the region CEGIS proved it on.
    regions = [branch.region for branch in result.cegis.branches]
    reports = audit_shield(env, result.program, max_boxes=40_000, regions=regions)
    for index, report in enumerate(reports):
        print(f"audit branch {index}: {report.summary()}")

    protocol = EvaluationProtocol(episodes=10, steps=300, seed=1)
    comparison = compare_shielded(env, oracle, result.shield, protocol)
    print("\n--- deployment summary ---")
    print(f"bare network failures:     {comparison.neural.failures}")
    print(f"shielded network failures: {comparison.shielded.failures}")
    print(f"interventions:             {comparison.shielded.interventions}")
    print(f"overhead:                  {100 * comparison.overhead:.1f}%")


if __name__ == "__main__":
    main()

"""The Duffing oscillator of Example 4.3 (used to illustrate CEGIS / Fig. 6).

    ẋ = y
    ẏ = −0.6 y − x − x³ + a

The control objective is to regulate the state to the origin from
``S0 = {x, y | −2.5 ≤ x ≤ 2.5 ∧ −2 ≤ y ≤ 2}`` while avoiding
``Su = {x, y | ¬(−5 ≤ x ≤ 5 ∧ −5 ≤ y ≤ 5)}``.
"""

from __future__ import annotations

from typing import List, Sequence

from ..certificates.regions import Box
from .base import EnvironmentContext

__all__ = ["DuffingOscillator", "make_duffing"]


class DuffingOscillator(EnvironmentContext):
    """Nonlinear second-order Duffing oscillator (polynomial dynamics)."""

    def __init__(self, damping: float = 0.6, max_action: float = 20.0, dt: float = 0.01) -> None:
        self.damping = float(damping)
        super().__init__(
            state_dim=2,
            action_dim=1,
            init_region=Box((-2.5, -2.0), (2.5, 2.0)),
            safe_box=Box((-5.0, -5.0), (5.0, 5.0)),
            domain=Box((-10.0, -10.0), (10.0, 10.0)),
            dt=dt,
            action_low=[-max_action],
            action_high=[max_action],
            steady_state_tolerance=0.05,
        )
        self.name = "duffing"
        self.state_names = ("x", "y")

    def rate(self, state: Sequence, action: Sequence) -> List:
        x, y = state
        a = action[0]
        return [y, -self.damping * y - x - x * x * x + a]

    def cost(self, state: Sequence, action: Sequence):
        x, y = state
        a = action[0]
        return x * x + y * y + 0.001 * (a * a)


def make_duffing(dt: float = 0.01) -> DuffingOscillator:
    """Factory used by the benchmark registry."""
    return DuffingOscillator(dt=dt)

"""Cart-pole balancing benchmark.

"The environment of Cartpole consists of a pole attached to an unactuated joint
connected to a cart that moves along a frictionless track.  The system is unsafe
when the pole's angle is more than 30° from being upright or the cart moves by
more than 0.3 meters from the origin."  (§5)

State ``s = [x, ẋ, θ, θ̇]``; a single horizontal force acts on the cart.  As with
the pendulum, trigonometric terms are replaced by their low-order Taylor
expansions so the closed-loop transition relation stays polynomial
(``sin θ ≈ θ``, ``cos θ ≈ 1`` — an accurate approximation within the ±30° safe
range).  ``pole_length`` is a constructor parameter so the Table 3 change
(+0.15 m) is a one-argument perturbation.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..certificates.regions import Box
from .base import EnvironmentContext

__all__ = ["CartPole", "make_cartpole"]

_GRAVITY = 9.8


class CartPole(EnvironmentContext):
    """Cart-pole with polynomial (small-angle) dynamics."""

    def __init__(
        self,
        cart_mass: float = 1.0,
        pole_mass: float = 0.1,
        pole_length: float = 0.5,
        max_position: float = 0.3,
        max_angle_deg: float = 30.0,
        max_force: float = 15.0,
        dt: float = 0.01,
    ) -> None:
        self.cart_mass = float(cart_mass)
        self.pole_mass = float(pole_mass)
        self.pole_length = float(pole_length)
        max_angle = math.radians(max_angle_deg)
        init = (0.05, 0.05, math.radians(5.0), math.radians(5.0))
        safe = (max_position, 1.0, max_angle, 1.5)
        domain = tuple(2.0 * v for v in safe)
        super().__init__(
            state_dim=4,
            action_dim=1,
            init_region=Box(tuple(-v for v in init), init),
            safe_box=Box(tuple(-v for v in safe), safe),
            domain=Box(tuple(-v for v in domain), domain),
            dt=dt,
            action_low=[-max_force],
            action_high=[max_force],
            steady_state_tolerance=0.02,
        )
        self.name = "cartpole"
        self.state_names = ("x", "x_dot", "theta", "theta_dot")

    def rate(self, state: Sequence, action: Sequence) -> List:
        x, x_dot, theta, theta_dot = state
        force = action[0]
        total_mass = self.cart_mass + self.pole_mass
        half_length = self.pole_length / 2.0
        # Small-angle model: sin θ ≈ θ, cos θ ≈ 1, θ̇² sin θ ≈ 0.
        denom = half_length * (4.0 / 3.0 - self.pole_mass / total_mass)
        theta_acc = (_GRAVITY * theta - force * (1.0 / total_mass)) * (1.0 / denom)
        x_acc = (force + self.pole_mass * half_length * (-1.0) * theta_acc) * (1.0 / total_mass)
        return [x_dot, x_acc, theta_dot, theta_acc]

    def cost(self, state: Sequence, action: Sequence):
        x, x_dot, theta, theta_dot = state
        force = action[0]
        return (
            5.0 * (theta * theta)
            + x * x
            + 0.1 * (x_dot * x_dot + theta_dot * theta_dot)
            + 0.001 * (force * force)
        )


def make_cartpole(pole_length: float = 0.5, dt: float = 0.01) -> CartPole:
    """Factory used by the benchmark registry."""
    return CartPole(pole_length=pole_length, dt=dt)

"""Quadcopter stable-flight benchmark (2 state variables per Table 1).

"The Quadcopter environment tests whether a controlled quadcopter can realize
stable flight." (§5)  With two state variables the model is altitude-hold:
``s = [h, v]`` where ``h`` is the altitude error from the hover set-point and
``v`` the vertical velocity; the action is the net thrust deviation from the
gravity-compensating hover thrust, with a small aerodynamic drag on velocity.

    ḣ = v
    v̇ = a − drag · v

Safety: the quadcopter must stay within an altitude corridor (no crash, no
ceiling violation) with bounded vertical speed.
"""

from __future__ import annotations

from typing import List, Sequence

from ..certificates.regions import Box
from .base import EnvironmentContext

__all__ = ["Quadcopter", "make_quadcopter"]


class Quadcopter(EnvironmentContext):
    """Altitude-hold quadcopter with drag."""

    def __init__(
        self,
        drag: float = 0.3,
        max_error: float = 1.0,
        max_speed: float = 2.0,
        max_thrust: float = 10.0,
        dt: float = 0.01,
    ) -> None:
        self.drag = float(drag)
        init = (0.4, 0.4)
        safe = (max_error, max_speed)
        domain = tuple(2.0 * v for v in safe)
        super().__init__(
            state_dim=2,
            action_dim=1,
            init_region=Box(tuple(-v for v in init), init),
            safe_box=Box(tuple(-v for v in safe), safe),
            domain=Box(tuple(-v for v in domain), domain),
            dt=dt,
            action_low=[-max_thrust],
            action_high=[max_thrust],
            steady_state_tolerance=0.05,
        )
        self.name = "quadcopter"
        self.state_names = ("altitude_error", "vertical_speed")

    def rate(self, state: Sequence, action: Sequence) -> List:
        altitude_error, speed = state
        thrust = action[0]
        return [speed, thrust - self.drag * speed]

    def cost(self, state: Sequence, action: Sequence):
        altitude_error, speed = state
        thrust = action[0]
        return (
            altitude_error * altitude_error
            + 0.1 * (speed * speed)
            + 0.001 * (thrust * thrust)
        )


def make_quadcopter(dt: float = 0.01) -> Quadcopter:
    """Factory used by the benchmark registry."""
    return Quadcopter(dt=dt)

"""The inverted pendulum (the paper's running example, Fig. 1 and the §5 case study).

State ``s = [η, ω]`` where ``η`` is the angle from upright and ``ω`` the angular
velocity; a single continuous torque action keeps the pendulum balanced.  The
paper derives the dynamics from Lagrangian mechanics and "approximates
non-polynomial expressions with their Taylor expansions" (footnote 1), which we
reproduce: ``sin η ≈ η − η³/6``.

    η̇ = ω
    ω̇ = (g / l) · (η − η³/6) + a / (m l²)

Safety variants used in the paper:

* ``safe_angle = 90°`` — the global property of Fig. 1 / Fig. 3(a),
* ``safe_angle = 30°`` — the Segway-style restricted environment of Fig. 3(b),
* ``safe_angle = 23°`` — the §5 case study with significant swings prohibited.

``mass`` and ``length`` are constructor parameters so the Table 3 environment
changes (+0.3 kg, +0.15 m) are one-argument perturbations.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..certificates.regions import Box
from .base import EnvironmentContext

__all__ = ["InvertedPendulum", "make_pendulum"]

_GRAVITY = 9.8


class InvertedPendulum(EnvironmentContext):
    """Inverted pendulum with Taylor-expanded (polynomial) dynamics."""

    def __init__(
        self,
        mass: float = 1.0,
        length: float = 0.5,
        safe_angle_deg: float = 90.0,
        init_angle_deg: float = 20.0,
        max_torque: float = 15.0,
        dt: float = 0.01,
    ) -> None:
        self.mass = float(mass)
        self.length = float(length)
        self.safe_angle_deg = float(safe_angle_deg)
        safe = math.radians(safe_angle_deg)
        init = math.radians(init_angle_deg)
        super().__init__(
            state_dim=2,
            action_dim=1,
            init_region=Box((-init, -init), (init, init)),
            safe_box=Box((-safe, -safe), (safe, safe)),
            domain=Box((-2.0 * safe, -2.0 * safe), (2.0 * safe, 2.0 * safe)),
            dt=dt,
            action_low=[-max_torque],
            action_high=[max_torque],
            steady_state_tolerance=0.05,
        )
        self.name = "pendulum"
        self.state_names = ("eta", "omega")
        # The restricted (23 deg / 30 deg) variants leave very little margin around
        # the initial states, so the nominal LQR teacher needs a strong velocity
        # weighting to avoid overshooting the angular-velocity bound.
        self.lqr_state_cost = np.diag([5.0, 30.0])
        self.lqr_action_cost = np.array([[0.25]])

    def rate(self, state: Sequence, action: Sequence) -> List:
        eta, omega = state
        torque = action[0]
        gravity_term = (_GRAVITY / self.length) * (eta - (eta * eta * eta) * (1.0 / 6.0))
        accel = gravity_term + torque * (1.0 / (self.mass * self.length * self.length))
        return [omega, accel]

    def cost(self, state: Sequence, action: Sequence):
        eta, omega = state
        torque = action[0]
        return eta * eta + 0.1 * (omega * omega) + 0.001 * (torque * torque)


def make_pendulum(
    mass: float = 1.0,
    length: float = 0.5,
    safe_angle_deg: float = 90.0,
    init_angle_deg: float = 20.0,
    dt: float = 0.01,
) -> InvertedPendulum:
    """Factory used by the benchmark registry."""
    return InvertedPendulum(
        mass=mass,
        length=length,
        safe_angle_deg=safe_angle_deg,
        init_angle_deg=init_angle_deg,
        dt=dt,
    )

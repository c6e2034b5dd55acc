"""Linear-quadratic regulator (LQR) baseline.

The paper's related-work discussion (§6) compares against LQR-tree-style
controller synthesis and observes that "because LQR does not take safe/unsafe
regions into consideration, synthesized LQR controllers can regularly violate
safety constraints."  This module synthesizes infinite-horizon continuous-time
LQR gains for the linear (or linearised) benchmarks so that claim can be
reproduced, and doubles as the *teacher* used to pre-train neural oracles by
behaviour cloning (see :mod:`repro.rl.training`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..envs.base import EnvironmentContext
from ..rl.policies import LinearPolicy

__all__ = ["LQRResult", "lqr_gain", "linearize", "make_lqr_policy"]


@dataclass
class LQRResult:
    """An LQR synthesis outcome: the gain and the Riccati solution."""

    gain: np.ndarray
    riccati: np.ndarray


def lqr_gain(
    a: np.ndarray,
    b: np.ndarray,
    state_cost: np.ndarray | None = None,
    action_cost: np.ndarray | None = None,
) -> LQRResult:
    """Solve the continuous-time algebraic Riccati equation and return ``u = -K x``.

    The returned :class:`LQRResult.gain` is ``K`` such that the optimal control
    is ``u = -K x``; callers wanting the closed-loop feedback matrix should use
    ``-K`` as the policy gain.
    """
    from scipy.linalg import solve_continuous_are

    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[0]
    m = b.shape[1]
    q = np.eye(n) if state_cost is None else np.asarray(state_cost, dtype=float)
    r = np.eye(m) if action_cost is None else np.asarray(action_cost, dtype=float)
    riccati = solve_continuous_are(a, b, q, r)
    gain = np.linalg.solve(r, b.T @ riccati)
    return LQRResult(gain=gain, riccati=riccati)


def linearize(
    env: EnvironmentContext, epsilon: float = 1e-5
) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, B)`` of the environment: exact for linear environments, otherwise a
    finite-difference linearisation of ``f`` about the origin."""
    exact = env.linear_matrices()
    if exact is not None:
        return exact
    origin_state = np.zeros(env.state_dim)
    origin_action = np.zeros(env.action_dim)
    base = env.rate_numeric(origin_state, origin_action)
    a = np.zeros((env.state_dim, env.state_dim))
    for i in range(env.state_dim):
        perturbed = origin_state.copy()
        perturbed[i] += epsilon
        a[:, i] = (env.rate_numeric(perturbed, origin_action) - base) / epsilon
    b = np.zeros((env.state_dim, env.action_dim))
    for j in range(env.action_dim):
        perturbed = origin_action.copy()
        perturbed[j] += epsilon
        b[:, j] = (env.rate_numeric(origin_state, perturbed) - base) / epsilon
    return a, b


def make_lqr_policy(
    env: EnvironmentContext,
    state_cost: np.ndarray | None = None,
    action_cost: np.ndarray | None = None,
) -> LinearPolicy:
    """An LQR policy ``u = -K x`` for the environment (linearised if necessary).

    The policy's actions are clipped to the environment's actuator bounds, as
    any deployed controller's would be.  Cost matrices default to the
    environment's ``lqr_state_cost`` / ``lqr_action_cost`` hints (identity when
    those are unset).
    """
    a, b = linearize(env)
    if state_cost is None:
        state_cost = env.lqr_state_cost
    if action_cost is None:
        action_cost = env.lqr_action_cost
    result = lqr_gain(a, b, state_cost=state_cost, action_cost=action_cost)
    return LinearPolicy(
        gain=-result.gain, action_low=env.action_low, action_high=env.action_high
    )

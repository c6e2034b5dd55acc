"""Switched-oscillator-with-filter benchmark (18 state variables).

"Benchmark Oscillator consists of a two-dimensional switched oscillator plus a
16-order filter.  The filter smoothens the input signals and has a single
output signal.  We verify that the output signal is below a safe threshold."
(§5)

We model the oscillator core as a lightly damped rotational system driven by
the control input, and the filter as a chain of sixteen first-order lags whose
first stage is driven by the oscillator's first coordinate.  The paper treats
the switching behaviour as part of the plant; here the mode-dependent drift is
conservatively folded into a bounded disturbance on the oscillator states,
keeping the transition relation polynomial so the same verification path is
exercised.

Safety: the filter output (the last chain stage) and the oscillator states must
stay below a threshold.
"""

from __future__ import annotations

import numpy as np

from ..certificates.regions import Box
from .base import LinearEnvironment

__all__ = ["make_oscillator"]


def make_oscillator(
    filter_order: int = 16,
    oscillator_frequency: float = 1.5,
    oscillator_damping: float = 0.1,
    filter_rate: float = 5.0,
    output_threshold: float = 1.0,
    switching_disturbance: float = 0.05,
    dt: float = 0.01,
) -> LinearEnvironment:
    """The 2 + ``filter_order`` dimensional oscillator/filter benchmark."""
    n = 2 + filter_order
    a = np.zeros((n, n))
    # Oscillator core (x, y): a rotation with weak damping, control enters on y.
    a[0, 0] = -oscillator_damping
    a[0, 1] = oscillator_frequency
    a[1, 0] = -oscillator_frequency
    a[1, 1] = -oscillator_damping
    # Filter chain: z1 follows x, z_{i} follows z_{i-1}.
    a[2, 0] = filter_rate
    a[2, 2] = -filter_rate
    for i in range(3, n):
        a[i, i - 1] = filter_rate
        a[i, i] = -filter_rate
    b = np.zeros((n, 1))
    b[1, 0] = 1.0

    init = np.concatenate([[0.3, 0.3], np.full(filter_order, 0.1)])
    safe = np.concatenate([[2.0, 2.0], np.full(filter_order, output_threshold)])
    domain = 2.0 * safe
    disturbance = np.concatenate(
        [[switching_disturbance, switching_disturbance], np.zeros(filter_order)]
    )
    env = LinearEnvironment(
        a_matrix=a,
        b_matrix=b,
        init_region=Box(tuple(-init), tuple(init)),
        safe_box=Box(tuple(-safe), tuple(safe)),
        domain=Box(tuple(-domain), tuple(domain)),
        dt=dt,
        action_low=[-10.0],
        action_high=[10.0],
        disturbance_bound=disturbance,
        steady_state_tolerance=0.05,
    )
    env.name = "oscillator"
    names = ["osc_x", "osc_y"] + [f"filter_{i + 1}" for i in range(filter_order)]
    env.state_names = tuple(names)
    return env

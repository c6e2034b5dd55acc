"""One trusted-input step for the lockstep fleet loops.

Three loops advance a fleet of rows one Python iteration per time step:
Algorithm 1's objective (:func:`repro.core.distance.program_oracle_distance`),
counterexample replay and probes (:func:`repro.core.replay.batch_reaches_unsafe`)
and the compiled stepper (:class:`repro.compile.stepper.CompiledStepper`).  On
Algorithm 1's and replay's fleets of a few dozen rows, the fixed cost of each
step outweighs the work per row.  So the three loops share
:class:`FleetStep`: the environment's unsafe-box test and actuator clip,
bound once per fleet and applied to ``(rows, dim)`` float blocks that the
loop built itself, without the ``atleast_2d``/``asarray`` coercion of
``is_unsafe_batch`` and ``clip_action_batch``.  The rate is the environment's
own ``rate_batch``, or for the objective's linear dynamics one matrix-vector
product per row.

Comparisons and ``np.maximum``/``np.minimum`` are exact, so a step here equals
:meth:`~repro.envs.base.EnvironmentContext.is_unsafe_batch` and
:meth:`~repro.envs.base.EnvironmentContext.clip_action_batch` bit for bit.
:func:`unsafe_mask` is the one unsafe-box test; ``is_unsafe_batch`` runs it
too.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = ["FleetStep", "box_bounds", "unsafe_mask"]

Bounds = Tuple[np.ndarray, np.ndarray]


def box_bounds(box) -> Bounds:
    """``(low, high)`` of a box as float arrays."""
    return np.asarray(box.low, dtype=float), np.asarray(box.high, dtype=float)


def unsafe_mask(states: np.ndarray, safe: Bounds, extra: Sequence[Bounds] = ()) -> np.ndarray:
    """Rows of ``states`` outside the ``safe`` box or inside one of the ``extra`` boxes."""
    low, high = safe
    result = ~((states >= low) & (states <= high)).all(axis=1)
    for low, high in extra:
        result |= ((states >= low) & (states <= high)).all(axis=1)
    return result


def _unsafe_fn(env) -> Callable[[np.ndarray], np.ndarray]:
    from .base import EnvironmentContext

    if type(env).is_unsafe_batch is not EnvironmentContext.is_unsafe_batch:
        return env.is_unsafe_batch
    safe = box_bounds(env.safe_box)
    extra = [box_bounds(box) for box in env.extra_unsafe_boxes]
    return lambda states: unsafe_mask(states, safe, extra)


def _clip_fn(env) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    low, high = env.action_low, env.action_high

    def clip(actions: np.ndarray, out: np.ndarray) -> np.ndarray:
        if out is not actions:
            np.copyto(out, actions)
        if low is not None:
            np.maximum(out, low, out=out)
        if high is not None:
            np.minimum(out, high, out=out)
        return out

    return clip


def _rate_fn(env, rowwise: bool) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    from .base import LinearEnvironment

    if not (rowwise and isinstance(env, LinearEnvironment)):
        return env.rate_batch
    a_matrix, b_matrix = env.a_matrix, env.b_matrix

    def per_row(states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        rates = np.matmul(a_matrix, states[:, :, None]) + np.matmul(
            b_matrix, actions[:, :, None]
        )
        return rates[:, :, 0]

    return per_row


class FleetStep:
    """``env``'s unsafe test, actuator clip and rate for trusted fleet blocks.

    * ``unsafe(states)`` is the ``(rows,)`` unsafe mask;
    * ``clip(actions, out)`` clips ``actions`` to the actuator bounds into
      ``out``, which may be ``actions`` itself;
    * ``rate(states, actions)`` is ``f(s, a)`` per row: ``env.rate_batch``.

    ``unsafe`` and ``clip`` take 2-D ``(rows, dim)`` float blocks as they are.
    With ``rowwise``, a linear environment's ``A s + B a`` is one
    matrix-vector product per row (``np.matmul`` over stacked operands),
    bit-equal to :meth:`~repro.envs.base.EnvironmentContext.rate_numeric` on
    each row, where ``rate_batch`` runs two matrix products over the block.
    An environment that overrides ``is_unsafe_batch`` keeps its own method.
    """

    __slots__ = ("dt", "unsafe", "clip", "rate")

    def __init__(self, env, rowwise: bool = False) -> None:
        self.dt = env.dt
        self.unsafe = _unsafe_fn(env)
        self.clip = _clip_fn(env)
        self.rate = _rate_fn(env, rowwise)
